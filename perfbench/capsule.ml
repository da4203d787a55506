(* capsule_mix: the capsule path end to end.

   One switch holds three resident services — a cache, a heavy-hitter
   monitor and a Cheetah load balancer (privileged, VIP pool installed by
   memsync writes during set-up).  A single generator event offers an
   open loop at a fixed simulated rate: each firing builds one capsule
   with the client library, hands it to [Fabric.send] and reschedules
   itself.  The engine carries the capsule to the switch (JIT execution)
   and on to the node that receives it.  No admission, departure or
   tenant work happens after set-up, so every host cycle measured here
   is client build, fabric, engine, telemetry, JIT or delivery.

   The run is a sequence of fixed-size windows: [window] capsules offered
   one [spacing_s] apart, then the engine drains.  Host-time metrics are
   medians over windows; simulated metrics, counts and minor words come
   from the first [det_windows] windows, which every run completes, so
   they are identical for a given seed. *)

open Common
module Telemetry = Activermt_telemetry.Telemetry
module Controller = Activermt_control.Controller
module Negotiate = Activermt_client.Negotiate
module Cache_client = Activermt_client.Cache_client
module Hh_client = Activermt_client.Hh_client
module Lb_client = Activermt_client.Lb_client
module Fabric = Netsim.Fabric
module Engine = Netsim.Engine
module Packet = Activermt.Packet
module Runtime = Activermt.Runtime
module Jit = Activermt.Jit
module Kv = Workload.Kv
module Prng = Stdx.Prng

let params = Rmt.Params.default
let fid_cache = 1
let fid_hh = 2
let fid_lb = 3

(* Node addresses: the client that originates every capsule, the KV
   server behind the switch, the LB's virtual IP and its backends. *)
let client = 1
let server = 2
let vip = 999
let ports = Array.init 8 (fun i -> 501 + i)

(* Open-loop offered rate: one capsule per simulated microsecond. *)
let spacing_s = 1e-6
let window = 4096
let det_windows = 40
(* Windows measured after the deterministic prefix, at the least. *)
let min_timed = 20
let n_keys = 4096
let max_flows = 1024

(* Capsule kinds. *)
let k_hh = 0
let k_query = 1
let k_populate = 2
let k_syn = 3
let k_flow = 4

type switch = {
  controller : Controller.t;
  cache : Cache_client.t;
  hh : Hh_client.t;
  lb : Lb_client.t;
}

let tables sw = Controller.tables sw.controller

let admit controller ~fid service =
  match Controller.handle_request controller (Negotiate.request_packet ~fid ~seq:0 service) with
  | Ok _ -> ()
  | Error _ -> failwith "capsule_mix: admission failed on an empty switch"

let ok_exn = function Ok c -> c | Error e -> failwith ("capsule_mix: " ^ e)

(* The three services admitted through the controller as clients would
   request them.  The LB rewrites destinations (SET_DST), so it is
   granted privilege first; without it every SYN is dropped. *)
let build_switch ~telemetry =
  let controller = Controller.create ~telemetry (Rmt.Device.create params) in
  Controller.grant_privilege controller ~fid:fid_lb;
  admit controller ~fid:fid_cache Activermt_apps.Cache.service;
  admit controller ~fid:fid_hh Activermt_apps.Heavy_hitter.service;
  admit controller ~fid:fid_lb Activermt_apps.Cheetah_lb.service;
  (* Later admissions shrink the elastic cache: read every service's
     final regions only once all three are resident. *)
  let regions fid =
    match Controller.regions_packet controller ~fid with
    | Some pkt -> Option.get (Negotiate.granted_regions pkt)
    | None -> failwith "capsule_mix: service not resident"
  in
  let policy = Activermt_compiler.Mutant.Most_constrained in
  {
    controller;
    cache = ok_exn (Cache_client.create params ~policy ~fid:fid_cache ~regions:(regions fid_cache));
    hh = ok_exn (Hh_client.create params ~policy ~fid:fid_hh ~regions:(regions fid_hh));
    lb = ok_exn (Lb_client.create params ~policy ~fid:fid_lb ~regions:(regions fid_lb));
  }

(* Layer accumulators of one window: host ns, and minor words in an
   unboxed array (a float record field would allocate on every update)
   indexed by [w_build], [w_send] and [w_emit]. *)
type acc = {
  mutable build_ns : int;
  mutable send_ns : int;
  mutable emit_ns : int;
  mutable handler_ns : int;
  words : Float.Array.t;
}

let w_build = 0
let w_send = 1
let w_emit = 2

type t = {
  tel : Telemetry.t;
  sw : switch;
  engine : Engine.t;
  fabric : Fabric.t;
  rng : Prng.t;
  zipf : Workload.Zipf.t;
  keys : Kv.key array;
  meta_server : Runtime.meta;
  meta_vip : Runtime.meta;
  (* Per-window capsule records, indexed by seq - base. *)
  pkts : Packet.t array;
  kind : int array;
  dst : int array;
  expect : int array;  (** expected receiving node; -1 = any backend *)
  expect_val : int array;  (** cache query: value a hit must return *)
  salt : int array;
  sent_at : float array;
  got : int array;
  got_node : int array;
  got_at : float array;
  got_pkt : Packet.t array;
  got_val : int array;  (** value a cache query's reply carried *)
  (* The client's view of the cache (bucket -> key, value), updated in
     send order, which is the order the switch executes capsules in.
     Register memory starts zeroed and the cache keeps no valid bit, so
     an empty bucket holds key (0, 0) with value 0: a query for that key
     (Kv rank 0) hits it. *)
  model_k0 : int array;
  model_k1 : int array;
  model_v : int array;
  (* Established LB flows (SYN delivered, cookie known). *)
  flow_salt : int array;
  flow_cookie : int array;
  flow_port : int array;
  mutable n_flows : int;
  mutable flow_next : int;
  mutable base : int;
  mutable sent : int;
  mutable stray : int;
  mutable retain : bool;
      (** keep the window's packets for a twin replay; otherwise the
          runner holds none past delivery, so it makes the major heap
          no busier than the capsule path itself does *)
  (* Instrumentation of traced windows. *)
  mutable instrument : bool;
  mutable span_window : int;  (** parent id for per-capsule spans; 0 = record none *)
  spans : Spans.t;
  acc : acc;
}

let dummy_pkt = Packet.exec ~fid:0 ~seq:0 ~args:[||] Activermt_apps.Cache.query_program

let nbuckets t = Cache_client.n_buckets t.sw.cache

(* Install the LB's VIP pool with memsync write capsules through the
   fabric; every write must be acknowledged (RTS back to the client). *)
let install_pool_fabric t =
  let writes = Lb_client.pool_write_packets t.sw.lb ~ports in
  let acks = ref 0 in
  Fabric.attach t.fabric client (fun m ->
      match m.Fabric.payload with Fabric.Active _ -> incr acks | _ -> ());
  List.iter
    (fun (_, pkt) -> Fabric.send t.fabric (Fabric.msg ~src:client ~dst:Fabric.switch_address (Fabric.Active pkt)))
    writes;
  Engine.run t.engine;
  if !acks <> List.length writes then failwith "capsule_mix: VIP pool write lost"

let install_pool_direct sw =
  let meta = Runtime.meta ~src:client ~dst:Fabric.switch_address () in
  List.iter
    (fun (_, pkt) ->
      match (Runtime.run (tables sw) ~meta pkt).Runtime.decision with
      | Runtime.Return_to_sender -> ()
      | _ -> failwith "capsule_mix: twin VIP pool write lost")
    (Lb_client.pool_write_packets sw.lb ~ports)

let on_deliver t node (m : Fabric.msg) =
  let t0 = if t.instrument then now_ns () else 0 in
  let seq =
    match m.Fabric.payload with
    | Fabric.Active pkt -> pkt.Packet.seq
    | Fabric.Kv_request _ | Fabric.Kv_reply _ | Fabric.Alloc_failed | Fabric.Notify_realloc -> -1
  in
  let i = seq - t.base in
  if seq < 0 || i < 0 || i >= window then t.stray <- t.stray + 1
  else begin
    let pkt = match m.Fabric.payload with Fabric.Active p -> p | _ -> dummy_pkt in
    t.got.(i) <- t.got.(i) + 1;
    t.got_node.(i) <- node;
    t.got_at.(i) <- Engine.now t.engine;
    if t.retain then t.got_pkt.(i) <- pkt;
    if t.kind.(i) = k_query && node = client then
      t.got_val.(i) <- Option.value (Cache_client.reply_value pkt) ~default:(-1);
    if t.kind.(i) = k_syn then
      match Lb_client.cookie_of_reply pkt with
      | Some cookie ->
        let f = t.flow_next in
        t.flow_salt.(f) <- t.salt.(i);
        t.flow_cookie.(f) <- cookie;
        t.flow_port.(f) <- node;
        t.flow_next <- (f + 1) mod max_flows;
        if t.n_flows < max_flows then t.n_flows <- t.n_flows + 1
      | None -> ()
  end;
  if t.instrument then begin
    let t1 = now_ns () in
    t.acc.handler_ns <- t.acc.handler_ns + (t1 - t0);
    if t.span_window > 0 then
      ignore (Spans.add t.spans ~name:2 ~key:seq ~parent:t.span_window ~start:t0 ~stop:t1)
  end

(* The mix: half heavy-hitter monitoring, a quarter cache traffic (9:1
   query:populate over Zipf keys), a quarter LB traffic (SYNs opening
   flows, then packets of established flows). *)
let emit t =
  let i = t.sent in
  let seq = t.base + i in
  let r = Prng.int t.rng 100 in
  let key = t.keys.(Workload.Zipf.sample t.zipf) in
  let kind =
    if r < 50 then k_hh
    else if r < 75 then if Prng.int t.rng 10 = 0 then k_populate else k_query
    else if t.n_flows = 0 || Prng.int t.rng 4 = 0 then k_syn
    else k_flow
  in
  let flow = if kind = k_flow then Prng.int t.rng t.n_flows else 0 in
  let value = if kind = k_populate then 1 + Prng.int t.rng 0x3FFFFFFF else 0 in
  let salt = if kind = k_syn then 1 + Prng.int t.rng 0xFFFFFF else 0 in
  let tr = t.instrument in
  let t0 = if tr then now_ns () else 0 in
  let w0 = if tr then minor_words () else 0.0 in
  let pkt =
    if kind = k_hh then Hh_client.monitor_packet t.sw.hh ~seq key
    else if kind = k_query then Cache_client.query_packet t.sw.cache ~seq key
    else if kind = k_populate then Cache_client.populate_packet t.sw.cache ~seq key ~value
    else if kind = k_syn then Lb_client.syn_packet t.sw.lb ~seq ~salt
    else
      Lb_client.flow_packet t.sw.lb ~seq ~salt:t.flow_salt.(flow) ~cookie:t.flow_cookie.(flow)
  in
  let t1 = if tr then now_ns () else 0 in
  let w1 = if tr then minor_words () else 0.0 in
  (* Expected outcome, from the client's model at send time. *)
  let dst = if kind = k_syn || kind = k_flow then vip else server in
  if t.retain then t.pkts.(i) <- pkt;
  t.kind.(i) <- kind;
  t.dst.(i) <- dst;
  t.salt.(i) <- salt;
  t.sent_at.(i) <- Engine.now t.engine;
  t.got.(i) <- 0;
  t.got_node.(i) <- 0;
  if t.retain then t.got_pkt.(i) <- dummy_pkt;
  (if kind = k_hh then t.expect.(i) <- server
   else if kind = k_query || kind = k_populate then begin
     let b = Cache_client.bucket_of_key t.sw.cache key in
     if kind = k_populate then begin
       t.model_k0.(b) <- key.Kv.k0;
       t.model_k1.(b) <- key.Kv.k1;
       t.model_v.(b) <- value;
       t.expect.(i) <- client
     end
     else if t.model_k0.(b) = key.Kv.k0 && t.model_k1.(b) = key.Kv.k1
     then begin
       t.expect.(i) <- client;
       t.expect_val.(i) <- t.model_v.(b)
     end
     else t.expect.(i) <- server
   end
   else if kind = k_syn then t.expect.(i) <- -1
   else t.expect.(i) <- t.flow_port.(flow));
  let w2 = if tr then minor_words () else 0.0 in
  let t2 = if tr then now_ns () else 0 in
  Fabric.send t.fabric (Fabric.msg ~src:client ~dst (Fabric.Active pkt));
  t.sent <- i + 1;
  if tr then begin
    let t3 = now_ns () in
    let w3 = minor_words () in
    let a = t.acc in
    a.build_ns <- a.build_ns + (t1 - t0);
    a.send_ns <- a.send_ns + (t3 - t2);
    a.emit_ns <- a.emit_ns + (t3 - t0);
    let add k v = Float.Array.set a.words k (Float.Array.get a.words k +. v) in
    add w_build (w1 -. w0);
    add w_send (w3 -. w2);
    add w_emit (w3 -. w0);
    if t.span_window > 0 then begin
      ignore (Spans.add t.spans ~name:0 ~key:seq ~parent:t.span_window ~start:t0 ~stop:t1);
      ignore (Spans.add t.spans ~name:1 ~key:seq ~parent:t.span_window ~start:t2 ~stop:t3)
    end
  end

let create ~seed =
  let tel = Telemetry.create ~now:now_s () in
  let sw = build_switch ~telemetry:tel in
  let engine = Engine.create ~telemetry:tel () in
  let fabric = Fabric.create ~telemetry:tel ~engine ~controller:sw.controller () in
  let rng = Prng.create ~seed in
  let zipf = Workload.Zipf.create ~n:n_keys (Prng.split rng) in
  let nb = Cache_client.n_buckets sw.cache in
  let spans = Spans.create () in
  List.iter
    (fun n -> ignore (Spans.intern spans n))
    [ "client.build"; "fabric.send"; "deliver.handler"; "engine.run"; "jit.replay"; "runtime.replay" ];
  let t =
    {
      tel;
      sw;
      engine;
      fabric;
      rng;
      zipf;
      keys = Array.init n_keys Kv.key_of_rank;
      meta_server = Runtime.meta ~src:client ~dst:server ();
      meta_vip = Runtime.meta ~src:client ~dst:vip ();
      pkts = Array.make window dummy_pkt;
      kind = Array.make window 0;
      dst = Array.make window 0;
      expect = Array.make window 0;
      expect_val = Array.make window 0;
      salt = Array.make window 0;
      sent_at = Array.make window 0.0;
      got = Array.make window 0;
      got_node = Array.make window 0;
      got_at = Array.make window 0.0;
      got_pkt = Array.make window dummy_pkt;
      got_val = Array.make window 0;
      model_k0 = Array.make nb 0;
      model_k1 = Array.make nb 0;
      model_v = Array.make nb 0;
      flow_salt = Array.make max_flows 0;
      flow_cookie = Array.make max_flows 0;
      flow_port = Array.make max_flows 0;
      n_flows = 0;
      flow_next = 0;
      base = 0;
      sent = 0;
      stray = 0;
      retain = true;
      instrument = false;
      span_window = 0;
      spans;
      acc = { build_ns = 0; send_ns = 0; emit_ns = 0; handler_ns = 0; words = Float.Array.make 3 0.0 };
    }
  in
  install_pool_fabric t;
  Fabric.attach fabric client (on_deliver t client);
  Fabric.attach fabric server (on_deliver t server);
  Array.iter (fun p -> Fabric.attach fabric p (on_deliver t p)) ports;
  t

(* One window: offer [window] capsules and drain the engine.  Returns
   host ns spent in [Engine.run] and the minor words it allocated. *)
let run_window t =
  t.sent <- 0;
  let rec gen () =
    if t.sent < window then begin
      emit t;
      Engine.schedule t.engine ~delay:spacing_s gen
    end
  in
  Engine.schedule t.engine ~delay:0.0 gen;
  let w0 = minor_words () in
  let t0 = now_ns () in
  Engine.run t.engine;
  let t1 = now_ns () in
  let w1 = minor_words () in
  (t0, t1, w1 -. w0)

(* Twins: two more switches admitted identically.  Each window's
   capsules are replayed into them in send order — the order the switch
   executed them — so their register state tracks the fabric's switch
   exactly: one through the interpreter ([Runtime.run]), one through a
   JIT of its own ([Jit.run]). *)
type twins = { interp : switch; jtwin : switch; jit : Jit.t }

let create_twins () =
  let interp = build_switch ~telemetry:(Telemetry.create ()) in
  let jtwin = build_switch ~telemetry:(Telemetry.create ()) in
  install_pool_direct interp;
  install_pool_direct jtwin;
  { interp; jtwin; jit = Jit.create ~telemetry:(Telemetry.create ()) (tables jtwin) }

let no_result =
  {
    Runtime.decision = Runtime.Return_to_sender;
    args_out = [||];
    executed = 0;
    passes = 0;
    port_recirculations = 0;
    pipelines = 0;
    quiesced = false;
    consumed_prefix = 0;
    final_mar = 0;
    final_mbr = 0;
    final_mbr2 = 0;
    forks = 0;
  }

(* Replay the window into [run]; returns results, host ns and minor
   words of the replay loop. *)
let replay t run =
  let results = Array.make window no_result in
  let w0 = minor_words () in
  let t0 = now_ns () in
  for i = 0 to window - 1 do
    let meta = if t.dst.(i) = vip then t.meta_vip else t.meta_server in
    results.(i) <- run ~meta t.pkts.(i)
  done;
  let t1 = now_ns () in
  let w1 = minor_words () in
  (results, t0, t1, w1 -. w0)

let replay_interp t tw = replay t (fun ~meta p -> Runtime.run (tables tw.interp) ~meta p)
let replay_jit t tw = replay t (fun ~meta p -> Jit.run tw.jit ~meta p)

(* Per-window correctness: exactly-once delivery to the expected node,
   cache hits returning the populated value, LB flow packets reaching
   their SYN's backend, and — when interpreter results are given — the
   fabric's JIT outcome equal to the interpreter twin's.  Returns the
   number of capsules not served correctly. *)
let check_window t checks interp =
  let unserved = ref 0 in
  for i = 0 to window - 1 do
    let failed0 = checks.Checks.failed in
    let seq = t.base + i in
    let node = t.got_node.(i) in
    if t.got.(i) <> 1 then
      Checks.fail checks (Printf.sprintf "capsule %d delivered %d times" seq t.got.(i))
    else if t.expect.(i) = -1 && not (Array.mem node ports) then
      Checks.fail checks (Printf.sprintf "SYN %d reached %d, not a backend" seq node)
    else if t.expect.(i) >= 0 && node <> t.expect.(i) then
      Checks.fail checks
        (Printf.sprintf "capsule %d (kind %d) reached %d, expected %d" seq t.kind.(i) node
           t.expect.(i))
    else if
      t.kind.(i) = k_query && node = client && t.got_val.(i) <> t.expect_val.(i)
    then Checks.fail checks (Printf.sprintf "cache hit %d returned a wrong value" seq)
    else Checks.ok checks;
    (match interp with
    | None -> ()
    | Some results ->
      let r = results.(i) in
      let node_ok =
        match r.Runtime.decision with
        | Runtime.Return_to_sender -> node = client
        | Runtime.Forward d -> node = if d = t.dst.(i) || d = 0 then t.dst.(i) else d
        | Runtime.Dropped _ -> false
      in
      let args_ok =
        match t.got_pkt.(i).Packet.payload with
        | Packet.Exec { args; _ } -> args = r.Runtime.args_out
        | Packet.Request _ | Packet.Response _ | Packet.Bare -> false
      in
      if node_ok && args_ok then Checks.ok checks
      else Checks.fail checks (Printf.sprintf "capsule %d: fabric result differs from interpreter" seq));
    if checks.Checks.failed > failed0 then incr unserved
  done;
  !unserved

let reset_acc a =
  a.build_ns <- 0;
  a.send_ns <- 0;
  a.emit_ns <- 0;
  a.handler_ns <- 0;
  Float.Array.fill a.words 0 3 0.0

(* Per-capsule spans are kept for the first traced windows only, so a
   traced run's span buffer stays a few MB. *)
let max_capsule_spans = 30_000

let run (cfg : config) =
  let checks = Checks.create () in
  (* Set-up: the switch, its three admissions, the fabric, the VIP pool
     install and one warm-up window (JIT compilation, cache and sketch
     state).  The first instance is the one measured. *)
  let setup = Setup.create ~seconds:cfg.seconds in
  let build () =
    let t = create ~seed:cfg.seed in
    ignore (run_window t);
    t
  in
  let t = Setup.time setup build in
  let tw = create_twins () in
  let ri, _, _, _ = replay_interp t tw in
  if cfg.trace then ignore (replay_jit t tw);
  let unserved = ref (check_window t checks (Some ri)) and offered = ref window in
  let calib_start = calibrate () in
  let deadline = now_ns () + int_of_float (cfg.seconds *. 1e9) in
  let rates = Samples.create () and rates_traced = Samples.create () in
  let win_ms = Samples.create () in
  let lat = Samples.create () in
  let det_words = ref 0.0 and det_events = ref 0 and win_words = Samples.create () in
  let hits0, _, _, _ = Jit.stats (Fabric.jit t.fabric) in
  let det_hits = ref 0 in
  let cache_hits = ref 0 and cache_queries = ref 0 in
  (* Sums over traced windows. *)
  let l_build = ref 0 and l_send = ref 0 and l_emit = ref 0 and l_handler = ref 0 in
  let l_run = ref 0 and l_window = ref 0 and l_events = ref 0 and l_caps = ref 0 in
  let l_words = Float.Array.make 3 0.0 and l_jit = ref 0 and l_interp = ref 0 and l_jwords = ref 0.0 in
  let twin_mismatch = ref 0 in
  let w = ref 0 in
  while !w < det_windows + min_timed || now_ns () < deadline do
    let idx = !w in
    t.base <- (idx + 1) * window;
    (* A traced run alternates plain and instrumented windows; the gap
       between their rates is the tracing overhead. *)
    let traced = cfg.trace && idx land 1 = 1 in
    t.instrument <- traced;
    t.retain <- cfg.trace || idx < det_windows;
    reset_acc t.acc;
    let span_id =
      if traced then Spans.add t.spans ~name:3 ~key:idx ~parent:0 ~start:0 ~stop:0 else 0
    in
    t.span_window <- (if Spans.length t.spans < max_capsule_spans then span_id else 0);
    let ev0 = counter t.tel "sim.events.processed" in
    let s0 = now_ns () in
    let r0, r1, words = run_window t in
    let s1 = now_ns () in
    let events = counter t.tel "sim.events.processed" - ev0 in
    t.instrument <- false;
    let ns = r1 - r0 in
    let rate = float_of_int window /. (float_of_int ns *. 1e-9) in
    if traced then begin
      t.spans.Spans.start.(span_id - 1) <- r0;
      t.spans.Spans.stop.(span_id - 1) <- r1
    end;
    (* Host time counts only after the deterministic prefix, whose
       windows alternate with interpreter replays that evict the
       switch's state from the CPU caches. *)
    if idx >= det_windows then
      if traced then Samples.add rates_traced rate
      else begin
        Samples.add rates rate;
        Samples.add win_ms (float_of_int ns *. 1e-6)
      end;
    if idx < det_windows then begin
      det_words := !det_words +. words;
      Samples.add win_words (words /. float_of_int window);
      det_events := !det_events + events;
      for i = 0 to window - 1 do
        Samples.add lat ((t.got_at.(i) -. t.sent_at.(i)) *. 1e6);
        if t.kind.(i) = k_query then begin
          incr cache_queries;
          if t.got_node.(i) = client then incr cache_hits
        end
      done;
      if idx = det_windows - 1 then begin
        let h, _, _, _ = Jit.stats (Fabric.jit t.fabric) in
        det_hits := h - hits0
      end
    end;
    (* Twin replays and checks run outside the timed window.  An
       untraced run replays the interpreter twin over the deterministic
       windows only: that sample is its JIT-equals-interpreter check. *)
    let interp =
      if cfg.trace || idx < det_windows then begin
        let ri, i0, i1, _ = replay_interp t tw in
        if cfg.trace then begin
          let rj, j0, j1, jw = replay_jit t tw in
          for i = 0 to window - 1 do
            if rj.(i) <> ri.(i) then incr twin_mismatch
          done;
          if traced then begin
            l_jit := !l_jit + (j1 - j0);
            l_interp := !l_interp + (i1 - i0);
            l_jwords := !l_jwords +. jw;
            ignore (Spans.add t.spans ~name:4 ~key:idx ~parent:span_id ~start:j0 ~stop:j1);
            ignore (Spans.add t.spans ~name:5 ~key:idx ~parent:span_id ~start:i0 ~stop:i1)
          end
        end;
        Some ri
      end
      else None
    in
    unserved := !unserved + check_window t checks interp;
    offered := !offered + window;
    Setup.maybe setup build;
    if traced then begin
      let a = t.acc in
      l_build := !l_build + a.build_ns;
      l_send := !l_send + a.send_ns;
      l_emit := !l_emit + a.emit_ns;
      l_handler := !l_handler + a.handler_ns;
      Float.Array.iteri (fun k v -> Float.Array.set l_words k (Float.Array.get l_words k +. v)) a.words;
      l_run := !l_run + ns;
      l_window := !l_window + (s1 - s0);
      l_events := !l_events + events;
      l_caps := !l_caps + window
    end;
    incr w
  done;
  let calib_end = calibrate () in
  Checks.check checks (Fabric.stats_drops t.fabric = 0) "switch dropped %d capsules"
    (Fabric.stats_drops t.fabric);
  Checks.check checks (t.stray = 0) "%d stray deliveries" t.stray;
  Checks.check checks (!twin_mismatch = 0) "%d JIT twin results differ from the interpreter twin"
    !twin_mismatch;
  let hits, misses, compiles, _ = Jit.stats (Fabric.jit t.fabric) in
  let rate = top_decile (Samples.to_array rates) in
  let words = median (Samples.to_array win_words) in
  let lat_a = Samples.to_array lat in
  let p99 = percentile lat_a 99.0 in
  let util = Activermt_alloc.Allocator.utilization (Controller.allocator t.sw.controller) in
  let served = float_of_int (!offered - !unserved) /. float_of_int !offered in
  let win = Samples.to_array win_ms in
  let e2e =
    [
      ("setup_s", Setup.median setup);
      ("op_rate", rate);
      ("op_words", words);
      ("served_ratio", served);
      ("utilization", util);
    ]
  in
  let per n = if !l_caps = 0 then 0.0 else float_of_int n /. float_of_int !l_caps in
  let perf x = if !l_caps = 0 then 0.0 else x /. float_of_int !l_caps in
  (* The ledger of a traced capsule: client build + fabric send + the
     runner's generator bookkeeping + engine self time + delivery
     handler, against the traced window time per capsule. *)
  let engine_self = per (!l_run - !l_emit - !l_handler) in
  let jit_ns = per !l_jit in
  let e2e_traced = per !l_window in
  let ledger_sum = per (!l_emit + !l_handler) +. engine_self in
  let traced_rate = top_decile (Samples.to_array rates_traced) in
  let layers =
    [
      ("client.build_ns", per !l_build);
      ("client.build_words", perf (Float.Array.get l_words w_build));
      ("fabric.send_ns", per !l_send);
      ("fabric.send_words", perf (Float.Array.get l_words w_send));
      ("runner.gen_ns", per (!l_emit - !l_build - !l_send));
      ( "runner.gen_words",
        perf
          (Float.Array.get l_words w_emit -. Float.Array.get l_words w_build
         -. Float.Array.get l_words w_send) );
      ("engine.run_ns", engine_self);
      ("engine.events", per !l_events);
      ("jit.exec_ns", jit_ns);
      ("jit.exec_words", perf !l_jwords);
      ("runtime.exec_ns", per !l_interp);
      ("jit.speedup", if !l_jit = 0 then 0.0 else float_of_int !l_interp /. float_of_int !l_jit);
      ("fabric.overhead_ns", engine_self -. jit_ns);
      ("deliver.handler_ns", per !l_handler);
      ("jit.hits", float_of_int !det_hits);
      ("jit.compiles", float_of_int compiles);
      ("capsule.traced_ns", e2e_traced);
      ("trace.overhead_pct", if rate = 0.0 then 0.0 else 100.0 *. (rate -. traced_rate) /. rate);
      ( "ledger.residual_pct",
        if e2e_traced = 0.0 then 0.0 else 100.0 *. (e2e_traced -. ledger_sum) /. e2e_traced );
      ("calib.alu_ms", Float.min calib_start calib_end);
    ]
  in
  let hit_ratio = float_of_int !cache_hits /. float_of_int (max 1 !cache_queries) in
  let deterministic =
    [
      ("capsule_sim_p50_us", Printf.sprintf "%.6f" (percentile lat_a 50.0));
      ("capsule_sim_p99_us", Printf.sprintf "%.6f" p99);
      ("capsule_words_total", Printf.sprintf "%.0f" !det_words);
      ("engine_events", string_of_int !det_events);
      ("jit_hits", string_of_int !det_hits);
      ("cache_hits", string_of_int !cache_hits);
      ("cache_queries", string_of_int !cache_queries);
      ("lb_flows", string_of_int t.n_flows);
      ("utilization", Printf.sprintf "%.6f" util);
      ("cache_buckets", string_of_int (nbuckets t));
    ]
  in
  let report =
    [
      Printf.sprintf "capsule_mix: %d windows of %d capsules (first %d deterministic); JIT %d hits, %d misses"
        !w window det_windows hits misses;
      (let r = Samples.to_array rates in
       Printf.sprintf
         "  capsule_rate        %12.1f capsules/s (host, top decile of %d windows; p50 %.0f, p99 %.0f)"
         rate (Array.length r) (median r) (percentile r 99.0));
      Printf.sprintf "  window_p50_ms       %12.3f ms host time per %d-capsule window (p90 %.3f ms)" (median win)
        window (percentile win 90.0);
      Printf.sprintf "  capsule_words       %12.2f minor words/capsule (median of %d windows)" words
        det_windows;
      Printf.sprintf "  capsule_sim_p99_us  %12.3f us simulated, injection to delivery (%d samples)" p99
        (Array.length lat_a);
      Printf.sprintf "  cache hit ratio     %12.4f (%d queries)" hit_ratio !cache_queries;
      Printf.sprintf "  calibration         %.1f ms at start, %.1f ms at end (fixed ALU loop)" calib_start
        calib_end;
    ]
  in
  if cfg.trace then Spans.write t.spans "capsule_mix";
  {
    attempted = checks.Checks.attempted;
    failed = checks.Checks.failed;
    e2e;
    layers;
    deterministic;
    report = report @ List.rev_map (fun n -> "  FAIL " ^ n) checks.Checks.notes;
  }
