(* Data-plane execution benchmark (the BENCH_alloc.json "device"
   section): interpreter vs the JIT specialization tier on the programs
   real tenants run.

   Three services are admitted through the controller exactly as a
   client would (negotiate, synthesize against the granted mutant), then
   the same pre-built packet pools are executed by [Runtime.run] and by
   [Jit.run] and the packets/sec compared.

     pure   cache-only traffic (query-heavy with some populates)
     mixed  cache + heavy-hitter monitor + Cheetah LB SYNs

   The mixed speedup is the gate: >= 5x, checked here after writing and
   re-checked, with each speedup held to 0.7x its baseline row, by
   bench_compare.

   A third row set ("fabric") sends the mixed pool through [Fabric.send]
   end to end — engine events, switch execution, delivery — once with a
   live telemetry registry and once with [Telemetry.noop], and gates
   what leaving telemetry on costs: at most 10% of capsule throughput. *)

module Controller = Activermt_control.Controller
module Negotiate = Activermt_client.Negotiate
module Cache_client = Activermt_client.Cache_client
module Hh_client = Activermt_client.Hh_client
module Lb_client = Activermt_client.Lb_client
module Mutant = Activermt_compiler.Mutant
module Telemetry = Activermt_telemetry.Telemetry
module Engine = Netsim.Engine
module Fabric = Netsim.Fabric
module Kv = Workload.Kv

let params = Rmt.Params.default
let min_speedup = 5.0
let max_telemetry_overhead = 0.10

let admit controller ~fid service =
  let request = Negotiate.request_packet ~fid ~seq:0 service in
  match Controller.handle_request controller request with
  | Ok provision ->
    Option.get (Negotiate.granted_regions provision.Controller.response)
  | Error _ -> failwith "device bench: admission failed on an empty switch"

let client_exn = function Ok c -> c | Error e -> failwith ("device bench: " ^ e)

(* One tenant of each service, admitted through the normal control path so
   the JIT specializes against a real granted allocation. *)
type tenants = {
  controller : Controller.t;
  tables : Activermt.Table.t;
  cache : Cache_client.t;
  hh : Hh_client.t;
  lb : Lb_client.t;
}

let setup ?(telemetry = Telemetry.default) () =
  let device = Rmt.Device.create params in
  let controller = Controller.create ~telemetry device in
  let policy = Mutant.Most_constrained in
  let cache_regions = admit controller ~fid:1 Activermt_apps.Cache.service in
  let hh_regions = admit controller ~fid:2 Activermt_apps.Heavy_hitter.service in
  let lb_regions = admit controller ~fid:3 Activermt_apps.Cheetah_lb.service in
  {
    controller;
    tables = Controller.tables controller;
    cache = client_exn (Cache_client.create params ~policy ~fid:1 ~regions:cache_regions);
    hh = client_exn (Hh_client.create params ~policy ~fid:2 ~regions:hh_regions);
    lb = client_exn (Lb_client.create params ~policy ~fid:3 ~regions:lb_regions);
  }

(* 64 packets ≈ the device's hot working set: big enough to exercise
   all keys and both cache paths, small enough that the benchmark
   measures execution rather than DRAM stalls on packet objects. *)
let pool_size = 64

(* Cache traffic is zipf-skewed by construction — the whole point of an
   in-switch cache is that a handful of hot items absorbs most queries —
   so the pool queries a small hot key set that the (rare) populates
   cover.  Register state persists across bench rounds, so after the
   first round the hot set is resident and queries hit. *)
let pool_pure t =
  Array.init pool_size (fun i ->
      let key = Kv.key_of_rank (16 * (i mod 4)) in
      if i mod 10 = 0 then Cache_client.populate_packet t.cache ~seq:i key ~value:(i * 7)
      else Cache_client.query_packet t.cache ~seq:i key)

(* Monitoring and load balancing run on every packet of the traffic they
   observe, while cache operations are request-driven, so a realistic
   device-level mix is dominated by the per-packet programs: half
   heavy-hitter sketching, a quarter LB SYNs, a quarter cache traffic
   (9:1 query:populate). *)
let pool_mixed t =
  Array.init pool_size (fun i ->
      match i mod 4 with
      | 0 ->
        let key = Kv.key_of_rank (32 * ((i lsr 3) land 1)) in
        if i mod 40 = 0 then
          Cache_client.populate_packet t.cache ~seq:i key ~value:(i * 7)
        else Cache_client.query_packet t.cache ~seq:i key
      | 1 | 2 -> Hh_client.monitor_packet t.hh ~seq:i (Kv.key_of_rank (i mod 64))
      | _ -> Lb_client.syn_packet t.lb ~seq:i ~salt:i)

let meta = Activermt.Runtime.meta ~flow_key:[| 0xBEEF; 0xCAFE |] ~src:100 ~dst:200 ()

(* One timed window: packets/sec for [exec] over the pool. *)
let run_window ~rounds exec pool =
  let n = Array.length pool in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    for i = 0 to n - 1 do
      ignore (exec pool.(i))
    done
  done;
  float_of_int (rounds * n) /. (Unix.gettimeofday () -. t0)

type row = { workload : string; packets : int; interp_pps : float; jit_pps : float }

let speedup r = if r.interp_pps > 0.0 then r.jit_pps /. r.interp_pps else 0.0

let measure ~quick name pool =
  (* Fresh state per engine so register contents don't favour either;
     rep windows alternate between the engines so ambient load on the
     machine hits both sides of the ratio equally. *)
  let rounds = if quick then 40 else 100 in
  let reps = if quick then 8 else 10 in
  let ti = setup () in
  let ipool = pool ti in
  let interp_exec pkt = Activermt.Runtime.run ti.tables ~meta pkt in
  let tj = setup () in
  let jpool = pool tj in
  let jit = Activermt.Jit.create tj.tables in
  let jit_exec pkt = Activermt.Jit.run jit ~meta pkt in
  (* Warm up both (the JIT compiles, sketches reach steady state). *)
  ignore (run_window ~rounds interp_exec ipool);
  ignore (run_window ~rounds jit_exec jpool);
  let interp_pps = ref 0.0 and jit_pps = ref 0.0 in
  for _ = 1 to reps do
    let i = run_window ~rounds interp_exec ipool in
    let j = run_window ~rounds jit_exec jpool in
    if i > !interp_pps then interp_pps := i;
    if j > !jit_pps then jit_pps := j
  done;
  {
    workload = name;
    packets = pool_size * rounds;
    interp_pps = !interp_pps;
    jit_pps = !jit_pps;
  }

let rows_of r =
  let row = Rows.row ~section:"device" ~key:r.workload in
  let speedup_gates =
    if r.workload = "mixed" then [ Rows.Abs (Ge, min_speedup); Rows.throughput_floor ]
    else [ Rows.throughput_floor ]
  in
  [
    row "packets_per_round" ~unit:"count" (float_of_int r.packets);
    row "interp_pps" ~unit:"pkt/s" r.interp_pps;
    row "jit_pps" ~unit:"pkt/s" r.jit_pps;
    row "speedup" ~unit:"x" ~gates:speedup_gates (speedup r);
  ]

(* -- Fabric telemetry overhead ------------------------------------------- *)

let client = 100
let server = 200

(* One switch behind a fabric, every component recording into
   [telemetry], with the mixed pool built against its tenants. *)
let fabric_world telemetry =
  let tn = setup ~telemetry () in
  let engine = Engine.create ~telemetry () in
  let fabric = Fabric.create ~telemetry ~engine ~controller:tn.controller () in
  Fabric.attach fabric client ignore;
  Fabric.attach fabric server ignore;
  (engine, fabric, pool_mixed tn)

(* Capsules/sec for [rounds] passes of the pool through the fabric, the
   engine drained after each pass. *)
let fabric_window ~rounds (engine, fabric, pool) =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    Array.iter
      (fun pkt ->
        Fabric.send fabric (Fabric.msg ~src:client ~dst:server (Fabric.Active pkt)))
      pool;
    Engine.run engine
  done;
  float_of_int (rounds * Array.length pool) /. (Unix.gettimeofday () -. t0)

type overhead = { live_pps : float; noop_pps : float }

(* Cost of the live registry as a fraction of the noop run's time per
   capsule. *)
let overhead_frac o =
  if o.live_pps > 0.0 then (o.noop_pps /. o.live_pps) -. 1.0 else nan

let measure_fabric ~quick =
  let rounds = if quick then 500 else 1500 in
  let reps = if quick then 8 else 12 in
  let live = fabric_world (Telemetry.create ()) in
  let noop = fabric_world Telemetry.noop in
  ignore (fabric_window ~rounds live);
  ignore (fabric_window ~rounds noop);
  (* Alternate sides so ambient load hits both; keep each side's best. *)
  let live_pps = ref 0.0 and noop_pps = ref 0.0 in
  for _ = 1 to reps do
    live_pps := Float.max !live_pps (fabric_window ~rounds live);
    noop_pps := Float.max !noop_pps (fabric_window ~rounds noop)
  done;
  { live_pps = !live_pps; noop_pps = !noop_pps }

let rows_of_overhead o =
  let row = Rows.row ~section:"device" ~key:"fabric" in
  [
    row "live_pps" ~unit:"pkt/s" o.live_pps;
    row "noop_pps" ~unit:"pkt/s" o.noop_pps;
    row "telemetry_overhead" ~unit:"frac"
      ~gates:[ Rows.Abs (Le, max_telemetry_overhead) ]
      (overhead_frac o);
  ]

let print_row r =
  Printf.printf "%-6s  interp %10.0f pkt/s   jit %10.0f pkt/s   speedup %5.2fx\n"
    r.workload r.interp_pps r.jit_pps (speedup r)

let run ~quick =
  Printf.printf "== Device execution: interpreter vs JIT specialization ==\n";
  let pure = measure ~quick "pure" pool_pure in
  let mixed = measure ~quick "mixed" pool_mixed in
  print_row pure;
  print_row mixed;
  let fabric = measure_fabric ~quick in
  Printf.printf
    "fabric  live %10.0f pkt/s   noop %10.0f pkt/s   telemetry overhead %+.1f%%\n"
    fabric.live_pps fabric.noop_pps
    (100.0 *. overhead_frac fabric);

  let tel = Telemetry.default in
  Telemetry.set_gauge tel "device.bench.interp_pps_mixed" mixed.interp_pps;
  Telemetry.set_gauge tel "device.bench.jit_pps_mixed" mixed.jit_pps;
  Telemetry.set_gauge tel "device.bench.speedup_pure" (speedup pure);
  Telemetry.set_gauge tel "device.bench.speedup_mixed" (speedup mixed);

  let rows = rows_of pure @ rows_of mixed @ rows_of_overhead fabric in
  Rows.write ~section:"device" rows;
  Rows.check rows
