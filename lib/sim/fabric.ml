module Controller = Activermt_control.Controller
module Telemetry = Activermt_telemetry.Telemetry
module Trace = Activermt_telemetry.Trace

type address = int

let switch_address = 0

type payload =
  | Active of Activermt.Packet.t
  | Kv_request of { key : Workload.Kv.key }
  | Kv_reply of { key : Workload.Kv.key; value : int }
  | Alloc_failed
  | Notify_realloc

type msg = { src : address; dst : address; payload : payload; trace : Trace.ctx option }

let msg ?trace ~src ~dst payload = { src; dst; payload; trace }

(* Per-node traffic counters: [sim.node.<addr>.tx] / [.rx]. *)
type node_counters = { tx : Telemetry.counter; rx : Telemetry.counter }

type t = {
  engine : Engine.t;
  controller : Controller.t;
  address : address;
  wire_latency_s : float;
  loss_rate : float;
  loss_rng : Stdx.Prng.t;
  faults : Faults.t option;
  nodes : (address, msg -> unit) Hashtbl.t;
  mutable default_node : (msg -> unit) option;
  owners : (Activermt.Packet.fid, address) Hashtbl.t;
  jit : Activermt.Jit.t;
  mutable drops : int;
  mutable lost : int;
  pass_s : float;  (* switch latency per pipeline traversed *)
  tel : Telemetry.t;
  c_sent : Telemetry.counter;
  c_delivered : Telemetry.counter;
  c_lost : Telemetry.counter;
  c_dropped : Telemetry.counter;
  node_tel : (address, node_counters) Hashtbl.t;
  tracer : Trace.t;
}

let create ?(address = switch_address) ?(wire_latency_s = 5.0e-6)
    ?(loss_rate = 0.0) ?(loss_seed = 4_059) ?faults ?(jit = true)
    ?(telemetry = Telemetry.default) ?(tracer = Trace.noop) ~engine ~controller
    () =
  if loss_rate < 0.0 || loss_rate >= 1.0 then
    invalid_arg "Fabric.create: loss_rate must be in [0, 1)";
  (* A faults handle with an all-off profile is the same as no handle:
     take the legacy (zero-cost, bit-identical) paths. *)
  let faults =
    match faults with
    | Some f when Faults.is_none (Faults.profile f) -> None
    | other -> other
  in
  {
    engine;
    controller;
    address;
    wire_latency_s;
    loss_rate;
    loss_rng = Stdx.Prng.create ~seed:loss_seed;
    faults;
    nodes = Hashtbl.create 16;
    default_node = None;
    owners = Hashtbl.create 16;
    jit =
      Activermt.Jit.create ~enabled:jit ~telemetry
        (Controller.tables controller);
    drops = 0;
    lost = 0;
    pass_s =
      1.0e-6
      *. (Rmt.Device.params (Controller.device controller))
           .Rmt.Params.pass_latency_us;
    tel = telemetry;
    c_sent = Telemetry.counter telemetry "sim.packets.sent";
    c_delivered = Telemetry.counter telemetry "sim.packets.delivered";
    c_lost = Telemetry.counter telemetry "sim.packets.lost";
    c_dropped = Telemetry.counter telemetry "sim.packets.dropped";
    node_tel = Hashtbl.create 16;
    tracer;
  }

let engine t = t.engine
let controller t = t.controller
let address t = t.address
let faults t = t.faults
let tracer t = t.tracer
let jit t = t.jit

let attach t addr handler =
  if addr = t.address then invalid_arg "Fabric.attach: switch address reserved";
  Hashtbl.replace t.nodes addr handler

let attach_default t handler = t.default_node <- Some handler

let register_fid t ~fid ~owner = Hashtbl.replace t.owners fid owner

(* A node's counter names are formatted the first time its address is
   seen, never per packet. *)
let node_counters t addr =
  match Hashtbl.find t.node_tel addr with
  | c -> c
  | exception Not_found ->
    let name dir = Printf.sprintf "sim.node.%d.%s" addr dir in
    let c =
      {
        tx = Telemetry.counter t.tel (name "tx");
        rx = Telemetry.counter t.tel (name "rx");
      }
    in
    Hashtbl.add t.node_tel addr c;
    c

(* ---- Trace plumbing ----
   A message carries its trace context; each hop chains a child event so
   the trace reads as the capsule's itinerary.  Everything below is a
   no-op (one pointer test) when the message is untraced. *)

let tr_on t m =
  match m.trace with
  | Some c when Trace.enabled t.tracer -> Some c
  | Some _ | None -> None

let sw_attr t = ("switch", string_of_int t.address)
let link_attr m = ("link", Printf.sprintf "%d->%d" m.src m.dst)

(* Terminal fault events: nothing downstream chains off them. *)
let tr_fault t m ?(attrs = []) name =
  match tr_on t m with
  | None -> ()
  | Some c ->
    ignore
      (Trace.instant t.tracer c ~attrs:(sw_attr t :: link_attr m :: attrs) name)

(* Chain a hop event: the message continues under the new child span. *)
let tr_hop t m ?(attrs = []) name =
  match tr_on t m with
  | None -> m
  | Some c ->
    let attrs = sw_attr t :: ("dst", string_of_int m.dst) :: attrs in
    { m with trace = Some (Trace.instant t.tracer c ~attrs name) }

let wire_ctx (c : Trace.ctx) : Activermt.Wire.trace_ctx =
  { Activermt.Wire.trace_id = c.Trace.trace_id; span_id = c.Trace.span_id }

let lossy t m =
  (* Only program packets and their replies ride the lossy data plane. *)
  match m.payload with
  | Active { Activermt.Packet.payload = Activermt.Packet.Exec _; _ } ->
    t.loss_rate > 0.0 && Stdx.Prng.float t.loss_rng 1.0 < t.loss_rate
  | Active _ | Kv_request _ | Kv_reply _ | Alloc_failed | Notify_realloc -> false

let count_lost t =
  t.lost <- t.lost + 1;
  Telemetry.bump t.c_lost

(* Corruption damages the capsule's on-the-wire bytes; the receiving
   parser verifies the frame checksum and discards on mismatch.  A
   single-byte flip is always caught (see Wire.checksum), so the effect
   is loss — but it goes through the real encode/verify path (including
   the in-band trace extension) and is accounted separately.  Non-capsule
   payloads have no frame to damage; a corrupted one is simply
   unparseable, i.e. lost. *)
let corruption_rejected t f m =
  let rejected =
    match m.payload with
    | Active pkt -> (
      let trace = Option.map wire_ctx m.trace in
      let framed = Activermt.Wire.frame ?trace (Activermt.Packet.encode pkt) in
      match Activermt.Wire.unframe_traced (Faults.corrupt_bytes f framed) with
      | Error _ -> true
      | Ok _ -> false)
    | Kv_request _ | Kv_reply _ | Alloc_failed | Notify_realloc -> true
  in
  if rejected then Telemetry.incr t.tel "faults.rejected.checksum";
  rejected

(* One network hop under the fault model: decide the delivery's fate,
   then schedule the surviving copies (each with its own jitter, so
   duplicates and back-to-back sends can reorder). *)
let faulty_hop t f ~delay thunk =
  let now = Engine.now t.engine in
  let v = Faults.plan f ~now in
  if v.Faults.lose then `Lost v.Faults.cause
  else if v.Faults.corrupt then `Corrupted
  else begin
    for _ = 1 to v.Faults.copies do
      Engine.schedule t.engine ~delay:(delay +. Faults.jitter f) thunk
    done;
    `Scheduled v.Faults.copies
  end

let cause_attr = function
  | None -> []
  | Some k -> [ ("cause", Faults.kind_to_string k) ]

(* Schedule one hop of [m] toward [fire] (which receives the message with
   its trace advanced by an [event] child), emitting fault events under
   the message's trace as verdicts land. *)
let hop t m ~delay ~event fire =
  let m =
    if Trace.stage_detail t.tracer then
      tr_hop t m
        ~attrs:[ ("delay_us", Printf.sprintf "%.3f" (delay *. 1e6)) ]
        "sim.enqueue"
    else m
  in
  let thunk () = fire (tr_hop t m event) in
  match t.faults with
  | None -> Engine.schedule t.engine ~delay thunk
  | Some f -> (
    match faulty_hop t f ~delay thunk with
    | `Scheduled copies ->
      if copies > 1 then
        tr_fault t m
          ~attrs:[ ("cause", "duplicate"); ("copies", string_of_int copies) ]
          "fault.duplicate"
    | `Lost cause ->
      tr_fault t m ~attrs:(cause_attr cause) "fault.drop";
      count_lost t
    | `Corrupted ->
      tr_fault t m "fault.corrupt";
      if corruption_rejected t f m then begin
        tr_fault t m ~attrs:[ ("cause", "corrupt") ] "fault.drop";
        count_lost t
      end)

let deliver t m ~delay =
  if lossy t m then begin
    tr_fault t m ~attrs:[ ("cause", "loss_rate") ] "fault.drop";
    count_lost t
  end
  else
    hop t m ~delay ~event:"sim.deliver" (fun m ->
        match Hashtbl.find_opt t.nodes m.dst with
        | Some handler ->
          Telemetry.bump t.c_delivered;
          Telemetry.bump (node_counters t m.dst).rx;
          handler m
        | None -> (
          match t.default_node with
          | Some handler ->
            Telemetry.bump t.c_delivered;
            handler m
          | None -> ()))

let notify_impacted ?trace t fids =
  List.iter
    (fun fid ->
      match Hashtbl.find_opt t.owners fid with
      | None -> ()
      | Some owner ->
        deliver t
          { src = t.address; dst = owner; payload = Notify_realloc; trace }
          ~delay:t.wire_latency_s)
    fids

let decision_string r =
  match r with
  | Activermt.Runtime.Forward d -> Printf.sprintf "forward:%d" d
  | Activermt.Runtime.Return_to_sender -> "rts"
  | Activermt.Runtime.Dropped reason ->
    let why =
      match reason with
      | Activermt.Runtime.Protection_violation _ -> "protection"
      | Activermt.Runtime.No_allocation _ -> "no_allocation"
      | Activermt.Runtime.Recirculation_limit -> "recirc_limit"
      | Activermt.Runtime.Privilege_violation _ -> "privilege"
      | Activermt.Runtime.Explicit_drop -> "drop"
    in
    "dropped:" ^ why

(* The [device.exec] span's attrs; admit.* link the data plane back to
   the control-plane provision span that placed this program.  A
   stage-detail capsule runs in the interpreter, so its [jit] reads
   false. *)
let exec_attrs t pkt =
  let fid = pkt.Activermt.Packet.fid in
  let jit_attr =
    ( "jit",
      if (not (Trace.stage_detail t.tracer)) && Activermt.Jit.would_specialize t.jit pkt
      then "true"
      else "false" )
  in
  match Controller.admit_trace t.controller ~fid with
  | None -> [ sw_attr t; ("fid", string_of_int fid); jit_attr ]
  | Some a ->
    [
      sw_attr t;
      ("fid", string_of_int fid);
      jit_attr;
      ("admit.trace_id", string_of_int a.Trace.trace_id);
      ("admit.span_id", string_of_int a.Trace.span_id);
    ]

(* One [device.stage] instant per interpreter trace event. *)
let stage_event t c (e : Activermt.Runtime.trace_event) =
  let attrs =
    [
      sw_attr t;
      ("pass", string_of_int e.Activermt.Runtime.tr_pass);
      ("stage", string_of_int e.Activermt.Runtime.tr_stage);
      ("pc", string_of_int e.Activermt.Runtime.tr_pc);
      ("instr", Format.asprintf "%a" Activermt.Instr.pp e.Activermt.Runtime.tr_instr);
      ("skipped", if e.Activermt.Runtime.tr_skipped then "1" else "0");
      ("mar", string_of_int e.Activermt.Runtime.tr_mar);
      ("mbr", string_of_int e.Activermt.Runtime.tr_mbr);
      ("mbr2", string_of_int e.Activermt.Runtime.tr_mbr2);
    ]
  in
  ignore (Trace.instant t.tracer c ~attrs "device.stage")

let at_switch t m =
  match m.payload with
  | Kv_request _ | Kv_reply _ | Alloc_failed | Notify_realloc ->
    (* Transit traffic: forward to the destination. *)
    deliver t m ~delay:t.wire_latency_s
  | Active pkt -> (
    match pkt.Activermt.Packet.payload with
    | Activermt.Packet.Request _ -> (
      match Controller.handle_request ?trace:(tr_on t m) t.controller pkt with
      | Ok provision ->
        (* Simulated time advances by the modeled control-plane work only;
           the allocator's measured compute time is host time, reported in
           the provision's timing but never scheduled. *)
        let dt =
          let b = provision.Controller.timing in
          Activermt_control.Cost_model.(b.table_update_s +. b.snapshot_s +. b.notify_s)
        in
        let dt =
          match t.faults with
          | Some f -> Faults.scale_table_update f dt
          | None -> dt
        in
        (match provision.Controller.phase with
        | Controller.Awaiting_extraction { impacted } ->
          notify_impacted ?trace:m.trace t impacted
        | Controller.Committed -> ());
        (* A failed table-update RPC loses the response after the
           controller committed; the client's timed-out re-request is
           answered idempotently from the existing allocation. *)
        let response_failed =
          match t.faults with
          | Some f -> Faults.control_failure f ~now:(Engine.now t.engine)
          | None -> false
        in
        if response_failed then
          tr_fault t m ~attrs:[ ("cause", "ctl_fail") ] "fault.drop"
        else
          deliver t
            {
              src = t.address;
              dst = m.src;
              payload = Active provision.Controller.response;
              trace = m.trace;
            }
            ~delay:(dt +. t.wire_latency_s)
      | Error (`Rejected _) ->
        deliver t
          { src = t.address; dst = m.src; payload = Alloc_failed; trace = m.trace }
          ~delay:(0.01 +. t.wire_latency_s)
      | Error (`Bad_packet _) -> ())
    | Activermt.Packet.Bare ->
      let fid = pkt.Activermt.Packet.fid in
      if pkt.Activermt.Packet.flags.Activermt.Packet.ack then begin
        Controller.complete_extraction t.controller ~fid;
        (* Tell the client where its (possibly moved) allocation now
           lives so it can re-synthesize and repopulate. *)
        match Controller.regions_packet t.controller ~fid with
        | Some response ->
          deliver t
            { src = t.address; dst = m.src; payload = Active response; trace = m.trace }
            ~delay:t.wire_latency_s
        | None -> ()
      end
      else begin
        (* Release: the service departs and its memory is redistributed;
           expanded apps are told to re-synchronize. *)
        let _timing, expanded =
          Controller.handle_departure ?trace:(tr_on t m) t.controller ~fid
        in
        (* The epoch bump already makes any cached closures unreachable;
           the explicit invalidate frees them eagerly. *)
        Activermt.Jit.invalidate t.jit ~fid;
        Hashtbl.remove t.owners fid;
        notify_impacted ?trace:m.trace t expanded
      end
    | Activermt.Packet.Response _ -> deliver t m ~delay:t.wire_latency_s
    | Activermt.Packet.Exec _ ->
      let tables = Controller.tables t.controller in
      let meta = Activermt.Runtime.meta ~src:m.src ~dst:m.dst () in
      let fid = pkt.Activermt.Packet.fid in
      if not (Activermt.Table.installed tables ~fid) then
        (* Unknown FID: no table entries match, the packet forwards as
           plain traffic. *)
        deliver t m ~delay:t.wire_latency_s
      else begin
        (* Execute under a device.exec span; per-stage events (gated
           behind the Stages verbosity) and the result hang off it.
           Untraced capsules build no attrs. *)
        let ctx = tr_on t m in
        let attrs =
          match ctx with None -> None | Some _ -> Some (exec_attrs t pkt)
        in
        let r, exec_ctx =
          Trace.with_span t.tracer ctx ?attrs "device.exec"
          @@ fun ec ->
          match ec with
          | Some c when Trace.stage_detail t.tracer ->
            ( Activermt.Runtime.run ~on_event:(stage_event t c)
                (Controller.tables t.controller) ~meta pkt,
              ec )
          | _ ->
            let r, mode = Activermt.Jit.run_info t.jit ~meta pkt in
            (match (mode, ec) with
            | Activermt.Jit.Compiled_fresh, Some c ->
              ignore
                (Trace.instant t.tracer c
                   ~attrs:[ sw_attr t; ("fid", string_of_int fid) ]
                   "jit.compile")
            | _ -> ());
            (r, ec)
        in
        let proc_s = t.pass_s *. float_of_int r.Activermt.Runtime.pipelines in
        (match exec_ctx with
        | None -> ()
        | Some c ->
          ignore
            (Trace.instant t.tracer c
               ~attrs:
                 [
                   sw_attr t;
                   ("decision", decision_string r.Activermt.Runtime.decision);
                   ("executed", string_of_int r.Activermt.Runtime.executed);
                   ("passes", string_of_int r.Activermt.Runtime.passes);
                   ( "pipelines",
                     string_of_int r.Activermt.Runtime.pipelines );
                 ]
               "device.result"));
        (* Downstream hops chain under the exec span when traced. *)
        let out_trace =
          match exec_ctx with Some c -> Some c | None -> m.trace
        in
        let out_payload =
          (* Results of execution (MBR_STORE) travel in the packet. *)
          Active
            {
              pkt with
              Activermt.Packet.payload =
                (match pkt.Activermt.Packet.payload with
                | Activermt.Packet.Exec { program; _ } ->
                  Activermt.Packet.Exec
                    { args = r.Activermt.Runtime.args_out; program }
                | other -> other);
            }
        in
        match r.Activermt.Runtime.decision with
        | Activermt.Runtime.Dropped _ ->
          t.drops <- t.drops + 1;
          Telemetry.bump t.c_dropped;
          (match exec_ctx with
          | None -> ()
          | Some c ->
            ignore
              (Trace.instant t.tracer c
                 ~attrs:
                   [
                     sw_attr t;
                     ( "reason",
                       decision_string r.Activermt.Runtime.decision );
                   ]
                 "device.drop"))
        | Activermt.Runtime.Return_to_sender ->
          deliver t
            { src = m.dst; dst = m.src; payload = out_payload; trace = out_trace }
            ~delay:(proc_s +. t.wire_latency_s)
        | Activermt.Runtime.Forward dst ->
          let dst = if dst = m.dst || dst = 0 then m.dst else dst in
          deliver t
            { src = m.src; dst; payload = out_payload; trace = out_trace }
            ~delay:(proc_s +. t.wire_latency_s)
      end)

let send t m =
  if lossy t m then begin
    tr_fault t m ~attrs:[ ("cause", "loss_rate") ] "fault.drop";
    count_lost t
  end
  else begin
    Telemetry.bump t.c_sent;
    Telemetry.bump (node_counters t m.src).tx;
    hop t m ~delay:t.wire_latency_s ~event:"sim.hop" (at_switch t)
  end

(* Head-based sampling happens exactly once, here, when a capsule enters
   the network — bridged or forwarded messages go through [send] and keep
   whatever decision was made at injection. *)
let inject ?(name = "capsule.inject") t m =
  let m =
    match (m.trace, m.payload) with
    | None, Active pkt when Trace.enabled t.tracer ->
      let kind =
        match pkt.Activermt.Packet.payload with
        | Activermt.Packet.Request _ -> "request"
        | Activermt.Packet.Response _ -> "response"
        | Activermt.Packet.Exec _ -> "exec"
        | Activermt.Packet.Bare -> "bare"
      in
      let attrs =
        [
          sw_attr t;
          ("fid", string_of_int pkt.Activermt.Packet.fid);
          ("seq", string_of_int pkt.Activermt.Packet.seq);
          ("kind", kind);
          ("src", string_of_int m.src);
          ("dst", string_of_int m.dst);
        ]
      in
      (match Trace.start_trace t.tracer ~attrs name with
      | None -> m
      | Some c -> { m with trace = Some c })
    | _ -> m
  in
  send t m

let stats_drops t = t.drops
let stats_lost t = t.lost
