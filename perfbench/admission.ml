(* admit_churn and admit_fill: the admission path end to end.

   Requests enter through the tenant layer ([Vswitch.submit]), wait in
   per-tenant queues, are batched by weighted round robin into controller
   epochs ([Vswitch.drain] -> [Controller.drain] -> [Allocator.admit_batch])
   and leave through [Vswitch.depart].  No capsule crosses the fabric, so
   every host cycle measured here is tenant, controller or allocator work.

   admit_churn: 8 equal-weight tenants replay [Churn.zipf_churn] over the
     five extended kinds (batch 64, resident target 64) against the
     default most-constrained worst-fit policy.  A step is one churn
     epoch: submit its arrivals, drain, then release its departures.
     Each departure snapshots and reinstalls every elastic app that grows
     into the freed space, so controller work per departure dominates.

   admit_fill: rounds from an empty switch under the least-constrained
     policy (the largest mutant spaces).  8 tenants, one offering 10x the
     arrivals of each other, and no departures; each step submits one
     128-arrival batch and drains.  Search, rejection, WRR deferral and
     preemption with memsync relocation do the work.

   Host-time metrics are medians over steps.  Simulated metrics, ratios,
   counts and minor words come from the first steps of the run, which
   every run completes, so they are identical for a given seed. *)

open Common
module Telemetry = Activermt_telemetry.Telemetry
module Controller = Activermt_control.Controller
module Allocator = Activermt_alloc.Allocator
module Vswitch = Activermt_tenant.Vswitch
module Tenant = Activermt_tenant.Tenant
module Churn = Workload.Churn
module Table = Activermt.Table
module Prng = Stdx.Prng

type workload = Admit_churn | Admit_fill

let params = Rmt.Params.default
let n_tenants = 8

(* admit_fill round shape: [fill_steps] batches of [fill_batch]. *)
let fill_batch = 128
let fill_steps = 4

let det_steps = function Admit_churn -> 100 | Admit_fill -> 60

(* Span histograms the program records, read as deltas around each call
   of a traced step. *)
let program_spans =
  [|
    "control.epoch";
    "control.allocation";
    "control.snapshot";
    "control.table_update";
    "alloc.admit_batch";
    "alloc.score";
    "alloc.fill";
    "alloc.snapshot";
    "alloc.depart";
  |]

let sp_epoch = 0
let sp_allocation = 1
let sp_snapshot = 2
let sp_table_update = 3
let sp_admit_batch = 4
let sp_score = 5
let sp_fill = 6
let sp_depart = 8

type stack = {
  tel : Telemetry.t;
  ctrl : Controller.t;
  vs : Vswitch.t;
  registry : Tenant.t;
  trace : Churn.epoch Seq.t ref;
  mutable submitted : int list;
  mutable undecided : int list;
}

let policy = function
  | Admit_churn -> Activermt_compiler.Mutant.Most_constrained
  | Admit_fill -> Activermt_compiler.Mutant.Least_constrained

let zipf_config = function
  | Admit_churn ->
    {
      Churn.default_zipf_config with
      Churn.clients = max_int / 2;
      batch = 64;
      resident_target = 64;
      tenant_weights = Array.make n_tenants 1;
    }
  | Admit_fill ->
    {
      Churn.default_zipf_config with
      Churn.clients = fill_batch * fill_steps;
      batch = fill_batch;
      resident_target = max_int;
      tenant_weights = Array.init n_tenants (fun i -> if i = 0 then 10 else 1);
    }

let build wl ~seed =
  let tel = Telemetry.create ~now:now_s () in
  let ctrl = Controller.create ~policy:(policy wl) ~telemetry:tel (Rmt.Device.create params) in
  let registry = Tenant.create ~telemetry:tel () in
  for id = 0 to n_tenants - 1 do
    ignore (Tenant.register registry id)
  done;
  let vs = Vswitch.create ~telemetry:tel ~registry ctrl in
  let trace = ref (Churn.zipf_churn (zipf_config wl) (Prng.create ~seed)) in
  { tel; ctrl; vs; registry; trace; submitted = []; undecided = [] }

let next_epoch st =
  match !(st.trace) () with
  | Seq.Nil -> None
  | Seq.Cons (e, rest) ->
    st.trace := rest;
    Some e

(* The outside audit, run after every step: the allocator's regions
   equal the installed table regions, no two residents overlap on any
   stage, and every submitted FID is in exactly one vswitch state
   consistent with residency. *)
let audit st checks =
  let alloc = Controller.allocator st.ctrl in
  let tables = Controller.tables st.ctrl in
  let wpb = Rmt.Params.words_per_block params in
  let resident = Allocator.resident alloc in
  let by_stage = Array.make params.Rmt.Params.logical_stages [] in
  List.iter
    (fun fid ->
      let expect = Array.make params.Rmt.Params.logical_stages None in
      (match Allocator.regions_of alloc ~fid with
      | None -> ()
      | Some ranges ->
        List.iter
          (fun { Allocator.stage; range } ->
            let r =
              {
                Activermt.Packet.start_word = range.Activermt_alloc.Pool.first_block * wpb;
                n_words = range.Activermt_alloc.Pool.n_blocks * wpb;
              }
            in
            expect.(stage) <- Some r;
            by_stage.(stage) <- (r.Activermt.Packet.start_word, r.Activermt.Packet.n_words, fid) :: by_stage.(stage))
          ranges);
      match Table.regions_of tables ~fid with
      | Some got when got = expect -> Checks.ok checks
      | Some _ | None ->
        Checks.fail checks (Printf.sprintf "fid %d: table regions differ from the allocator's" fid))
    resident;
  Array.iteri
    (fun stage regions ->
      let sorted = List.sort compare regions in
      let rec disjoint = function
        | (s1, n1, f1) :: ((s2, _, f2) :: _ as rest) ->
          if s1 + n1 > s2 then
            Checks.fail checks
              (Printf.sprintf "stage %d: fids %d and %d overlap" stage f1 f2)
          else disjoint rest
        | [ _ ] | [] -> Checks.ok checks
      in
      disjoint sorted)
    by_stage;
  let parked = Vswitch.parked st.vs in
  let granted = ref 0 in
  List.iter
    (fun fid ->
      let is_res = Allocator.is_resident alloc ~fid in
      let installed = Table.installed tables ~fid in
      let ok =
        match Vswitch.decision_of st.vs ~fid with
        | None -> false
        | Some Vswitch.Granted ->
          incr granted;
          is_res && installed
        | Some Vswitch.Evicted -> (not is_res) && List.mem fid parked
        | Some (Vswitch.Queued | Vswitch.Denied _ | Vswitch.Departed) ->
          (not is_res) && not (List.mem fid parked)
      in
      if ok then Checks.ok checks
      else Checks.fail checks (Printf.sprintf "fid %d: vswitch state disagrees with residency" fid))
    st.submitted;
  Checks.check checks (!granted = List.length resident) "%d granted FIDs but %d residents" !granted
    (List.length resident)

(* One step's measurements. *)
type step = {
  wall_ns : int;
  words : float;
  offered : int;
  decided : int;
  submit_ns : int;
  drain_ns : int;
  depart_ns : int;
  n_depart : int;
  (* Program span deltas (seconds) within drain and within departures. *)
  drain_spans : float array;
  depart_spans : float array;
  drain_counts : int array;
  depart_counts : int array;
}

let read_spans tel =
  let sums = Array.make (Array.length program_spans) 0.0 in
  let counts = Array.make (Array.length program_spans) 0 in
  Array.iteri
    (fun i n ->
      let s, c = span_sum tel n in
      sums.(i) <- s;
      counts.(i) <- c)
    program_spans;
  (sums, counts)

let diff (a, ac) (b, bc) = (Array.map2 ( -. ) b a, Array.map2 ( - ) bc ac)

(* Drain until every queue is empty.  [Vswitch.drain] returns once only
   deferred requests remain; each further call ages them by one epoch
   until they are admitted or reach the deferral limit and are denied. *)
let flush st checks =
  let calls = ref 0 in
  while Vswitch.pending st.vs > 0 && !calls < 10_000 do
    ignore (Vswitch.drain st.vs);
    incr calls
  done;
  Checks.check checks (Vswitch.pending st.vs = 0) "%d requests still queued after %d drains"
    (Vswitch.pending st.vs) !calls

(* Count the FIDs that got their first decision (grant or denial) since
   the last call; the rest stay pending. *)
let newly_decided st =
  let still, n =
    List.fold_left
      (fun (still, n) fid ->
        match Vswitch.decision_of st.vs ~fid with
        | Some (Vswitch.Granted | Vswitch.Denied _) -> (still, n + 1)
        | Some (Vswitch.Queued | Vswitch.Evicted | Vswitch.Departed) | None -> (fid :: still, n))
      ([], 0) st.undecided
  in
  st.undecided <- still;
  n

(* One step: for each batch, submit its arrivals and drain; with
   [flush], drain until the queues are empty; then release the batches'
   departures.  Calls are timed by phase; a traced step also reads the
   program's span histograms around the drain and departure phases. *)
let run_step st checks ~traced ~flush:do_flush (batches : Churn.epoch list) =
  let events = List.concat_map (fun e -> e.Churn.events) batches in
  let is_arrival = function Churn.Arrive _ -> true | Churn.Depart _ -> false in
  let arrivals = List.filter is_arrival events in
  let departs = List.filter (fun e -> not (is_arrival e)) events in
  let submit_ns = ref 0 and drain_ns = ref 0 in
  let drain_spans = Array.make (Array.length program_spans) 0.0 in
  let drain_counts = Array.make (Array.length program_spans) 0 in
  let timed_drain f =
    let before = if traced then Some (read_spans st.tel) else None in
    let t0 = now_ns () in
    f ();
    drain_ns := !drain_ns + (now_ns () - t0);
    match before with
    | None -> ()
    | Some before ->
      let d, c = diff before (read_spans st.tel) in
      Array.iteri (fun k v -> drain_spans.(k) <- drain_spans.(k) +. v) d;
      Array.iteri (fun k v -> drain_counts.(k) <- drain_counts.(k) + v) c
  in
  let w0 = minor_words () in
  let t0 = now_ns () in
  List.iter
    (fun (e : Churn.epoch) ->
      let s0 = now_ns () in
      List.iter
        (function
          | Churn.Arrive { fid; kind; tenant } ->
            Vswitch.submit st.vs ~tenant:(Option.value tenant ~default:0) ~fid
              (Experiments.Harness.app_of_kind kind)
          | Churn.Depart _ -> ())
        e.Churn.events;
      submit_ns := !submit_ns + (now_ns () - s0);
      timed_drain (fun () -> ignore (Vswitch.drain st.vs)))
    batches;
  if do_flush then timed_drain (fun () -> flush st checks);
  let t_mid = now_ns () in
  let w_mid = minor_words () in
  (* Bookkeeping between the phases stays out of the step's time. *)
  List.iter
    (function
      | Churn.Arrive { fid; _ } ->
        st.submitted <- fid :: st.submitted;
        st.undecided <- fid :: st.undecided
      | Churn.Depart _ -> ())
    arrivals;
  let decided = newly_decided st in
  let before_depart = if traced then read_spans st.tel else ([||], [||]) in
  let w_d0 = minor_words () in
  let d0 = now_ns () in
  List.iter
    (function Churn.Depart { fid } -> ignore (Vswitch.depart st.vs ~fid) | Churn.Arrive _ -> ())
    departs;
  let t1 = now_ns () in
  let w1 = minor_words () in
  let depart_spans, depart_counts =
    if traced then diff before_depart (read_spans st.tel) else ([||], [||])
  in
  {
    wall_ns = t_mid - t0 + (t1 - d0);
    words = w_mid -. w0 +. (w1 -. w_d0);
    offered = List.length arrivals;
    decided;
    submit_ns = !submit_ns;
    drain_ns = !drain_ns;
    depart_ns = t1 - d0;
    n_depart = List.length departs;
    drain_spans;
    depart_spans;
    drain_counts;
    depart_counts;
  }

(* Weighted fair-share Jain index of blocks held by each tenant. *)
let jain st =
  let capacity = Allocator.total_blocks (Controller.allocator st.ctrl) in
  Stdx.Stats.jain_fairness
    (List.map
       (fun info ->
         let id = info.Tenant.id in
         float_of_int (Tenant.usage st.registry id).Tenant.blocks
         /. Tenant.fair_blocks st.registry ~tenant:id ~capacity)
       (Tenant.tenants st.registry))

let name = function Admit_churn -> "admit_churn" | Admit_fill -> "admit_fill"

(* Decided arrivals per host second, per step and in total. *)
type rates = { per_step : Samples.t; mutable ops : int; mutable ns : int }

let new_rates () = { per_step = Samples.create (); ops = 0; ns = 0 }

let add_rate r s =
  Samples.add r.per_step (float_of_int s.decided /. (float_of_int s.wall_ns *. 1e-9));
  r.ops <- r.ops + s.decided;
  r.ns <- r.ns + s.wall_ns

(* A churn epoch carries about the same work as the next, so the top
   decile of step rates measures the path in the run's quiet moments.
   A fill round's work depends on its arrival order (9 to 233 evictions
   per round, up to 4x in time), so the top decile would pick the
   cheapest rounds; there the rate is total over total. *)
let rate_of wl r =
  match wl with
  | Admit_churn -> top_decile (Samples.to_array r.per_step)
  | Admit_fill -> float_of_int r.ops /. (float_of_int (max 1 r.ns) *. 1e-9)

let run wl (cfg : config) =
  let checks = Checks.create () in
  let round = ref 0 in
  let round_seed r = cfg.seed + (1_000_003 * r) in
  (* Set-up builds the stack: device, controller, tenants, vswitch and
     the arrival generator.  The first instance is the one measured. *)
  let setup = Setup.create ~seconds:cfg.seconds in
  let st = ref (Setup.time setup (fun () -> build wl ~seed:(round_seed 0))) in
  (* admit_churn's first two epochs take the switch from empty to
     steady-state residency; they are not measured. *)
  if wl = Admit_churn then
    for _ = 1 to 2 do
      ignore (run_step !st checks ~traced:false ~flush:false [ Option.get (next_epoch !st) ])
    done;
  audit !st checks;
  (* A step: one churn epoch, or one whole admit_fill round on a fresh
     switch (its stack is built outside the step's timing). *)
  let next_step idx =
    match wl with
    | Admit_churn -> [ Option.get (next_epoch !st) ]
    | Admit_fill ->
      if idx > 0 then begin
        incr round;
        st := build wl ~seed:(round_seed !round)
      end;
      List.of_seq !(!st.trace)
  in
  let calib_start = calibrate () in
  let deadline = now_ns () + int_of_float (cfg.seconds *. 1e9) in
  let n_det = det_steps wl in
  let step_ms = Samples.create () in
  let rates = new_rates () and traced_rates = new_rates () in
  let step_words = Samples.create () in
  let det_words = ref 0.0 and det_offered = ref 0 and det_decided = ref 0 in
  let util = Samples.create () and jains = Samples.create () in
  let tts = Samples.create () in
  let counter_names =
    [|
      "tenant.evictions";
      "tenant.deferrals";
      "tenant.memsync.words_moved";
      "control.departures";
      "tenant.granted";
      "tenant.relocations";
      "alloc.rejected";
      "alloc.batch.arrivals";
    |]
  in
  (* Counter totals over the deterministic steps. *)
  let det_totals = Array.make (Array.length counter_names) 0 in
  let read_counters st = Array.map (counter st.tel) counter_names in
  (* Sums over traced steps. *)
  let n_traced = ref 0 in
  let l_submit = ref 0 and l_nsubmit = ref 0 and l_drain = ref 0 and l_depart = ref 0 in
  let l_ndepart = ref 0 and l_wall = ref 0 in
  let l_drain_sp = Array.make (Array.length program_spans) 0.0 in
  let l_depart_sp = Array.make (Array.length program_spans) 0.0 in
  let spans = Spans.create () in
  let id_step = Spans.intern spans "step" in
  let id_submit = Spans.intern spans "tenant.submit" in
  let id_drain = Spans.intern spans "tenant.drain" in
  let id_depart = Spans.intern spans "tenant.depart" in
  let id_prog = Array.map (Spans.intern spans) program_spans in
  let i = ref 0 in
  while !i < n_det || now_ns () < deadline do
    let idx = !i in
    let batches = next_step idx in
    (* A traced run alternates plain and instrumented steps; the gap
       between their medians is the tracing overhead. *)
    let traced = cfg.trace && idx land 1 = 1 in
    let c0 = read_counters !st in
    let s0 = now_ns () in
    let s = run_step !st checks ~traced ~flush:(wl = Admit_fill) batches in
    let s1 = now_ns () in
    if not traced then Samples.add step_ms (float_of_int s.wall_ns *. 1e-6);
    add_rate (if traced then traced_rates else rates) s;
    if idx < n_det then begin
      Array.iteri (fun k c -> det_totals.(k) <- det_totals.(k) + c - c0.(k)) (read_counters !st);
      det_words := !det_words +. s.words;
      if s.decided > 0 then Samples.add step_words (s.words /. float_of_int s.decided);
      det_offered := !det_offered + s.offered;
      det_decided := !det_decided + s.decided;
      Samples.add util (Allocator.utilization (Controller.allocator !st.ctrl));
      Samples.add jains (jain !st);
      (* Time-to-service of every grant: per admit_fill round, and over
         the whole deterministic prefix for the single churn stack. *)
      if wl = Admit_fill || idx = n_det - 1 then
        List.iter (fun (_, _, l) -> Samples.add tts (l *. 1e6)) (Vswitch.admission_latencies !st.vs)
    end;
    if traced then begin
      incr n_traced;
      l_submit := !l_submit + s.submit_ns;
      l_nsubmit := !l_nsubmit + s.offered;
      l_drain := !l_drain + s.drain_ns;
      l_depart := !l_depart + s.depart_ns;
      l_ndepart := !l_ndepart + s.n_depart;
      l_wall := !l_wall + s.wall_ns;
      Array.iteri (fun k v -> l_drain_sp.(k) <- l_drain_sp.(k) +. v) s.drain_spans;
      Array.iteri (fun k v -> l_depart_sp.(k) <- l_depart_sp.(k) +. v) s.depart_spans;
      (* Phase spans are laid out in call order from the step's start;
         program spans are aggregates under the phase that ran them. *)
      let step_id = Spans.add spans ~name:id_step ~key:idx ~parent:0 ~start:s0 ~stop:s1 in
      let child name ~start ~ns ~count =
        Spans.add spans ~count ~name ~key:idx ~parent:step_id ~start ~stop:(start + ns)
      in
      ignore (child id_submit ~start:s0 ~ns:s.submit_ns ~count:s.offered);
      let dr_start = s0 + s.submit_ns in
      let dr = child id_drain ~start:dr_start ~ns:s.drain_ns ~count:1 in
      let de_start = s1 - s.depart_ns in
      let de = child id_depart ~start:de_start ~ns:s.depart_ns ~count:s.n_depart in
      let aggregate parent start sums counts =
        Array.iteri
          (fun k sum ->
            if counts.(k) > 0 then
              ignore
                (Spans.add spans ~count:counts.(k) ~name:id_prog.(k) ~key:idx ~parent ~start
                   ~stop:(start + int_of_float (sum *. 1e9))))
          sums
      in
      aggregate dr dr_start s.drain_spans s.drain_counts;
      aggregate de de_start s.depart_spans s.depart_counts
    end;
    audit !st checks;
    Setup.maybe setup (fun () -> build wl ~seed:(round_seed 0));
    incr i
  done;
  let calib_end = calibrate () in
  let total n =
    let k = ref (-1) in
    Array.iteri (fun i m -> if m = n then k := i) counter_names;
    det_totals.(!k)
  in
  let steps = Samples.to_array step_ms in
  let rate = rate_of wl rates in
  let words = median (Samples.to_array step_words) in
  let granted = total "tenant.granted" - total "tenant.relocations" in
  let admit_ratio = float_of_int granted /. float_of_int (max 1 !det_offered) in
  let tts_a = Samples.to_array tts in
  let tts_p99 = percentile tts_a 99.0 in
  let utilization = mean (Samples.to_array util) in
  let tenant_jain = mean (Samples.to_array jains) in
  let e2e =
    [
      ("setup_s", Setup.median setup);
      ("op_rate", rate);
      ("op_words", words);
      ("served_ratio", admit_ratio);
      ("utilization", utilization);
    ]
  in
  let nt = float_of_int (max 1 !n_traced) in
  let per_step_ms x = x *. 1e3 /. nt in
  let ms_of_ns n = float_of_int n *. 1e-6 /. nt in
  let drain_ms = ms_of_ns !l_drain in
  let epoch_ms = per_step_ms l_drain_sp.(sp_epoch) in
  let depart_ctl =
    per_step_ms
      (l_depart_sp.(sp_allocation) +. l_depart_sp.(sp_snapshot) +. l_depart_sp.(sp_table_update))
  in
  let depart_ms = ms_of_ns !l_depart in
  let wall_ms = ms_of_ns !l_wall in
  (* The flat ledger of a traced step: submit, control.epoch, tenant self
     time in drain, controller time of departures, vswitch self time of
     departures.  Its sum equals submit + drain + depart by construction;
     the residual is the traced step's wall time outside those calls. *)
  let ledger = ms_of_ns !l_submit +. epoch_ms +. (drain_ms -. epoch_ms) +. depart_ctl +. (depart_ms -. depart_ctl) in
  let both k = per_step_ms (l_drain_sp.(k) +. l_depart_sp.(k)) in
  let rejected = total "alloc.rejected" and scored = total "alloc.batch.arrivals" in
  let grants = total "tenant.granted" in
  let traced_rate = rate_of wl traced_rates in
  let layers =
    [
      ("tenant.submit_us", if !l_nsubmit = 0 then 0.0 else float_of_int !l_submit *. 1e-3 /. float_of_int !l_nsubmit);
      ("tenant.depart_us", if !l_ndepart = 0 then 0.0 else float_of_int !l_depart *. 1e-3 /. float_of_int !l_ndepart);
      ("tenant.drain_ms", drain_ms);
      ("tenant.self_ms", drain_ms -. epoch_ms);
      ("tenant.depart_self_ms", depart_ms -. depart_ctl);
      ("control.epoch_ms", epoch_ms);
      ("control.allocation_ms", both sp_allocation);
      ("control.snapshot_ms", both sp_snapshot);
      ("control.table_update_ms", both sp_table_update);
      ("control.depart_ms", depart_ctl);
      ("alloc.admit_batch_ms", both sp_admit_batch);
      ("alloc.score_ms", both sp_score);
      ("alloc.fill_ms", both sp_fill);
      ("alloc.depart_ms", both sp_depart);
      ("tenant.evictions", float_of_int (total "tenant.evictions"));
      ("tenant.deferrals", float_of_int (total "tenant.deferrals"));
      ("tenant.memsync_words", float_of_int (total "tenant.memsync.words_moved"));
      ("control.departures", float_of_int (total "control.departures"));
      ("tenant.evictions_per_grant", if grants = 0 then 0.0 else float_of_int (total "tenant.evictions") /. float_of_int grants);
      ("alloc.reject_ratio", if scored = 0 then 0.0 else float_of_int rejected /. float_of_int scored);
      ("tenant_jain", tenant_jain);
      ("tts_p99_ms", tts_p99 *. 1e-3);
      ("admission.traced_ms", wall_ms);
      ("trace.overhead_pct", if rate = 0.0 then 0.0 else 100.0 *. (rate -. traced_rate) /. rate);
      ("ledger.residual_pct", if wall_ms = 0.0 then 0.0 else 100.0 *. (wall_ms -. ledger) /. wall_ms);
      ("calib.alu_ms", Float.min calib_start calib_end);
    ]
  in
  let deterministic =
    [
      ("offered", string_of_int !det_offered);
      ("decided", string_of_int !det_decided);
      ("granted", string_of_int granted);
      ("words", Printf.sprintf "%.0f" !det_words);
      ("utilization", Printf.sprintf "%.9f" utilization);
      ("tts_p99_us", Printf.sprintf "%.6f" tts_p99);
      ("tenant_jain", Printf.sprintf "%.9f" tenant_jain);
    ]
    @ Array.to_list (Array.map (fun n -> (n, string_of_int (total n))) counter_names)
  in
  let report =
    [
      Printf.sprintf "%s: %d steps (first %d deterministic), %d rounds" (name wl) !i n_det (!round + 1);
      Printf.sprintf "  admit_rate          %12.1f decided arrivals/s (host, %s of %d steps)" rate
        (match wl with Admit_churn -> "top decile" | Admit_fill -> "total over total")
        (Samples.length rates.per_step);
      Printf.sprintf "  epoch_p50_ms        %12.3f ms (host)" (median steps);
      Printf.sprintf "  epoch_p90_ms        %12.3f ms (host)" (percentile steps 90.0);
      Printf.sprintf "  admit_words         %12.1f minor words/decided arrival (median of %d steps)" words
        (Samples.length step_words);
      Printf.sprintf "  admit_ratio         %12.4f granted/offered (%d offered)" admit_ratio !det_offered;
      Printf.sprintf "  utilization         %12.4f mean register-memory utilization" utilization;
      Printf.sprintf "  tts_p99_ms          %12.4f ms simulated time-to-service (%d grants)" (tts_p99 *. 1e-3)
        (Array.length tts_a);
      Printf.sprintf "  tenant_jain         %12.4f (blocks held / weighted fair share)" tenant_jain;
      Printf.sprintf "  calibration         %.1f ms at start, %.1f ms at end (fixed ALU loop)" calib_start
        calib_end;
    ]
  in
  if cfg.trace then Spans.write spans (name wl);
  {
    attempted = checks.Checks.attempted;
    failed = checks.Checks.failed;
    e2e;
    layers;
    deterministic;
    report = report @ List.rev_map (fun n -> "  FAIL " ^ n) checks.Checks.notes;
  }
