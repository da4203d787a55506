open Import

type commit_mode = [ `Auto | `Interactive ]

type provision_phase =
  | Committed
  | Awaiting_extraction of { impacted : Activermt.Packet.fid list }

type provision = {
  fid : Activermt.Packet.fid;
  response : Activermt.Packet.t;
  reallocated : Activermt.Packet.fid list;
  phase : provision_phase;
  timing : Cost_model.breakdown;
}

type pending = {
  new_fid : Activermt.Packet.fid;
  mutable waiting : Activermt.Packet.fid list;
  mutable deadline_s : float;
}

type t = {
  device : Rmt.Device.t;
  tables : Activermt.Table.t;
  allocator : Allocator.t;
  cost : Cost_model.t;
  mode : commit_mode;
  extraction_timeout_s : float;
  shadows : int array array;
      (* per stage, the old words of the apps being relocated, at their
         original offsets; [||] until the stage's first relocation *)
  virtual_flags : (Activermt.Packet.fid, bool) Hashtbl.t;
  privileged : (Activermt.Packet.fid, unit) Hashtbl.t;
  pass_limits : (Activermt.Packet.fid, int) Hashtbl.t;
  mutable pending : pending option;
  mutable log : Cost_model.breakdown list;
  queue : (Activermt.Packet.t * Trace.ctx option) Queue.t;
  mutable epoch_counter : int;
  tel : Telemetry.t;
  series : Timeseries.t;
  tracer : Trace.t;
  admit_traces : (Activermt.Packet.fid, Trace.ctx) Hashtbl.t;
      (* the control.provision span that admitted each resident FID, so
         data-plane execution events can link back to it *)
}

let create ?scheme ?policy ?(cost = Cost_model.default) ?(mode = `Auto)
    ?(extraction_timeout_s = 1.0) ?(telemetry = Telemetry.default)
    ?(series = Timeseries.noop) ?(tracer = Trace.noop) device =
  {
    device;
    tables = Activermt.Table.create device;
    allocator =
      Allocator.create ?scheme ?policy ~telemetry ~series ~tracer
        (Rmt.Device.params device);
    cost;
    mode;
    extraction_timeout_s;
    tel = telemetry;
    series;
    tracer;
    admit_traces = Hashtbl.create 32;
    shadows = Array.make (Rmt.Device.params device).Rmt.Params.logical_stages [||];
    virtual_flags = Hashtbl.create 32;
    privileged = Hashtbl.create 8;
    pass_limits = Hashtbl.create 8;
    pending = None;
    log = [];
    queue = Queue.create ();
    epoch_counter = 0;
  }

let tables t = t.tables
let allocator t = t.allocator
let device t = t.device

let zero_regions t regions =
  Array.iteri
    (fun stage reg ->
      match reg with
      | None -> ()
      | Some { Activermt.Packet.start_word; n_words } ->
        let st = Rmt.Device.stage t.device stage in
        Rmt.Register_array.zero_range st.Rmt.Device.regs ~lo:start_word
          ~hi:(start_word + n_words - 1))
    regions

(* Install (or re-install) an app's tables for [regions].  The
   allocator's TCAM headroom estimate is conservative, so installation
   cannot fail; an error here is an internal invariant violation. *)
let install_regions t ~fid ~virtual_addressing regions =
  Activermt.Table.remove t.tables ~fid;
  match
    Activermt.Table.install t.tables ~fid ~virtual_addressing
      ~privileged:(Hashtbl.mem t.privileged fid)
      ?max_passes:(Hashtbl.find_opt t.pass_limits fid)
      ~regions
  with
  | Ok () -> ()
  | Error (`Tcam_capacity s) ->
    failwith (Printf.sprintf "Controller: TCAM overflow at stage %d" s)
  | Error `Already_installed -> assert false

(* Install (or re-install) an app's tables from the allocator's current
   placement. *)
let install_current t ~fid ~virtual_addressing =
  match Allocator.regions_response t.allocator ~fid with
  | None -> Activermt.Table.remove t.tables ~fid
  | Some regions -> install_regions t ~fid ~virtual_addressing regions

let virtual_of t fid =
  Option.value ~default:true (Hashtbl.find_opt t.virtual_flags fid)

let commit_app t ~fid =
  install_current t ~fid ~virtual_addressing:(virtual_of t fid);
  Activermt.Table.unquiesce t.tables ~fid

let commit_new_app t ~fid =
  (match Allocator.regions_response t.allocator ~fid with
  | None -> Activermt.Table.remove t.tables ~fid
  | Some regions ->
    install_regions t ~fid ~virtual_addressing:(virtual_of t fid) regions;
    zero_regions t regions);
  Activermt.Table.unquiesce t.tables ~fid

(* --- Register-state relocation (Section 4.3) ------------------------ *)

(* One reallocated app's move: its installed regions before the move and
   its new regions (read from the allocator once, for both the copy and
   the table install). *)
type move = {
  move_fid : Activermt.Packet.fid;
  prev : Activermt.Packet.region option array;
  next : Activermt.Packet.region option array option;
}

(* Words of an old region that relocation copies: the first min(old, new)
   when the stage's start word moves, none when it stays.  A stage that
   keeps its start word keeps its contents in place: no other app's
   install, zeroing or copy-back writes inside this app's new regions. *)
let moved_words (old : Activermt.Packet.region) = function
  | Some (n : Activermt.Packet.region)
    when n.Activermt.Packet.start_word <> old.Activermt.Packet.start_word ->
    min old.Activermt.Packet.n_words n.Activermt.Packet.n_words
  | Some _ | None -> 0

(* In [`Auto] mode, copy the words of [fid]'s installed regions that its
   new placement moves into the stage's shadow, at their own offsets: the
   old regions of the apps relocated together are disjoint, so one shadow
   per stage holds them all.  [`Interactive] clients re-inject their own
   state, so nothing is copied there.  Also returns the app's full region
   size in words: the paper snapshots the whole app, and the cost model
   charges for that. *)
let snapshot_move t fid =
  let next = Allocator.regions_response t.allocator ~fid in
  match Activermt.Table.regions_of t.tables ~fid with
  | None -> ({ move_fid = fid; prev = [||]; next }, 0)
  | Some prev ->
    let words = ref 0 in
    Array.iteri
      (fun stage reg ->
        match reg with
        | None -> ()
        | Some (old : Activermt.Packet.region) ->
          words := !words + old.Activermt.Packet.n_words;
          let len =
            match next with
            | Some next when t.mode = `Auto -> moved_words old next.(stage)
            | Some _ | None -> 0
          in
          if len > 0 then begin
            let regs = (Rmt.Device.stage t.device stage).Rmt.Device.regs in
            if Array.length t.shadows.(stage) = 0 then
              t.shadows.(stage) <- Array.make (Rmt.Register_array.words regs) 0;
            let pos = old.Activermt.Packet.start_word in
            Rmt.Register_array.copy regs To_buffer ~pos t.shadows.(stage) ~buf_pos:pos
              ~len
          end)
      prev;
    ({ move_fid = fid; prev; next }, !words)

(* Reinstall a moved app's tables from its new regions and, in [`Auto]
   mode, copy each moved stage's words back from the shadow. *)
let apply_move t m =
  let fid = m.move_fid in
  match m.next with
  | None -> Activermt.Table.remove t.tables ~fid
  | Some next ->
    install_regions t ~fid ~virtual_addressing:(virtual_of t fid) next;
    if t.mode = `Auto then
      Array.iteri
        (fun stage reg ->
          match reg with
          | None -> ()
          | Some (old : Activermt.Packet.region) ->
            let len = moved_words old next.(stage) in
            if len > 0 then
              Rmt.Register_array.copy
                (Rmt.Device.stage t.device stage).Rmt.Device.regs From_buffer
                ~pos:(Option.get next.(stage)).Activermt.Packet.start_word
                t.shadows.(stage) ~buf_pos:old.Activermt.Packet.start_word ~len)
        m.prev

(* The relocation path shared by admission, epoch drain and departure.
   Snapshots what moves for every app in [fids] (the [control.snapshot]
   span), then runs [commit reinstall] inside the [control.table_update]
   span, with the table update counters reset; [reinstall ()] moves every
   app in [fids] to its new regions, and [commit] adds the caller's other
   table work.  Returns the full-app snapshot word count and [commit]'s
   result. *)
let relocate ?trace t fids ~commit =
  let moves =
    Telemetry.with_span t.tel "control.snapshot" (fun () ->
        List.map (snapshot_move t) fids)
  in
  let words = List.fold_left (fun acc (_, w) -> acc + w) 0 moves in
  (match trace with
  | None -> ()
  | Some c ->
    ignore
      (Trace.instant t.tracer c
         ~attrs:[ ("words", string_of_int words) ]
         "control.snapshot"));
  Activermt.Table.reset_update_stats t.tables;
  Telemetry.span_begin t.tel "control.table_update";
  let result = commit (fun () -> List.iter (fun (m, _) -> apply_move t m) moves) in
  Telemetry.span_end t.tel (* control.table_update *);
  (words, result)

let response_packet t ~fid ~flags ~granted =
  let n = (Rmt.Device.params t.device).Rmt.Params.logical_stages in
  let regions =
    if granted then
      Option.value
        ~default:(Array.make n None)
        (Allocator.regions_response t.allocator ~fid)
    else Array.make n None
  in
  {
    Activermt.Packet.fid;
    seq = 0;
    flags;
    payload =
      Activermt.Packet.Response
        {
          status = (if granted then Activermt.Packet.Granted else Activermt.Packet.Rejected);
          regions;
        };
  }

(* Operator-facing policy knobs (Section 7.2): privilege is never taken
   from the packet, only from switch-side configuration. *)
let grant_privilege t ~fid =
  Hashtbl.replace t.privileged fid ();
  if Activermt.Table.installed t.tables ~fid then
    install_current t ~fid ~virtual_addressing:(virtual_of t fid)

let revoke_privilege t ~fid =
  Hashtbl.remove t.privileged fid;
  if Activermt.Table.installed t.tables ~fid then
    install_current t ~fid ~virtual_addressing:(virtual_of t fid)

let limit_recirculation t ~fid ~max_passes =
  if max_passes <= 0 then invalid_arg "Controller.limit_recirculation";
  Hashtbl.replace t.pass_limits fid max_passes;
  if Activermt.Table.installed t.tables ~fid then
    install_current t ~fid ~virtual_addressing:(virtual_of t fid)

let regions_packet t ~fid =
  if Allocator.is_resident t.allocator ~fid then
    Some
      (response_packet t ~fid
         ~flags:
           {
             Activermt.Packet.no_flags with
             virtual_addressing = virtual_of t fid;
           }
         ~granted:true)
  else None

let handle_request ?trace t (pkt : Activermt.Packet.t) =
  match pkt.Activermt.Packet.payload with
  | Activermt.Packet.Response _ | Activermt.Packet.Exec _ | Activermt.Packet.Bare ->
    Error (`Bad_packet "not an allocation request")
  | Activermt.Packet.Request _ when Allocator.is_resident t.allocator ~fid:pkt.Activermt.Packet.fid ->
    (* Idempotent re-request (dedup by FID): the response to an earlier
       request was lost in flight, or the request itself was duplicated
       by the network.  Answer from the existing allocation — never
       allocate twice for one FID.  Not charged to the provisioning log:
       no allocator or table work happened. *)
    let fid = pkt.Activermt.Packet.fid in
    Telemetry.incr t.tel "control.dup_requests";
    (match trace with
    | None -> ()
    | Some c ->
      ignore
        (Trace.instant t.tracer c
           ~attrs:[ ("fid", string_of_int fid) ]
           "control.dup_request"));
    Ok
      {
        fid;
        response =
          response_packet t ~fid ~flags:pkt.Activermt.Packet.flags ~granted:true;
        reallocated = [];
        phase = Committed;
        timing =
          Cost_model.breakdown t.cost ~allocation_s:0.0 ~entries_updated:0
            ~apps_touched:0 ~words_snapshotted:0 ~notifications:1;
      }
  | Activermt.Packet.Request req ->
    let fid = pkt.Activermt.Packet.fid in
    let flags = pkt.Activermt.Packet.flags in
    let spec = Spec.of_request req in
    let demand_blocks =
      Array.of_list
        (List.map
           (fun a -> max 1 a.Activermt.Packet.demand_blocks)
           req.Activermt.Packet.accesses)
    in
    let arrival =
      {
        Allocator.fid;
        spec;
        elastic = flags.Activermt.Packet.elastic;
        demand_blocks;
      }
    in
    Telemetry.span_begin t.tel "control.provision";
    Trace.with_span t.tracer trace
      ~attrs:[ ("fid", string_of_int fid) ]
      "control.provision"
    @@ fun tctx ->
    (match
       Telemetry.with_span t.tel "control.allocation" (fun () ->
           Allocator.admit ?trace:tctx t.allocator arrival)
     with
    | Allocator.Rejected r ->
      let timing =
        Cost_model.breakdown t.cost ~allocation_s:r.Allocator.compute_time_s
          ~entries_updated:0 ~apps_touched:0 ~words_snapshotted:0 ~notifications:1
      in
      t.log <- timing :: t.log;
      Telemetry.incr ~series:t.series t.tel "control.rejections";
      Telemetry.span_end t.tel (* control.provision *);
      Error (`Rejected r)
    | Allocator.Admitted adm ->
      Hashtbl.replace t.virtual_flags fid flags.Activermt.Packet.virtual_addressing;
      let realloc_fids = List.map fst adm.Allocator.reallocated in
      let words, phase =
        relocate ?trace:tctx t realloc_fids ~commit:(fun reinstall ->
            match (t.mode, realloc_fids) with
            | `Auto, _ | `Interactive, [] ->
              reinstall ();
              List.iter (fun f -> Activermt.Table.unquiesce t.tables ~fid:f) realloc_fids;
              commit_new_app t ~fid;
              Committed
            | `Interactive, impacted ->
              List.iter (fun f -> Activermt.Table.quiesce t.tables ~fid:f) impacted;
              Activermt.Table.quiesce t.tables ~fid;
              t.pending <-
                Some
                  { new_fid = fid; waiting = impacted; deadline_s = t.extraction_timeout_s };
              Awaiting_extraction { impacted })
      in
      Telemetry.incr ~series:t.series t.tel "control.provisions";
      let stats = Activermt.Table.update_stats t.tables in
      (* In interactive mode the table work happens at commit time, but we
         still charge it to this provisioning event: estimate entries from
         the reallocated set when deferred. *)
      let entries =
        match phase with
        | Committed ->
          stats.Activermt.Table.entries_added + stats.Activermt.Table.entries_removed
        | Awaiting_extraction _ ->
          let n = (Rmt.Device.params t.device).Rmt.Params.logical_stages in
          2 * (n + 3) * (List.length realloc_fids + 1)
      in
      let timing =
        Cost_model.breakdown t.cost ~allocation_s:adm.Allocator.compute_time_s
          ~entries_updated:entries
          ~apps_touched:(List.length realloc_fids + 1)
          ~words_snapshotted:words
          ~notifications:(List.length realloc_fids + 1)
      in
      t.log <- timing :: t.log;
      Telemetry.span_end t.tel (* control.provision *);
      (match tctx with
      | None -> ()
      | Some c ->
        ignore
          (Trace.instant t.tracer c
             ~attrs:
               [
                 ("entries", string_of_int entries);
                 ("reallocated", string_of_int (List.length realloc_fids));
               ]
             "control.table_update");
        Hashtbl.replace t.admit_traces fid c);
      Ok
        {
          fid;
          response = response_packet t ~fid ~flags ~granted:true;
          reallocated = realloc_fids;
          phase;
          timing;
        })

(* --- Async provision queue: enqueue + epoch drain ------------------- *)

type epoch_result = {
  epoch_index : int;
  results :
    (provision, [ `Rejected of Allocator.rejected | `Bad_packet of string ]) result
    list;
  epoch_timing : Cost_model.breakdown;
  installs : int;
  batch : Allocator.batch_stats option;
}

let enqueue_request ?trace t (pkt : Activermt.Packet.t) =
  Telemetry.incr t.tel "control.enqueued";
  let trace =
    match trace with
    | None -> None
    | Some c ->
      Some
        (Trace.instant t.tracer c
           ~attrs:[ ("fid", string_of_int pkt.Activermt.Packet.fid) ]
           "control.enqueue")
  in
  Queue.add (pkt, trace) t.queue

let queue_depth t = Queue.length t.queue

let dup_provision t ~fid ~flags =
  Telemetry.incr t.tel "control.dup_requests";
  {
    fid;
    response = response_packet t ~fid ~flags ~granted:true;
    reallocated = [];
    phase = Committed;
    timing =
      Cost_model.breakdown t.cost ~allocation_s:0.0 ~entries_updated:0
        ~apps_touched:0 ~words_snapshotted:0 ~notifications:1;
  }

let add_breakdown (a : Cost_model.breakdown) (b : Cost_model.breakdown) =
  {
    Cost_model.allocation_s = a.Cost_model.allocation_s +. b.Cost_model.allocation_s;
    table_update_s = a.Cost_model.table_update_s +. b.Cost_model.table_update_s;
    snapshot_s = a.Cost_model.snapshot_s +. b.Cost_model.snapshot_s;
    notify_s = a.Cost_model.notify_s +. b.Cost_model.notify_s;
  }

let zero_breakdown =
  {
    Cost_model.allocation_s = 0.0;
    table_update_s = 0.0;
    snapshot_s = 0.0;
    notify_s = 0.0;
  }

(* One admission epoch over up to [max_batch] queued requests (Auto mode):
   classify slots, score fresh arrivals together through
   [Allocator.admit_batch], then commit the whole epoch through a single
   batched table-write session — each touched app's tables are
   (re)installed exactly once, so [Table.epoch] bumps once per app per
   epoch and the JIT invalidates once, not k times. *)
let drain_epoch_auto t slots =
  let epoch_index = t.epoch_counter in
  t.epoch_counter <- epoch_index + 1;
  Telemetry.incr t.tel "control.epochs";
  Telemetry.span_begin t.tel "control.epoch";
  let ectx =
    Trace.start_trace t.tracer
      ~attrs:
        [
          ("epoch", string_of_int epoch_index);
          ("batch", string_of_int (List.length slots));
        ]
      "control.epoch"
  in
  let t_epoch_start = Trace.now t.tracer in
  (* Classify each slot in enqueue order.  Requests for FIDs already
     resident are network duplicates / client retries; a second request
     for the same FID within the epoch is an intra-epoch echo resolved
     from its primary's outcome.  Neither reaches the allocator. *)
  let seen = Hashtbl.create 16 in
  let arrivals_rev = ref [] in
  let n_arrivals = ref 0 in
  let classify (pkt, _tr) =
    match pkt.Activermt.Packet.payload with
    | Activermt.Packet.Response _ | Activermt.Packet.Exec _ | Activermt.Packet.Bare
      ->
      `Bad "not an allocation request"
    | Activermt.Packet.Request req -> (
      let fid = pkt.Activermt.Packet.fid in
      if Allocator.is_resident t.allocator ~fid then `Dup
      else
        match Hashtbl.find_opt seen fid with
        | Some i -> `Echo i
        | None ->
          let flags = pkt.Activermt.Packet.flags in
          let arrival =
            {
              Allocator.fid;
              spec = Spec.of_request req;
              elastic = flags.Activermt.Packet.elastic;
              demand_blocks =
                Array.of_list
                  (List.map
                     (fun a -> max 1 a.Activermt.Packet.demand_blocks)
                     req.Activermt.Packet.accesses);
            }
          in
          let i = !n_arrivals in
          Hashtbl.replace seen fid i;
          incr n_arrivals;
          arrivals_rev := arrival :: !arrivals_rev;
          `Fresh i)
  in
  let classes = List.map (fun s -> (s, classify s)) slots in
  let arrivals = List.rev !arrivals_rev in
  let batch =
    Telemetry.with_span t.tel "control.allocation" (fun () ->
        Allocator.admit_batch ?trace:ectx t.allocator arrivals)
  in
  let outcomes = Array.of_list batch.Allocator.outcomes in
  (* Record the virtual-addressing choice of every admitted arrival before
     any table install reads it. *)
  List.iter
    (fun ((pkt, _), cls) ->
      match cls with
      | `Fresh i -> (
        match outcomes.(i) with
        | Allocator.Admitted _ ->
          Hashtbl.replace t.virtual_flags pkt.Activermt.Packet.fid
            pkt.Activermt.Packet.flags.Activermt.Packet.virtual_addressing
        | Allocator.Rejected _ -> ())
      | `Bad _ | `Dup | `Echo _ -> ())
    classes;
  let realloc_fids = List.map fst batch.Allocator.batch_reallocated in
  let admitted_fids =
    List.filter_map
      (function
        | Allocator.Admitted adm -> Some adm.Allocator.fid
        | Allocator.Rejected _ -> None)
      batch.Allocator.outcomes
  in
  let words, () =
    relocate t realloc_fids ~commit:(fun reinstall ->
        reinstall ();
        List.iter (fun f -> Activermt.Table.unquiesce t.tables ~fid:f) realloc_fids;
        List.iter (fun f -> commit_new_app t ~fid:f) admitted_fids)
  in
  let stats = Activermt.Table.update_stats t.tables in
  let entries =
    stats.Activermt.Table.entries_added + stats.Activermt.Table.entries_removed
  in
  let installs = List.length realloc_fids + List.length admitted_fids in
  let epoch_timing =
    Cost_model.breakdown_batched t.cost
      ~allocation_s:batch.Allocator.stats.Allocator.batch_compute_time_s
      ~entries_updated:entries ~words_snapshotted:words ~notifications:installs
  in
  t.log <- epoch_timing :: t.log;
  Telemetry.incr ~series:t.series t.tel ~by:(List.length admitted_fids)
    "control.provisions";
  Telemetry.incr ~series:t.series t.tel
    ~by:batch.Allocator.stats.Allocator.batch_rejected
    "control.rejections";
  (match ectx with
  | None -> ()
  | Some c ->
    List.iter
      (fun fid ->
        let pctx =
          Trace.span t.tracer c
            ~attrs:[ ("fid", string_of_int fid) ]
            ~t_start:t_epoch_start ~t_end:(Trace.now t.tracer) "control.provision"
        in
        Hashtbl.replace t.admit_traces fid pctx)
      admitted_fids);
  let results =
    List.map
      (fun ((pkt, tr), cls) ->
        let fid = pkt.Activermt.Packet.fid in
        let flags = pkt.Activermt.Packet.flags in
        match cls with
        | `Bad msg -> Error (`Bad_packet msg)
        | `Dup ->
          (match tr with
          | None -> ()
          | Some c ->
            ignore
              (Trace.instant t.tracer c
                 ~attrs:[ ("fid", string_of_int fid) ]
                 "control.dup_request"));
          Ok (dup_provision t ~fid ~flags)
        | `Echo i -> (
          (* Intra-epoch duplicate: answer from the primary's outcome,
             never allocate twice. *)
          match outcomes.(i) with
          | Allocator.Rejected r -> Error (`Rejected r)
          | Allocator.Admitted _ -> Ok (dup_provision t ~fid ~flags))
        | `Fresh i -> (
          match outcomes.(i) with
          | Allocator.Rejected r -> Error (`Rejected r)
          | Allocator.Admitted adm ->
            Ok
              {
                fid;
                response = response_packet t ~fid ~flags ~granted:true;
                reallocated = List.map fst adm.Allocator.reallocated;
                phase = Committed;
                timing = epoch_timing;
              }))
      classes
  in
  Telemetry.span_end t.tel (* control.epoch *);
  { epoch_index; results; epoch_timing; installs; batch = Some batch.Allocator.stats }

(* Interactive mode defers commits behind client-side extraction, which is
   inherently per-admission — fall back to the sequential digest path. *)
let drain_epoch_interactive t slots =
  let epoch_index = t.epoch_counter in
  t.epoch_counter <- epoch_index + 1;
  Telemetry.incr t.tel "control.epochs";
  let results = List.map (fun (pkt, tr) -> handle_request ?trace:tr t pkt) slots in
  let epoch_timing =
    List.fold_left
      (fun acc r ->
        match r with
        | Ok p -> add_breakdown acc p.timing
        | Error (`Rejected (r : Allocator.rejected)) ->
          add_breakdown acc
            (Cost_model.breakdown t.cost ~allocation_s:r.Allocator.compute_time_s
               ~entries_updated:0 ~apps_touched:0 ~words_snapshotted:0
               ~notifications:1)
        | Error (`Bad_packet _) -> acc)
      zero_breakdown results
  in
  let installs =
    List.fold_left
      (fun acc r ->
        match r with
        | Ok p -> acc + 1 + List.length p.reallocated
        | Error _ -> acc)
      0 results
  in
  { epoch_index; results; epoch_timing; installs; batch = None }

let drain ?(max_batch = 64) t =
  if max_batch <= 0 then invalid_arg "Controller.drain: max_batch must be positive";
  Timeseries.observe t.series "control.queue_depth" (float_of_int (Queue.length t.queue));
  let epochs = ref [] in
  while not (Queue.is_empty t.queue) do
    let slots = ref [] in
    let n = ref 0 in
    while (not (Queue.is_empty t.queue)) && !n < max_batch do
      slots := Queue.pop t.queue :: !slots;
      incr n
    done;
    let slots = List.rev !slots in
    let epoch =
      match t.mode with
      | `Auto -> drain_epoch_auto t slots
      | `Interactive -> drain_epoch_interactive t slots
    in
    epochs := epoch :: !epochs
  done;
  List.rev !epochs

let finish_pending_if_done t =
  match t.pending with
  | Some p when p.waiting = [] ->
    commit_new_app t ~fid:p.new_fid;
    t.pending <- None
  | Some _ | None -> ()

let handle_departure ?trace t ~fid =
  Trace.with_span t.tracer trace
    ~attrs:[ ("fid", string_of_int fid) ]
    "control.departure"
  @@ fun tctx ->
  Activermt.Table.remove t.tables ~fid;
  Hashtbl.remove t.admit_traces fid;
  (* A service departing mid-extraction no longer blocks the pending
     admission. *)
  (match t.pending with
  | Some p when List.mem fid p.waiting ->
    p.waiting <- List.filter (fun f -> f <> fid) p.waiting;
    finish_pending_if_done t
  | Some _ | None -> ());
  Telemetry.incr t.tel "control.departures";
  let t0 = Unix.gettimeofday () in
  let expanded =
    Telemetry.with_span t.tel "control.allocation" (fun () ->
        Allocator.depart ?trace:tctx t.allocator ~fid)
  in
  let alloc_s = Unix.gettimeofday () -. t0 in
  let expanded_fids = List.map fst expanded in
  let words, () = relocate t expanded_fids ~commit:(fun reinstall -> reinstall ()) in
  let stats = Activermt.Table.update_stats t.tables in
  let timing =
    Cost_model.breakdown t.cost ~allocation_s:alloc_s
      ~entries_updated:(stats.Activermt.Table.entries_added + stats.Activermt.Table.entries_removed)
      ~apps_touched:(List.length expanded_fids + 1)
      ~words_snapshotted:words
      ~notifications:(List.length expanded_fids)
  in
  t.log <- timing :: t.log;
  (timing, expanded_fids)

let complete_extraction t ~fid =
  match t.pending with
  | None -> ()
  | Some p ->
    if List.mem fid p.waiting then begin
      p.waiting <- List.filter (fun f -> f <> fid) p.waiting;
      commit_app t ~fid;
      finish_pending_if_done t
    end

let pending_extraction t =
  match t.pending with None -> [] | Some p -> p.waiting

let expire t ~elapsed_s =
  match t.pending with
  | None -> ()
  | Some p ->
    p.deadline_s <- p.deadline_s -. elapsed_s;
    if p.deadline_s <= 0.0 then begin
      List.iter (fun f -> commit_app t ~fid:f) p.waiting;
      p.waiting <- [];
      finish_pending_if_done t
    end

let read_region t ~fid ~stage =
  match Activermt.Table.regions_of t.tables ~fid with
  | None -> None
  | Some regions -> (
    match regions.(stage) with
    | None -> None
    | Some { Activermt.Packet.start_word; n_words } ->
      let out = Array.make n_words 0 in
      Rmt.Register_array.copy (Rmt.Device.stage t.device stage).Rmt.Device.regs
        To_buffer ~pos:start_word out ~buf_pos:0 ~len:n_words;
      Some out)

let write_region_word t ~fid ~stage ~index ~value =
  match Activermt.Table.regions_of t.tables ~fid with
  | None -> false
  | Some regions -> (
    match regions.(stage) with
    | None -> false
    | Some { Activermt.Packet.start_word; n_words } ->
      if index < 0 || index >= n_words then false
      else begin
        let st = Rmt.Device.stage t.device stage in
        Rmt.Register_array.set st.Rmt.Device.regs (start_word + index) value;
        true
      end)

let provision_log t = List.rev t.log
let tracer t = t.tracer
let admit_trace t ~fid = Hashtbl.find_opt t.admit_traces fid
