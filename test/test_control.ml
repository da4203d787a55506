(* Tests for the switch controller: admission, table installation,
   consistent snapshots, auto/interactive reallocation protocols, the
   timeout path and the cost model. *)

module Controller = Activermt_control.Controller
module Cost_model = Activermt_control.Cost_model
module Negotiate = Activermt_client.Negotiate
module Pkt = Activermt.Packet

let params = Rmt.Params.default

let fresh ?mode ?extraction_timeout_s () =
  let device = Rmt.Device.create params in
  (device, Controller.create ?mode ?extraction_timeout_s device)

let request fid app = Negotiate.request_packet ~fid ~seq:0 app

let admit_exn ctl fid app =
  match Controller.handle_request ctl (request fid app) with
  | Ok p -> p
  | Error (`Rejected _) -> Alcotest.fail "rejected"
  | Error (`Bad_packet e) -> Alcotest.fail e

let cache = Activermt_apps.Cache.service
let hh = Activermt_apps.Heavy_hitter.service

let test_admission_installs_tables () =
  let _, ctl = fresh () in
  let p = admit_exn ctl 1 cache in
  Alcotest.(check bool) "committed" true (p.Controller.phase = Controller.Committed);
  Alcotest.(check bool) "tables installed" true
    (Activermt.Table.installed (Controller.tables ctl) ~fid:1);
  match Negotiate.granted_regions p.Controller.response with
  | Some regions ->
    Alcotest.(check int) "three allocated stages" 3
      (Array.fold_left (fun n r -> if r <> None then n + 1 else n) 0 regions)
  | None -> Alcotest.fail "granted response"

let test_bad_packet () =
  let _, ctl = fresh () in
  let pkt = Pkt.exec ~fid:1 ~seq:0 ~args:[||] Activermt_apps.Cache.query_program in
  match Controller.handle_request ctl pkt with
  | Error (`Bad_packet _) -> ()
  | _ -> Alcotest.fail "expected bad-packet error"

let test_rejection () =
  let _, ctl = fresh () in
  for fid = 1 to 16 do
    ignore (admit_exn ctl fid hh)
  done;
  match Controller.handle_request ctl (request 17 hh) with
  | Error (`Rejected _) -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_new_region_zeroed () =
  let device, ctl = fresh () in
  (* Dirty the device memory, then admit: the new app's region must read
     as zero. *)
  let st = Rmt.Device.stage device 1 in
  Rmt.Register_array.set st.Rmt.Device.regs 0 12345;
  ignore (admit_exn ctl 1 cache);
  match Controller.read_region ctl ~fid:1 ~stage:1 with
  | Some data -> Alcotest.(check int) "zeroed" 0 data.(0)
  | None -> Alcotest.fail "region readable"

let test_control_plane_write_read () =
  let _, ctl = fresh () in
  ignore (admit_exn ctl 1 cache);
  Alcotest.(check bool) "write ok" true
    (Controller.write_region_word ctl ~fid:1 ~stage:1 ~index:5 ~value:777);
  (match Controller.read_region ctl ~fid:1 ~stage:1 with
  | Some data -> Alcotest.(check int) "read back" 777 data.(5)
  | None -> Alcotest.fail "region");
  Alcotest.(check bool) "oob write rejected" false
    (Controller.write_region_word ctl ~fid:1 ~stage:1 ~index:70000 ~value:1);
  Alcotest.(check bool) "wrong stage rejected" false
    (Controller.write_region_word ctl ~fid:1 ~stage:0 ~index:0 ~value:1)

let test_auto_migration_copies_data () =
  (* A second cache arrives on the same stages under best-fit; app 1
     shrinks and relocates, and the controller copies its old contents
     into the new region. *)
  let ctlb =
    Controller.create ~scheme:Activermt_alloc.Allocator.Best_fit
      (Rmt.Device.create params)
  in
  ignore (admit_exn ctlb 1 cache);
  for i = 0 to 9 do
    ignore (Controller.write_region_word ctlb ~fid:1 ~stage:1 ~index:i ~value:(100 + i))
  done;
  let p = admit_exn ctlb 2 cache in
  Alcotest.(check (list int)) "app 1 reallocated" [ 1 ] p.Controller.reallocated;
  match Controller.read_region ctlb ~fid:1 ~stage:1 with
  | Some data ->
    Alcotest.(check int) "data migrated" 105 data.(5)
  | None -> Alcotest.fail "region"

let stage_region ctl ~fid ~stage =
  let regions = Option.get (Activermt.Table.regions_of (Controller.tables ctl) ~fid) in
  Option.get regions.(stage)

let test_snapshot_contents () =
  let ctl =
    Controller.create ~scheme:Activermt_alloc.Allocator.Best_fit
      (Rmt.Device.create params)
  in
  ignore (admit_exn ctl 1 cache);
  ignore (Controller.write_region_word ctl ~fid:1 ~stage:1 ~index:3 ~value:42);
  let before = stage_region ctl ~fid:1 ~stage:1 in
  let p = admit_exn ctl 2 cache in
  Alcotest.(check (list int)) "app 1 reallocated" [ 1 ] p.Controller.reallocated;
  Alcotest.(check bool) "app 1's stage-1 region changed" true
    (stage_region ctl ~fid:1 ~stage:1 <> before);
  match Controller.read_region ctl ~fid:1 ~stage:1 with
  | Some data -> Alcotest.(check int) "new region has pre-move data" 42 data.(3)
  | None -> Alcotest.fail "region"

(* Departure of app 1 slides apps 2 and 3 down on every stage, and app 3's
   new region covers the tail of app 2's old one: whichever copies back
   second must read its old words from the shadow, not the live array. *)
let test_departure_moves_through_shadow () =
  let ctl =
    Controller.create ~scheme:Activermt_alloc.Allocator.Best_fit
      (Rmt.Device.create params)
  in
  List.iter (fun f -> ignore (admit_exn ctl f cache)) [ 1; 2; 3 ];
  let old2 = stage_region ctl ~fid:2 ~stage:1 in
  let old3 = stage_region ctl ~fid:3 ~stage:1 in
  let last = old2.Pkt.n_words - 1 in
  List.iter
    (fun (fid, index) ->
      let value = (1000 * fid) + index in
      ignore (Controller.write_region_word ctl ~fid ~stage:1 ~index ~value))
    [ (2, 3); (2, last); (3, 3); (3, last) ];
  ignore (Controller.handle_departure ctl ~fid:1);
  let new2 = stage_region ctl ~fid:2 ~stage:1 in
  let new3 = stage_region ctl ~fid:3 ~stage:1 in
  Alcotest.(check bool) "both start words moved" true
    (new2.Pkt.start_word <> old2.Pkt.start_word
    && new3.Pkt.start_word <> old3.Pkt.start_word);
  Alcotest.(check bool) "app 3's new region overlaps app 2's old one" true
    (new3.Pkt.start_word < old2.Pkt.start_word + old2.Pkt.n_words);
  List.iter
    (fun (fid, index) ->
      match Controller.read_region ctl ~fid ~stage:1 with
      | Some data ->
        Alcotest.(check int)
          (Printf.sprintf "fid %d word %d" fid index)
          ((1000 * fid) + index) data.(index)
      | None -> Alcotest.fail "region")
    [ (2, 3); (2, last); (3, 3); (3, last) ]

let test_departure_expands () =
  let ctl =
    Controller.create ~scheme:Activermt_alloc.Allocator.Best_fit
      (Rmt.Device.create params)
  in
  ignore (admit_exn ctl 1 cache);
  ignore (admit_exn ctl 2 cache);
  let _timing, expanded = Controller.handle_departure ctl ~fid:1 in
  Alcotest.(check (list int)) "app 2 expanded" [ 2 ] expanded;
  Alcotest.(check bool) "tables removed" false
    (Activermt.Table.installed (Controller.tables ctl) ~fid:1)

let test_interactive_protocol () =
  let ctl =
    Controller.create ~mode:`Interactive
      ~scheme:Activermt_alloc.Allocator.Best_fit (Rmt.Device.create params)
  in
  ignore (admit_exn ctl 1 cache);
  let p = admit_exn ctl 2 cache in
  (match p.Controller.phase with
  | Controller.Awaiting_extraction { impacted } ->
    Alcotest.(check (list int)) "app 1 impacted" [ 1 ] impacted
  | Controller.Committed -> Alcotest.fail "should await extraction");
  let tables = Controller.tables ctl in
  Alcotest.(check bool) "app 1 quiesced" true (Activermt.Table.is_quiesced tables ~fid:1);
  Alcotest.(check bool) "app 2 not installed yet" false
    (Activermt.Table.installed tables ~fid:2);
  Alcotest.(check (list int)) "pending" [ 1 ] (Controller.pending_extraction ctl);
  Controller.complete_extraction ctl ~fid:1;
  Alcotest.(check (list int)) "none pending" [] (Controller.pending_extraction ctl);
  Alcotest.(check bool) "app 1 reactivated" false
    (Activermt.Table.is_quiesced tables ~fid:1);
  Alcotest.(check bool) "app 2 committed" true (Activermt.Table.installed tables ~fid:2);
  Alcotest.(check bool) "app 2 reactivated" false
    (Activermt.Table.is_quiesced tables ~fid:2)

let test_interactive_no_realloc_commits_directly () =
  let ctl = Controller.create ~mode:`Interactive (Rmt.Device.create params) in
  let p = admit_exn ctl 1 cache in
  Alcotest.(check bool) "committed immediately" true
    (p.Controller.phase = Controller.Committed)

let test_interactive_timeout () =
  let ctl =
    Controller.create ~mode:`Interactive ~extraction_timeout_s:0.5
      ~scheme:Activermt_alloc.Allocator.Best_fit (Rmt.Device.create params)
  in
  ignore (admit_exn ctl 1 cache);
  ignore (admit_exn ctl 2 cache);
  Controller.expire ctl ~elapsed_s:0.4;
  Alcotest.(check (list int)) "still pending" [ 1 ] (Controller.pending_extraction ctl);
  Controller.expire ctl ~elapsed_s:0.2;
  Alcotest.(check (list int)) "timed out" [] (Controller.pending_extraction ctl);
  Alcotest.(check bool) "app 2 force-committed" true
    (Activermt.Table.installed (Controller.tables ctl) ~fid:2)

(* Interactive clients extract and re-inject their own state, so the host
   copies nothing: after the commit (by ack or by timeout) the tables
   match the allocator, the modeled snapshot still charges the full app,
   and a departure's slide leaves the device words where they were. *)
let test_interactive_copies_nothing () =
  List.iter
    (fun (how, finish) ->
      let ctl =
        Controller.create ~mode:`Interactive ~extraction_timeout_s:0.5
          ~scheme:Activermt_alloc.Allocator.Best_fit (Rmt.Device.create params)
      in
      let tables = Controller.tables ctl in
      let alloc = Controller.allocator ctl in
      let tables_match () =
        List.iter
          (fun f ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: fid %d tables match the allocator" how f)
              true
              (Activermt.Table.regions_of tables ~fid:f
              = Activermt_alloc.Allocator.regions_response alloc ~fid:f))
          (Activermt_alloc.Allocator.resident alloc)
      in
      ignore (admit_exn ctl 1 cache);
      let full_words =
        Array.fold_left
          (fun acc -> function Some r -> acc + r.Pkt.n_words | None -> acc)
          0
          (Option.get (Activermt.Table.regions_of tables ~fid:1))
      in
      ignore (admit_exn ctl 2 cache);
      (match List.rev (Controller.provision_log ctl) with
      | b :: _ ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: snapshot_s charges %d words" how full_words)
          true
          (b.Cost_model.snapshot_s
          = float_of_int full_words *. Cost_model.default.Cost_model.snapshot_word_s)
      | [] -> Alcotest.fail "provision logged");
      finish ctl;
      Alcotest.(check (list int))
        (how ^ ": none pending") [] (Controller.pending_extraction ctl);
      tables_match ();
      ignore (admit_exn ctl 3 cache);
      finish ctl;
      let old2 = stage_region ctl ~fid:2 ~stage:1 in
      let regs = (Rmt.Device.stage (Controller.device ctl) 1).Rmt.Device.regs in
      ignore (Controller.write_region_word ctl ~fid:2 ~stage:1 ~index:3 ~value:2003);
      ignore (Controller.handle_departure ctl ~fid:1);
      tables_match ();
      let new2 = stage_region ctl ~fid:2 ~stage:1 in
      Alcotest.(check bool) (how ^ ": app 2 slid") true
        (new2.Pkt.start_word <> old2.Pkt.start_word);
      Alcotest.(check int) (how ^ ": old word left in place") 2003
        (Rmt.Register_array.get regs (old2.Pkt.start_word + 3));
      Alcotest.(check bool) (how ^ ": not copied to the new region") true
        (Rmt.Register_array.get regs (new2.Pkt.start_word + 3) <> 2003))
    [
      ( "ack",
        fun ctl ->
          List.iter
            (fun fid -> Controller.complete_extraction ctl ~fid)
            (Controller.pending_extraction ctl) );
      ("timeout", fun ctl -> Controller.expire ctl ~elapsed_s:1.0);
    ]

let test_departure_unblocks_pending () =
  (* The impacted app departs instead of acking: the pending admission
     must commit without waiting for the timeout. *)
  let ctl =
    Controller.create ~mode:`Interactive
      ~scheme:Activermt_alloc.Allocator.Best_fit (Rmt.Device.create params)
  in
  ignore (admit_exn ctl 1 cache);
  ignore (admit_exn ctl 2 cache);
  Alcotest.(check (list int)) "waiting on app 1" [ 1 ] (Controller.pending_extraction ctl);
  ignore (Controller.handle_departure ctl ~fid:1);
  Alcotest.(check (list int)) "no longer pending" [] (Controller.pending_extraction ctl);
  Alcotest.(check bool) "app 2 committed" true
    (Activermt.Table.installed (Controller.tables ctl) ~fid:2)

let test_regions_packet () =
  let _, ctl = fresh () in
  ignore (admit_exn ctl 1 cache);
  (match Controller.regions_packet ctl ~fid:1 with
  | Some pkt -> (
    match Negotiate.granted_regions pkt with
    | Some _ -> ()
    | None -> Alcotest.fail "granted")
  | None -> Alcotest.fail "resident");
  Alcotest.(check bool) "absent fid" true (Controller.regions_packet ctl ~fid:9 = None)

let test_provision_log_and_costs () =
  let _, ctl = fresh () in
  ignore (admit_exn ctl 1 cache);
  ignore (admit_exn ctl 2 cache);
  let log = Controller.provision_log ctl in
  Alcotest.(check int) "two events" 2 (List.length log);
  List.iter
    (fun b ->
      Alcotest.(check bool) "positive table time" true (b.Cost_model.table_update_s > 0.0);
      Alcotest.(check bool) "total bounded" true (Cost_model.total b < 29.0))
    log

let test_privilege_lifecycle () =
  let _, ctl = fresh () in
  ignore (admit_exn ctl 1 cache);
  let tables = Controller.tables ctl in
  Alcotest.(check bool) "default unprivileged" false
    (Activermt.Table.is_privileged tables ~fid:1);
  Controller.grant_privilege ctl ~fid:1;
  Alcotest.(check bool) "granted (live reinstall)" true
    (Activermt.Table.is_privileged tables ~fid:1);
  Controller.revoke_privilege ctl ~fid:1;
  Alcotest.(check bool) "revoked" false
    (Activermt.Table.is_privileged tables ~fid:1);
  (* Privilege configured before admission sticks at install time. *)
  Controller.grant_privilege ctl ~fid:2;
  ignore (admit_exn ctl 2 cache);
  Alcotest.(check bool) "pre-configured" true
    (Activermt.Table.is_privileged tables ~fid:2)

let test_recirculation_limit_lifecycle () =
  let _, ctl = fresh () in
  ignore (admit_exn ctl 1 cache);
  let tables = Controller.tables ctl in
  Alcotest.(check (option int)) "unlimited by default" None
    (Activermt.Table.max_passes_of tables ~fid:1);
  Controller.limit_recirculation ctl ~fid:1 ~max_passes:2;
  Alcotest.(check (option int)) "capped" (Some 2)
    (Activermt.Table.max_passes_of tables ~fid:1);
  Alcotest.(check bool) "invalid cap raises" true
    (try
       Controller.limit_recirculation ctl ~fid:1 ~max_passes:0;
       false
     with Invalid_argument _ -> true)

(* -- Async provision queue (batched epoch admission) --------------------- *)

let test_drain_matches_sequential_decisions () =
  (* An over-capacity stream of pinned heavy hitters interleaved with
     elastic caches, replayed through handle_request on one controller
     and through enqueue/drain with single-request epochs on a twin: the
     admit/reject pattern must match exactly. *)
  let _, ctl_seq = fresh () in
  let _, ctl_bat = fresh () in
  let reqs =
    List.init 40 (fun i ->
        let fid = i + 1 in
        if i mod 2 = 0 then request fid hh else request fid cache)
  in
  let seq_decisions =
    List.map (fun p -> Result.is_ok (Controller.handle_request ctl_seq p)) reqs
  in
  Alcotest.(check bool) "stream over-subscribes the switch" true
    (List.exists not seq_decisions);
  List.iter (Controller.enqueue_request ctl_bat) reqs;
  Alcotest.(check int) "queue holds the backlog" 40 (Controller.queue_depth ctl_bat);
  let epochs = Controller.drain ~max_batch:1 ctl_bat in
  Alcotest.(check int) "one epoch per request" 40 (List.length epochs);
  let bat_decisions =
    List.concat_map
      (fun e -> List.map Result.is_ok e.Controller.results)
      epochs
  in
  Alcotest.(check (list bool)) "identical admit/reject pattern" seq_decisions
    bat_decisions;
  Alcotest.(check int) "queue drained" 0 (Controller.queue_depth ctl_bat);
  Alcotest.(check (list int)) "identical resident sets"
    (List.sort compare (Activermt_alloc.Allocator.resident (Controller.allocator ctl_seq)))
    (List.sort compare (Activermt_alloc.Allocator.resident (Controller.allocator ctl_bat)))

let test_drain_duplicate_fids_idempotent () =
  let tel = Activermt_telemetry.Telemetry.create () in
  let ctl = Controller.create ~telemetry:tel (Rmt.Device.create params) in
  (* Intra-epoch echo: the same FID enqueued twice before a drain. *)
  Controller.enqueue_request ctl (request 1 cache);
  Controller.enqueue_request ctl (request 1 cache);
  (match Controller.drain ctl with
  | [ e ] ->
    Alcotest.(check int) "both requests answered" 2 (List.length e.Controller.results);
    List.iter
      (fun r ->
        match r with
        | Ok p -> Alcotest.(check int) "answered for fid 1" 1 p.Controller.fid
        | Error _ -> Alcotest.fail "duplicate must be answered, not rejected")
      e.Controller.results
  | _ -> Alcotest.fail "one epoch");
  Alcotest.(check (list int)) "allocated exactly once" [ 1 ]
    (Activermt_alloc.Allocator.resident (Controller.allocator ctl));
  (* Cross-drain retry: the FID is already resident. *)
  Controller.enqueue_request ctl (request 1 cache);
  (match Controller.drain ctl with
  | [ e ] -> (
    match e.Controller.results with
    | [ Ok p ] ->
      Alcotest.(check (list int)) "no reallocation for a retry" []
        p.Controller.reallocated
    | _ -> Alcotest.fail "answered from the existing allocation")
  | _ -> Alcotest.fail "one epoch");
  Alcotest.(check int) "both duplicates counted" 2
    (Activermt_telemetry.Telemetry.counter_value tel "control.dup_requests")

let test_drain_epoch_bumps_table_epoch_once () =
  (* Two caches joining a best-fit switch in one epoch both land on the
     resident cache's stages, reallocating it — but its tables (and
     Table.epoch, which keys JIT invalidation) must move exactly once for
     the whole epoch, not once per admission.  The expected advance is
     measured from a sequential twin, where each of the two admissions
     reinstalls the resident cache separately. *)
  let mk () =
    Controller.create ~scheme:Activermt_alloc.Allocator.Best_fit
      (Rmt.Device.create params)
  in
  let seq = mk () in
  ignore (admit_exn seq 1 cache);
  let e0 = Activermt.Table.epoch (Controller.tables seq) ~fid:1 in
  ignore (admit_exn seq 2 cache);
  let per_reinstall = Activermt.Table.epoch (Controller.tables seq) ~fid:1 - e0 in
  Alcotest.(check bool) "a reallocation moves the epoch" true (per_reinstall > 0);
  ignore (admit_exn seq 3 cache);
  Alcotest.(check int) "sequential: one reinstall per admission"
    (e0 + (2 * per_reinstall))
    (Activermt.Table.epoch (Controller.tables seq) ~fid:1);
  let bat = mk () in
  ignore (admit_exn bat 1 cache);
  let before = Activermt.Table.epoch (Controller.tables bat) ~fid:1 in
  Controller.enqueue_request bat (request 2 cache);
  Controller.enqueue_request bat (request 3 cache);
  (match Controller.drain bat with
  | [ e ] ->
    let realloc_fids =
      List.concat_map
        (function Ok p -> p.Controller.reallocated | Error _ -> [])
        e.Controller.results
      |> List.sort_uniq compare
    in
    Alcotest.(check bool) "resident cache reallocated by the epoch" true
      (List.mem 1 realloc_fids);
    Alcotest.(check int) "installs: each touched app exactly once"
      (2 + List.length (List.filter (fun f -> f = 1) realloc_fids))
      e.Controller.installs
  | _ -> Alcotest.fail "one epoch");
  Alcotest.(check int) "batched: one reinstall for the whole epoch"
    (before + per_reinstall)
    (Activermt.Table.epoch (Controller.tables bat) ~fid:1)

let test_drain_epoch_indices_monotonic () =
  let _, ctl = fresh () in
  Controller.enqueue_request ctl (request 1 cache);
  Controller.enqueue_request ctl (request 2 cache);
  Controller.enqueue_request ctl (request 3 cache);
  let first = Controller.drain ~max_batch:2 ctl in
  Alcotest.(check (list int)) "backlog split into epochs" [ 0; 1 ]
    (List.map (fun e -> e.Controller.epoch_index) first);
  Controller.enqueue_request ctl (request 4 cache);
  (match Controller.drain ctl with
  | [ e ] ->
    Alcotest.(check int) "index continues across drains" 2 e.Controller.epoch_index
  | _ -> Alcotest.fail "one epoch");
  Alcotest.(check (list unit)) "empty queue drains to nothing" []
    (List.map ignore (Controller.drain ctl))

(* -- Relocation differential ------------------------------------------- *)

(* Random Auto-mode sequences of sequential admissions, queued epochs and
   departures on a small device.  Before each operation every resident's
   regions get random words; after it, a reallocated app must keep the
   first min(old, new) words of each stage, every other app must be
   untouched word for word, the switch tables must match the allocator,
   and the operation's modeled snapshot cost must charge the full regions
   of every reallocated app. *)

type reloc_op = Admit of int | Epoch of int list | Depart of int

let reloc_params =
  { Rmt.Params.default with Rmt.Params.words_per_stage = 4096; blocks_per_stage = 64 }

let reloc_apps =
  [|
    cache;
    hh;
    Activermt_apps.Bloom.service;
    Activermt_apps.Counter.service;
    Activermt_apps.Cheetah_lb.service;
  |]

(* Stages moved (start word changed) and kept (same start word) across
   every checked reallocation, so the property is seen to exercise both. *)
let reloc_moved = ref 0
let reloc_kept = ref 0

(* Operations in which a moved app's new region covers words that another
   moved app copies back from its old region on the same stage: the case
   that needs the old words saved before any copy-back. *)
let reloc_cross = ref 0

let gen_reloc_case =
  let open QCheck.Gen in
  let app = int_bound (Array.length reloc_apps - 1) in
  let op =
    frequency
      [
        (4, map (fun a -> Admit a) app);
        (2, map (fun l -> Epoch l) (list_size (int_range 1 4) app));
        (3, map (fun i -> Depart i) nat);
      ]
  in
  pair int (list_size (int_range 5 30) op)

let print_reloc_case (seed, ops) =
  Printf.sprintf "seed %d: %s" seed
    (String.concat "; "
       (List.map
          (function
            | Admit a -> Printf.sprintf "admit %d" a
            | Epoch l -> "epoch [" ^ String.concat "," (List.map string_of_int l) ^ "]"
            | Depart i -> Printf.sprintf "depart #%d" i)
          ops))

let check_relocation policy (seed, ops) =
  let rng = Random.State.make [| seed |] in
  let ctl = Controller.create ~policy (Rmt.Device.create reloc_params) in
  let tables = Controller.tables ctl in
  let alloc = Controller.allocator ctl in
  let next_fid = ref 1 in
  let fresh_fid () =
    let f = !next_fid in
    incr next_fid;
    f
  in
  let residents () = List.sort compare (Activermt_alloc.Allocator.resident alloc) in
  let regions f = Option.get (Activermt.Table.regions_of tables ~fid:f) in
  let fill f =
    Array.iteri
      (fun stage reg ->
        match reg with
        | None -> ()
        | Some { Pkt.n_words; _ } ->
          List.iter
            (fun index ->
              ignore
                (Controller.write_region_word ctl ~fid:f ~stage ~index
                   ~value:(1 + Random.State.int rng 0xFFFFFF)))
            (0 :: (n_words - 1) :: List.init 6 (fun _ -> Random.State.int rng n_words)))
      (regions f)
  in
  let contents f =
    Array.mapi
      (fun stage reg ->
        Option.map (fun _ -> Option.get (Controller.read_region ctl ~fid:f ~stage)) reg)
      (regions f)
  in
  let expect what cond = if not cond then QCheck.Test.fail_reportf "%s" what in
  List.iter
    (fun op ->
      let before = residents () in
      List.iter fill before;
      let old = List.map (fun f -> (f, (regions f, contents f))) before in
      let log_len = List.length (Controller.provision_log ctl) in
      let reallocated =
        match op with
        | Admit a -> (
          match Controller.handle_request ctl (request (fresh_fid ()) reloc_apps.(a)) with
          | Ok p -> p.Controller.reallocated
          | Error _ -> [])
        | Epoch apps ->
          List.iter
            (fun a -> Controller.enqueue_request ctl (request (fresh_fid ()) reloc_apps.(a)))
            apps;
          List.concat_map
            (fun e ->
              List.concat_map
                (function Ok p -> p.Controller.reallocated | Error _ -> [])
                e.Controller.results)
            (Controller.drain ctl)
        | Depart i -> (
          match before with
          | [] -> []
          | _ ->
            snd
              (Controller.handle_departure ctl
                 ~fid:(List.nth before (i mod List.length before))))
      in
      let reallocated =
        List.sort_uniq compare (List.filter (fun f -> List.mem_assoc f old) reallocated)
      in
      let after = residents () in
      List.iter
        (fun f ->
          expect
            (Printf.sprintf "fid %d: tables match the allocator" f)
            (Activermt.Table.regions_of tables ~fid:f
            = Activermt_alloc.Allocator.regions_response alloc ~fid:f))
        after;
      List.iter
        (fun (f, (old_regions, old_contents)) ->
          if List.mem f after then begin
            let moved = List.mem f reallocated in
            let new_regions = regions f in
            let new_contents = contents f in
            if not moved then
              expect
                (Printf.sprintf "fid %d: not reallocated, regions unchanged" f)
                (new_regions = old_regions);
            Array.iteri
              (fun stage reg ->
                match (reg, new_regions.(stage)) with
                | Some (o : Pkt.region), Some (n : Pkt.region) ->
                  if moved then
                    if o.Pkt.start_word <> n.Pkt.start_word then incr reloc_moved
                    else incr reloc_kept;
                  let keep = min o.Pkt.n_words n.Pkt.n_words in
                  let o_data = Option.get old_contents.(stage) in
                  let n_data = Option.get new_contents.(stage) in
                  expect
                    (Printf.sprintf "fid %d stage %d: first %d words kept" f stage keep)
                    (Array.sub o_data 0 keep = Array.sub n_data 0 keep);
                  if not moved then
                    expect
                      (Printf.sprintf "fid %d stage %d: untouched" f stage)
                      (o_data = n_data)
                | _ -> ())
              old_regions
          end)
        old;
      (* (fid, stage, words copied back from, words written to) of every
         stage whose start word moved, as (start, length) *)
      let copies =
        List.concat_map
          (fun f ->
            if not (List.mem f after) then []
            else
              let new_regions = regions f in
              List.concat
                (List.mapi
                   (fun stage reg ->
                     match (reg, new_regions.(stage)) with
                     | Some (o : Pkt.region), Some (n : Pkt.region)
                       when o.Pkt.start_word <> n.Pkt.start_word ->
                       let src = (o.Pkt.start_word, min o.Pkt.n_words n.Pkt.n_words) in
                       [ (f, stage, src, (n.Pkt.start_word, n.Pkt.n_words)) ]
                     | _ -> [])
                   (Array.to_list (fst (List.assoc f old)))))
          reallocated
      in
      let overlaps (a, la) (b, lb) = a < b + lb && b < a + la in
      if
        List.exists
          (fun (f, stage, src, _) ->
            List.exists
              (fun (g, stage', _, dst) -> g <> f && stage' = stage && overlaps src dst)
              copies)
          copies
      then incr reloc_cross;
      let full_words =
        List.fold_left
          (fun acc f ->
            Array.fold_left
              (fun acc -> function Some r -> acc + r.Pkt.n_words | None -> acc)
              acc
              (fst (List.assoc f old)))
          0 reallocated
      in
      match (op, List.filteri (fun i _ -> i >= log_len) (Controller.provision_log ctl)) with
      | Depart _, [] when before = [] -> ()
      | _, [ b ] ->
        expect
          (Printf.sprintf "snapshot_s charges %d words" full_words)
          (b.Cost_model.snapshot_s
          = float_of_int full_words *. Cost_model.default.Cost_model.snapshot_word_s)
      | _ -> expect "one provision_log entry per operation" false)
    ops;
  true

let relocation_property policy =
  QCheck.Test.make ~count:40
    ~name:
      (Printf.sprintf "relocation keeps register state (%s)"
         (Activermt_compiler.Mutant.policy_to_string policy))
    (QCheck.make ~print:print_reloc_case gen_reloc_case)
    (check_relocation policy)

let test_relocation_exercised () =
  Alcotest.(check bool) "some stages moved" true (!reloc_moved > 0);
  Alcotest.(check bool) "some stages stayed in place" true (!reloc_kept > 0);
  Alcotest.(check bool) "some copy-back sources overwritten by another move" true
    (!reloc_cross > 0)

let test_cost_model_breakdown () =
  let b =
    Cost_model.breakdown Cost_model.default ~allocation_s:0.01 ~entries_updated:100
      ~apps_touched:2 ~words_snapshotted:1000 ~notifications:3
  in
  Alcotest.(check (float 1e-9)) "allocation passthrough" 0.01 b.Cost_model.allocation_s;
  Alcotest.(check (float 1e-9)) "table = entries + installs"
    ((100.0 *. 2.5e-4) +. (2.0 *. 2.0e-2))
    b.Cost_model.table_update_s;
  Alcotest.(check (float 1e-12)) "snapshot" 1.0e-4 b.Cost_model.snapshot_s;
  Alcotest.(check bool) "p4 compile dwarfs provisioning" true
    (Cost_model.p4_compile_s > 20.0 *. Cost_model.total b)

let () =
  Alcotest.run "control"
    [
      ( "admission",
        [
          Alcotest.test_case "installs tables" `Quick test_admission_installs_tables;
          Alcotest.test_case "bad packet" `Quick test_bad_packet;
          Alcotest.test_case "rejection" `Quick test_rejection;
          Alcotest.test_case "new region zeroed" `Quick test_new_region_zeroed;
          Alcotest.test_case "control-plane rw" `Quick test_control_plane_write_read;
        ] );
      ( "reallocation",
        [
          Alcotest.test_case "auto migration" `Quick test_auto_migration_copies_data;
          Alcotest.test_case "snapshot contents" `Quick test_snapshot_contents;
          Alcotest.test_case "departure moves through the shadow" `Quick
            test_departure_moves_through_shadow;
          Alcotest.test_case "departure expands" `Quick test_departure_expands;
          Alcotest.test_case "interactive protocol" `Quick test_interactive_protocol;
          Alcotest.test_case "interactive no-realloc" `Quick
            test_interactive_no_realloc_commits_directly;
          Alcotest.test_case "interactive timeout" `Quick test_interactive_timeout;
          Alcotest.test_case "interactive copies nothing" `Quick
            test_interactive_copies_nothing;
          Alcotest.test_case "departure unblocks pending" `Quick
            test_departure_unblocks_pending;
          Alcotest.test_case "regions packet" `Quick test_regions_packet;
          QCheck_alcotest.to_alcotest
            (relocation_property Activermt_compiler.Mutant.Most_constrained);
          QCheck_alcotest.to_alcotest
            (relocation_property Activermt_compiler.Mutant.Least_constrained);
          Alcotest.test_case "relocation property exercised" `Quick
            test_relocation_exercised;
        ] );
      ( "provision queue",
        [
          Alcotest.test_case "drain matches sequential decisions" `Quick
            test_drain_matches_sequential_decisions;
          Alcotest.test_case "duplicate fids idempotent" `Quick
            test_drain_duplicate_fids_idempotent;
          Alcotest.test_case "table epoch bumps once per epoch" `Quick
            test_drain_epoch_bumps_table_epoch_once;
          Alcotest.test_case "epoch indices monotonic" `Quick
            test_drain_epoch_indices_monotonic;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "provision log" `Quick test_provision_log_and_costs;
          Alcotest.test_case "privilege lifecycle" `Quick test_privilege_lifecycle;
          Alcotest.test_case "recirculation limit" `Quick test_recirculation_limit_lifecycle;
          Alcotest.test_case "breakdown" `Quick test_cost_model_breakdown;
        ] );
    ]
