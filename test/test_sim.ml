(* Tests for the discrete-event engine and the switch fabric. *)

module Engine = Netsim.Engine
module Fabric = Netsim.Fabric
module Controller = Activermt_control.Controller
module Negotiate = Activermt_client.Negotiate
module Pkt = Activermt.Packet

let params = Rmt.Params.default

(* -- Engine -------------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:0.3 (fun () -> log := 3 :: !log);
  Engine.schedule e ~delay:0.1 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:0.2 (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  Engine.schedule e ~delay:2.5 (fun () -> seen := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "clock at event" 2.5 !seen

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~delay:5.0 (fun () -> fired := true);
  Engine.run ~until:1.0 e;
  Alcotest.(check bool) "future event pending" false !fired;
  Alcotest.(check (float 1e-9)) "clock clamped" 1.0 (Engine.now e);
  Alcotest.(check int) "still queued" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "fires later" true !fired

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "outer" :: !log;
      Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 2.0 (Engine.now e)

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 (fun () ->
      Engine.schedule e ~delay:(-5.0) (fun () ->
          Alcotest.(check bool) "not in the past" true (Engine.now e >= 1.0)));
  Engine.run e

(* -- Fabric -------------------------------------------------------------- *)

let make_world () =
  let engine = Engine.create () in
  let controller = Controller.create ~mode:`Interactive (Rmt.Device.create params) in
  let fabric = Fabric.create ~engine ~controller () in
  (engine, controller, fabric)

let test_fabric_request_response () =
  let engine, _controller, fabric = make_world () in
  let got = ref None in
  Fabric.attach fabric 10 (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Active pkt -> got := Negotiate.granted_regions pkt
      | _ -> ());
  Fabric.send fabric
    { Fabric.src = 10;
      dst = Fabric.switch_address;
      payload =
        Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service); trace = None };
  Engine.run engine;
  (match !got with
  | Some regions ->
    Alcotest.(check int) "three stages granted" 3
      (Array.fold_left (fun n r -> if r <> None then n + 1 else n) 0 regions)
  | None -> Alcotest.fail "no response delivered");
  Alcotest.(check bool) "provisioning takes time" true (Engine.now engine > 0.02)

let test_fabric_exec_and_rts () =
  let engine, _controller, fabric = make_world () in
  let regions = ref None in
  Fabric.attach fabric 10 (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Active pkt -> (
        match Negotiate.granted_regions pkt with
        | Some r -> regions := Some r
        | None -> ())
      | _ -> ());
  Fabric.attach fabric 20 (fun _ -> ());
  Fabric.send fabric
    { Fabric.src = 10;
      dst = Fabric.switch_address;
      payload =
        Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service); trace = None };
  Engine.run engine;
  let cc =
    match
      Activermt_client.Cache_client.create params
        ~policy:Activermt_compiler.Mutant.Most_constrained ~fid:1
        ~regions:(Option.get !regions)
    with
    | Ok cc -> cc
    | Error e -> Alcotest.fail e
  in
  let key = Workload.Kv.key_of_rank 3 in
  (* Populate through the fabric: RTS ack comes back to the client. *)
  let acked = ref false in
  Fabric.attach fabric 10 (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Active { Pkt.payload = Pkt.Exec _; _ } -> acked := true
      | _ -> ());
  Fabric.send fabric
    { Fabric.src = 10;
      dst = 20;
      payload = Fabric.Active (Activermt_client.Cache_client.populate_packet cc ~seq:1 key ~value:5); trace = None };
  Engine.run engine;
  Alcotest.(check bool) "populate acked via RTS" true !acked;
  (* Query through the fabric: hit returns to client, not the server. *)
  let hit = ref false and at_server = ref false in
  Fabric.attach fabric 10 (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Active { Pkt.payload = Pkt.Exec _; _ } -> hit := true
      | _ -> ());
  Fabric.attach fabric 20 (fun _ -> at_server := true);
  Fabric.send fabric
    { Fabric.src = 10;
      dst = 20;
      payload = Fabric.Active (Activermt_client.Cache_client.query_packet cc ~seq:2 key); trace = None };
  Engine.run engine;
  Alcotest.(check bool) "hit returned" true !hit;
  Alcotest.(check bool) "server bypassed" false !at_server

let test_fabric_uninstalled_fid_forwards () =
  let engine, _controller, fabric = make_world () in
  let at_server = ref false in
  Fabric.attach fabric 20 (fun _ -> at_server := true);
  let pkt =
    Pkt.exec ~fid:77 ~seq:0 ~args:[||] Activermt_apps.Cache.query_program
  in
  Fabric.send fabric { Fabric.src = 10; dst = 20; payload = Fabric.Active pkt; trace = None };
  Engine.run engine;
  Alcotest.(check bool) "plain forwarding" true !at_server

let test_fabric_transit_payloads () =
  let engine, _controller, fabric = make_world () in
  let got = ref 0 in
  Fabric.attach fabric 30 (fun _ -> incr got);
  Fabric.send fabric
    { Fabric.src = 10;
      dst = 30;
      payload = Fabric.Kv_request { key = Workload.Kv.key_of_rank 1 }; trace = None };
  Fabric.send fabric
    { Fabric.src = 10;
      dst = 30;
      payload = Fabric.Kv_reply { key = Workload.Kv.key_of_rank 1; value = 2 }; trace = None };
  Engine.run engine;
  Alcotest.(check int) "both delivered" 2 !got

let test_fabric_drop_accounting () =
  let engine, _controller, fabric = make_world () in
  Fabric.attach fabric 10 (fun _ -> ());
  Fabric.attach fabric 20 (fun _ -> Alcotest.fail "dropped packet delivered");
  (* Admit a cache, then send it a program that DROPs. *)
  Fabric.send fabric
    { Fabric.src = 10;
      dst = Fabric.switch_address;
      payload =
        Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service); trace = None };
  Engine.run engine;
  let dropper =
    Activermt.Program.v
      (Activermt.Program.plain [ Activermt.Instr.Drop; Activermt.Instr.Return ])
  in
  Fabric.send fabric
    { Fabric.src = 10;
      dst = 20;
      payload = Fabric.Active (Pkt.exec ~fid:1 ~seq:0 ~args:[||] dropper); trace = None };
  Engine.run engine;
  Alcotest.(check int) "one drop counted" 1 (Fabric.stats_drops fabric)

let test_fabric_release () =
  let engine, controller, fabric = make_world () in
  Fabric.attach fabric 10 (fun _ -> ());
  Fabric.send fabric
    { Fabric.src = 10;
      dst = Fabric.switch_address;
      payload =
        Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service); trace = None };
  Engine.run engine;
  Alcotest.(check bool) "installed" true
    (Activermt.Table.installed (Controller.tables controller) ~fid:1);
  Fabric.send fabric
    { Fabric.src = 10;
      dst = Fabric.switch_address;
      payload = Fabric.Active (Negotiate.release_packet ~fid:1); trace = None };
  Engine.run engine;
  Alcotest.(check bool) "released" false
    (Activermt.Table.installed (Controller.tables controller) ~fid:1)

module Memsync_driver = Activermt_client.Memsync_driver

let test_memsync_driver_over_lossy_fabric () =
  (* 30% data-plane loss: the retransmission loop still completes a
     200-index write and a subsequent read returns every value. *)
  let engine = Engine.create () in
  let controller = Controller.create (Rmt.Device.create params) in
  let fabric =
    Fabric.create ~loss_rate:0.3 ~loss_seed:77 ~engine ~controller ()
  in
  Fabric.attach fabric 10 (fun _ -> ());
  Fabric.send fabric
    { Fabric.src = 10;
      dst = Fabric.switch_address;
      payload =
        Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service); trace = None };
  Engine.run engine;
  let stages =
    Option.get (Activermt_control.Controller.regions_packet controller ~fid:1)
    |> Negotiate.granted_regions |> Option.get
    |> fun regions ->
    Array.to_list
      (Array.of_list
         (List.filteri (fun _ _ -> true)
            (List.concat
               (List.mapi
                  (fun s r -> match r with Some _ -> [ s ] | None -> [])
                  (Array.to_list regions)))))
  in
  let count = 200 in
  let run_driver driver =
    let send ~seq:_ pkt =
      Fabric.send fabric { Fabric.src = 10; dst = 20; payload = Fabric.Active pkt; trace = None }
    in
    Fabric.attach fabric 10 (fun msg ->
        match msg.Fabric.payload with
        | Fabric.Active { Pkt.payload = Pkt.Exec { args; _ }; seq; _ } ->
          ignore (Memsync_driver.on_reply driver ~seq ~args)
        | _ -> ());
    Memsync_driver.start driver ~now:(Engine.now engine) ~send;
    Engine.run engine;
    let rounds = ref 0 in
    while (not (Memsync_driver.is_done driver)) && !rounds < 50 do
      incr rounds;
      (* advance past the timeout, then retransmit *)
      Engine.schedule engine ~delay:0.01 (fun () -> ());
      Engine.run engine;
      ignore (Memsync_driver.tick driver ~now:(Engine.now engine) ~send);
      Engine.run engine
    done;
    Alcotest.(check bool) "completed under loss" true (Memsync_driver.is_done driver)
  in
  let writer =
    Memsync_driver.create ~fid:1 ~stages ~count ~timeout_s:0.005
      (Memsync_driver.Write (fun index -> List.map (fun s -> (100 * s) + index) stages))
  in
  run_driver writer;
  Alcotest.(check bool) "writes were retransmitted" true
    (Memsync_driver.attempts writer > count);
  let reader =
    Memsync_driver.create ~fid:1 ~stages ~count ~timeout_s:0.005 Memsync_driver.Read
  in
  run_driver reader;
  let values = Memsync_driver.values reader in
  List.iteri
    (fun k s ->
      for index = 0 to count - 1 do
        Alcotest.(check int)
          (Printf.sprintf "stage %d index %d" s index)
          ((100 * s) + index)
          values.(k).(index)
      done)
    stages;
  Alcotest.(check bool) "loss actually occurred" true (Fabric.stats_lost fabric > 0)

(* The grant is scheduled on the modeled control-plane work (table
   updates, snapshot, notification); the allocator's measured compute
   time is host time and must not reach the simulated clock, or same-seed
   replays diverge. *)
let test_fabric_grant_at_modeled_delay () =
  let wire = 5.0e-6 in
  let engine = Engine.create () in
  let controller = Controller.create ~mode:`Interactive (Rmt.Device.create params) in
  let fabric = Fabric.create ~wire_latency_s:wire ~engine ~controller () in
  let granted_at = ref None in
  Fabric.attach fabric 10 (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Active pkt when Negotiate.granted_regions pkt <> None ->
        granted_at := Some (Engine.now engine)
      | _ -> ());
  Fabric.send fabric
    (Fabric.msg ~src:10 ~dst:Fabric.switch_address
       (Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service)));
  Engine.run engine;
  let b =
    match Controller.provision_log controller with
    | [ b ] -> b
    | l -> Alcotest.failf "expected one provision, got %d" (List.length l)
  in
  let modeled =
    Activermt_control.Cost_model.(b.table_update_s +. b.snapshot_s +. b.notify_s)
  in
  match !granted_at with
  | None -> Alcotest.fail "no grant delivered"
  | Some t ->
    Alcotest.(check (float 0.0)) "request hop + modeled delay + response hop"
      (wire +. (modeled +. wire)) t

(* A Stages tracer runs each traced capsule through the interpreter: the
   fabric's device.stage instants are exactly [Runtime.run ~on_event]'s
   events, and every delivery equals an untraced fabric's. *)
let test_fabric_stage_detail () =
  let module Trace = Activermt_telemetry.Trace in
  let world tracer =
    let engine = Engine.create () in
    let controller = Controller.create ~mode:`Interactive (Rmt.Device.create params) in
    let fabric = Fabric.create ~tracer ~engine ~controller () in
    let got = ref [] in
    let regions = ref None in
    let record msg =
      (match msg.Fabric.payload with
      | Fabric.Active pkt -> (
        match Negotiate.granted_regions pkt with
        | Some r -> regions := Some r
        | None -> ())
      | _ -> ());
      got := (msg.Fabric.dst, msg.Fabric.payload) :: !got
    in
    Fabric.attach fabric 10 record;
    Fabric.attach fabric 20 record;
    Fabric.send fabric
      (Fabric.msg ~src:10 ~dst:Fabric.switch_address
         (Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service)));
    Engine.run engine;
    (engine, controller, fabric, got, Option.get !regions)
  in
  let tracer = Trace.create ~verbosity:Trace.Stages () in
  let e_s, _, f_s, got_s, regions = world tracer in
  let e_p, _, f_p, got_p, _ = world Trace.noop in
  let _, c_ref, _, _, _ = world Trace.noop in
  let cc =
    match
      Activermt_client.Cache_client.create params
        ~policy:Activermt_compiler.Mutant.Most_constrained ~fid:1 ~regions
    with
    | Ok cc -> cc
    | Error e -> Alcotest.fail e
  in
  let module Cc = Activermt_client.Cache_client in
  let key = Workload.Kv.key_of_rank 3 in
  let capsules =
    [
      Cc.populate_packet cc ~seq:1 key ~value:5;
      Cc.query_packet cc ~seq:2 key;
      Cc.query_packet cc ~seq:3 (Workload.Kv.key_of_rank 9);
    ]
  in
  let expected = ref [] in
  List.iter
    (fun pkt ->
      let m = Fabric.msg ~src:10 ~dst:20 (Fabric.Active pkt) in
      Fabric.inject f_s m;
      Engine.run e_s;
      Fabric.send f_p m;
      Engine.run e_p;
      ignore
        (Activermt.Runtime.run
           ~on_event:(fun e -> expected := e :: !expected)
           (Controller.tables c_ref)
           ~meta:(Activermt.Runtime.meta ~src:10 ~dst:20 ())
           pkt))
    capsules;
  let attrs_of (e : Activermt.Runtime.trace_event) =
    [
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
  let stage_events =
    List.filter_map
      (fun (ev : Trace.event) ->
        if ev.Trace.name = "device.stage" then
          Some (List.filter (fun (k, _) -> k <> "switch") ev.Trace.attrs)
        else None)
      (Trace.events tracer)
  in
  Alcotest.(check bool) "stage events emitted" true (stage_events <> []);
  Alcotest.(check (list (list (pair string string))))
    "device.stage = interpreter events"
    (List.rev_map attrs_of !expected)
    stage_events;
  Alcotest.(check bool) "deliveries equal the untraced fabric's" true (!got_s = !got_p);
  let jit_attrs =
    List.filter_map
      (fun (ev : Trace.event) ->
        if ev.Trace.name = "device.exec" then List.assoc_opt "jit" ev.Trace.attrs
        else None)
      (Trace.events tracer)
  in
  Alcotest.(check (list string)) "staged capsules are interpreted"
    [ "false"; "false"; "false" ] jit_attrs

(* -- Telemetry names ------------------------------------------------------ *)

module Telemetry = Activermt_telemetry.Telemetry

(* A small fixed run: admit a cache for client 10, then populate (RTS
   back to 10), query a hit (RTS), query a miss (on to server 20), send a
   DROP program and one plain request from an unattached address 40.
   The full counter listing is pinned, so a renamed, missing or extra
   metric (including a zero row for a counter that never fired, such as
   [sim.packets.lost] here) fails. *)
let fabric_golden_counters () =
  let tel = Telemetry.create () in
  let engine = Engine.create ~telemetry:tel () in
  let controller =
    Controller.create ~mode:`Interactive ~telemetry:tel (Rmt.Device.create params)
  in
  let fabric = Fabric.create ~telemetry:tel ~engine ~controller () in
  let regions = ref None in
  Fabric.attach fabric 10 (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Active pkt -> (
        match Negotiate.granted_regions pkt with
        | Some r -> regions := Some r
        | None -> ())
      | _ -> ());
  Fabric.attach fabric 20 (fun _ -> ());
  let send src dst payload =
    Fabric.send fabric { Fabric.src; dst; payload; trace = None };
    Engine.run engine
  in
  send 10 Fabric.switch_address
    (Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service));
  let cc =
    match
      Activermt_client.Cache_client.create params
        ~policy:Activermt_compiler.Mutant.Most_constrained ~fid:1
        ~regions:(Option.get !regions)
    with
    | Ok cc -> cc
    | Error e -> Alcotest.fail e
  in
  let module Cc = Activermt_client.Cache_client in
  let key = Workload.Kv.key_of_rank 3 in
  send 10 20 (Fabric.Active (Cc.populate_packet cc ~seq:1 key ~value:5));
  send 10 20 (Fabric.Active (Cc.query_packet cc ~seq:2 key));
  send 10 20 (Fabric.Active (Cc.query_packet cc ~seq:3 (Workload.Kv.key_of_rank 9)));
  let dropper =
    Activermt.Program.v
      (Activermt.Program.plain [ Activermt.Instr.Drop; Activermt.Instr.Return ])
  in
  send 10 20 (Fabric.Active (Pkt.exec ~fid:1 ~seq:4 ~args:[||] dropper));
  send 40 20 (Fabric.Kv_request { key });
  Telemetry.counters tel

let test_fabric_counter_golden () =
  Alcotest.(check (list (pair string int)))
    "counters"
    [
      ("alloc.admitted", 1);
      ("alloc.enumerate.miss", 1);
      ("alloc.mutants.considered", 10);
      ("alloc.mutants.feasible", 10);
      ("alloc.reallocated", 0);
      ("control.provisions", 1);
      ("jit.compile", 3);
      ("jit.hit", 1);
      ("jit.invalidate", 0);
      ("jit.miss", 3);
      ("sim.events.processed", 11);
      ("sim.events.scheduled", 11);
      ("sim.node.10.rx", 3);
      ("sim.node.10.tx", 5);
      ("sim.node.20.rx", 2);
      ("sim.node.40.tx", 1);
      ("sim.packets.delivered", 5);
      ("sim.packets.dropped", 1);
      ("sim.packets.sent", 6);
    ]
    (fabric_golden_counters ())

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "same-time FIFO" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "clock" `Quick test_engine_clock_advances;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_clamped;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "request/response" `Quick test_fabric_request_response;
          Alcotest.test_case "exec + RTS" `Quick test_fabric_exec_and_rts;
          Alcotest.test_case "uninstalled fid" `Quick test_fabric_uninstalled_fid_forwards;
          Alcotest.test_case "transit payloads" `Quick test_fabric_transit_payloads;
          Alcotest.test_case "drop accounting" `Quick test_fabric_drop_accounting;
          Alcotest.test_case "memsync over loss" `Quick test_memsync_driver_over_lossy_fabric;
          Alcotest.test_case "release" `Quick test_fabric_release;
          Alcotest.test_case "grant at modeled delay" `Quick
            test_fabric_grant_at_modeled_delay;
          Alcotest.test_case "stage-detail tracing" `Quick test_fabric_stage_detail;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "counter golden" `Quick test_fabric_counter_golden ] );
    ]
