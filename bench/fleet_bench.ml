(* Fleet capacity benchmark (the BENCH_alloc.json "fleet" section): the
   same seeded mixed workload is offered to a single switch and to a
   4-switch full mesh under least-loaded placement — the fleet must
   admit strictly more concurrent services — followed by a failure
   drill: a loaded switch is forcibly failed and every resident service
   must be re-placed on the survivors with zero lost FIDs.

   Runs on small 32-block stages so both fleets saturate quickly; the
   numbers measure placement behaviour, not raw switch capacity. *)

module Topology = Activermt_fleet.Topology
module Placement = Activermt_fleet.Placement
module Fleet = Activermt_fleet.Fleet
module Telemetry = Activermt_telemetry.Telemetry
module Churn = Workload.Churn

let params = Rmt.Params.with_blocks_per_stage Rmt.Params.default 32

let arrivals ~n ~seed =
  List.concat_map
    (fun (e : Churn.epoch) ->
      List.filter_map
        (function
          | Churn.Arrive { fid; kind; _ } -> Some (fid, kind)
          | Churn.Depart _ -> None)
        e.Churn.events)
    (Churn.mixed_arrivals ~n (Stdx.Prng.create ~seed))

type capacity = {
  switches : int;
  offered : int;
  admitted : int;
  concurrent : int;
  spillover : int;
  occupancy : float;
}

let offer ~switches ~n ~seed =
  let tel = Telemetry.create () in
  let topo = Topology.full_mesh ~switches ~latency_s:1e-5 in
  let fleet =
    Fleet.create ~policy:Placement.Least_loaded ~params ~telemetry:tel topo
  in
  List.iter
    (fun (fid, kind) ->
      ignore (Fleet.admit fleet ~fid (Experiments.Harness.app_of_kind kind)))
    (arrivals ~n ~seed);
  ( fleet,
    {
      switches;
      offered = n;
      admitted = Telemetry.counter_value tel "fleet.admitted";
      concurrent = List.length (Fleet.residents fleet);
      spillover = Telemetry.counter_value tel "fleet.spillover";
      occupancy =
        Option.value ~default:0.0 (Telemetry.gauge_value tel "fleet.occupancy");
    } )

let rows_of_capacity ?gates c =
  let row = Rows.row ~section:"fleet" ~key:(Printf.sprintf "%dsw" c.switches) in
  let count ?gates name n = row ?gates name ~unit:"count" (float_of_int n) in
  [
    count "offered" c.offered;
    count "admitted" c.admitted;
    count ?gates "concurrent" c.concurrent;
    count "spillover" c.spillover;
    row "occupancy" ~unit:"fraction" c.occupancy;
  ]

let print_capacity c =
  Printf.printf
    "%d switch%s  %4d offered  %4d admitted  %4d concurrent  %4d spilled  occupancy %.3f\n"
    c.switches
    (if c.switches = 1 then " " else "es")
    c.offered c.admitted c.concurrent c.spillover c.occupancy

let run ~quick =
  let n = if quick then 100 else 300 in
  let seed = 7001 in
  Printf.printf "== Fleet placement: capacity and failover (n=%d arrivals) ==\n" n;
  let _fleet1, one = offer ~switches:1 ~n ~seed in
  let _fleet4, four = offer ~switches:4 ~n ~seed in
  print_capacity one;
  print_capacity four;
  let scaling =
    if one.concurrent > 0 then
      float_of_int four.concurrent /. float_of_int one.concurrent
    else 0.0
  in
  Printf.printf "concurrency scaling 4sw/1sw: %.2fx\n" scaling;

  (* Failure drill: a fresh 4-switch fleet at full stage capacity, loaded
     below saturation so the drill measures re-placement (and its state
     recovery), not whether the survivors happen to have room. *)
  let drill_tel = Telemetry.create () in
  let drill =
    Fleet.create ~policy:Placement.Least_loaded ~params:Rmt.Params.default
      ~telemetry:drill_tel
      (Topology.full_mesh ~switches:4 ~latency_s:1e-5)
  in
  List.iter
    (fun (fid, kind) ->
      ignore (Fleet.admit drill ~fid (Experiments.Harness.app_of_kind kind)))
    (arrivals ~n:(n / 3) ~seed:(seed + 1));
  let victim, victim_residents =
    List.fold_left
      (fun ((_, best) as acc) sw ->
        let r = List.length (Fleet.residents_of drill ~sw) in
        if r > best then (sw, r) else acc)
      (0, -1)
      [ 0; 1; 2; 3 ]
  in
  let { Fleet.relocated; lost } = Fleet.fail_switch drill ~sw:victim in
  Printf.printf
    "failure drill: failed switch %d (%d residents) -> %d relocated, %d lost\n"
    victim victim_residents (List.length relocated) (List.length lost);

  (* Headline numbers ride the process registry for --metrics-out. *)
  let tel = Telemetry.default in
  Telemetry.set_gauge tel "fleet.bench.concurrent_1sw" (float_of_int one.concurrent);
  Telemetry.set_gauge tel "fleet.bench.concurrent_4sw" (float_of_int four.concurrent);
  Telemetry.set_gauge tel "fleet.bench.scaling" scaling;
  Telemetry.set_gauge tel "fleet.bench.failover_relocated"
    (float_of_int (List.length relocated));
  Telemetry.set_gauge tel "fleet.bench.failover_lost"
    (float_of_int (List.length lost));

  let policy = Placement.policy_to_string Placement.Least_loaded in
  let row = Rows.row ~section:"fleet" in
  let failover ?gates name n = row ~key:"failover" ?gates name ~unit:"count" (float_of_int n) in
  let rows =
    [
      row ~key:policy "arrivals" ~unit:"count" (float_of_int n);
      row ~key:policy "blocks_per_stage" ~unit:"blocks"
        (float_of_int params.Rmt.Params.blocks_per_stage);
      row ~key:policy "concurrency_scaling" ~unit:"x" scaling;
    ]
    @ rows_of_capacity one
    (* the fleet must admit strictly more than one switch *)
    @ rows_of_capacity ~gates:[ Rows.Abs (Gt, float_of_int one.concurrent) ] four
    @ [
        row ~key:"failover" "failed_switch" ~unit:"id" (float_of_int victim);
        failover "residents" victim_residents;
        failover "relocated" (List.length relocated);
        failover "lost" ~gates:[ Rows.Abs (Eq, 0.0) ] (List.length lost);
      ]
  in
  Rows.write ~section:"fleet" rows;
  Rows.check rows
