(* Planet-scale fleet benchmark (the BENCH_alloc.json "fleetscale"
   section): the Experiments.Fleet_scale scenario — a fat-tree fleet
   admitting a large concurrent service population through the batched
   epoch pipeline under hierarchical placement, a link-flap drill
   against the incremental router, and a rolling pod failure.

   Absolute gates (checked here after writing, and by bench_compare):
   - zero FID loss and zero orphans through the rolling pod failure
     ([lost] = 0, [consistent] = 1)
   - every offered service admitted (full mode: >= 100k concurrent on
     1024 switches)
   - a single link flap touches < 5% of routed (src, dst) pairs
   bench_compare also holds [concurrent] to 0.7x and [place_p99_us] to
   2x the baseline row. *)

module Topology = Activermt_fleet.Topology
module Telemetry = Activermt_telemetry.Telemetry
module Fleet_scale = Experiments.Fleet_scale
module Stats = Stdx.Stats

let max_flap_frac = 0.05

let run ~quick =
  let cfg =
    if quick then Fleet_scale.quick_config else Fleet_scale.default_config
  in
  Printf.printf
    "== Planet-scale fleet: k=%d fat-tree, %d services, rolling pod failure ==\n"
    cfg.Fleet_scale.k cfg.Fleet_scale.services;
  let t0 = Unix.gettimeofday () in
  let r = Fleet_scale.run_scenario ~log:print_endline cfg in
  let wall_s = Unix.gettimeofday () -. t0 in
  let p50 = Stats.percentile r.Fleet_scale.place_us 50.0 in
  let p99 = Stats.percentile r.Fleet_scale.place_us 99.0 in
  Printf.printf "placement cost: p50 %.1f us/service, p99 %.1f us/service\n" p50
    p99;
  Printf.printf "scenario wall time: %.1f s\n" wall_s;

  let consistent =
    if r.Fleet_scale.lost = 0 && r.Fleet_scale.orphans = 0 then 1.0 else 0.0
  in

  (* Headline numbers ride the process registry for --metrics-out. *)
  let tel = Telemetry.default in
  Telemetry.set_gauge tel "fleetscale.switches"
    (float_of_int r.Fleet_scale.switches);
  Telemetry.set_gauge tel "fleetscale.concurrent"
    (float_of_int r.Fleet_scale.concurrent);
  Telemetry.set_gauge tel "fleetscale.occupancy" r.Fleet_scale.occupancy;
  Telemetry.set_gauge tel "fleetscale.place_p99_us" p99;
  Telemetry.set_gauge tel "fleetscale.flap_frac" r.Fleet_scale.flap_frac;
  Telemetry.set_gauge tel "fleetscale.relocated"
    (float_of_int r.Fleet_scale.relocated);
  Telemetry.set_gauge tel "fleetscale.lost" (float_of_int r.Fleet_scale.lost);

  let row = Rows.row ~section:"fleetscale" in
  let count ?gates name n = row ?gates name ~unit:"count" (float_of_int n) in
  let concurrent_gates =
    [ Rows.Abs (Ge, float_of_int r.Fleet_scale.offered); Rows.throughput_floor ]
    @ if quick then [] else [ Rows.Abs (Ge, 100_000.0) ]
  in
  let rows =
    [
      count "k" cfg.Fleet_scale.k;
      count "switches" r.Fleet_scale.switches;
      count "links" r.Fleet_scale.links;
      count "pods" r.Fleet_scale.n_pods;
      count "offered" r.Fleet_scale.offered;
      count "admitted" r.Fleet_scale.admitted;
      count "concurrent" ~gates:concurrent_gates r.Fleet_scale.concurrent;
      count "rejected" r.Fleet_scale.rejected;
      count "spillover" r.Fleet_scale.spillover;
      count "adm_epochs" r.Fleet_scale.adm_epochs;
      row "occupancy" ~unit:"fraction" r.Fleet_scale.occupancy;
      row "place_p50_us" ~unit:"us" p50;
      row "place_p99_us" ~unit:"us" ~gates:[ Rows.latency_ceiling ] p99;
      count "sssp_runs" r.Fleet_scale.sssp_runs;
      count "routed_pairs" r.Fleet_scale.routed_pairs;
      count "flap_touched" (max r.Fleet_scale.flap_down_touched r.Fleet_scale.flap_up_touched);
      row "flap_frac" ~unit:"fraction" ~gates:[ Rows.Abs (Lt, max_flap_frac) ]
        r.Fleet_scale.flap_frac;
      count "failed_switches" r.Fleet_scale.failed_switches;
      count "relocated" r.Fleet_scale.relocated;
      count "lost" ~gates:[ Rows.Abs (Eq, 0.0) ] r.Fleet_scale.lost;
      row "consistent" ~unit:"bool" ~gates:[ Rows.Abs (Eq, 1.0) ] consistent;
    ]
  in
  Rows.write ~section:"fleetscale" rows;
  Rows.check rows
