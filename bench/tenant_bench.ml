(* Multi-tenant fairness benchmark (the BENCH_alloc.json "tenants"
   section): the noisy-neighbor scenario of Experiments.Tenants at
   several tenant counts.

     quick  8 and 64 tenants (the CI smoke scale)
     full   8, 64 and 512 tenants

   Per size the gates are absolute, not baseline-relative, because the
   quantities are deterministic (modeled clock, seeded shuffle):
   - Jain's fairness index over well-behaved tenants >= [min_jain];
   - every well-behaved tenant retains >= [min_retained] of its weighted
     fair share despite the hostile tenant's 10x flood;
   - the zero-FID-loss audit holds (residents, decisions and parked
     state tile the submitted FIDs).
   bench_compare additionally fails if the modeled p99 admission latency
   more than doubles against the committed baseline. *)

module Tenants = Experiments.Tenants
module Telemetry = Activermt_telemetry.Telemetry

let min_jain = 0.9
let min_retained = 0.9

let rows_of ~tenants (r : Tenants.result) =
  let row = Rows.row ~section:"tenants" ~key:(Printf.sprintf "t%d" tenants) in
  let count name n = row name ~unit:"count" (float_of_int n) in
  [
    count "demand_blocks" r.Tenants.config.Tenants.demand_blocks;
    row "jain_wb" ~unit:"index" ~gates:[ Rows.Abs (Ge, min_jain) ] r.Tenants.jain_wb;
    row "min_retained_wb" ~unit:"fraction" ~gates:[ Rows.Abs (Ge, min_retained) ]
      r.Tenants.min_retained_wb;
    row "p50_admit_ms" ~unit:"ms" (1000.0 *. r.Tenants.p50_admit_s);
    row "p99_admit_ms" ~unit:"ms" ~gates:[ Rows.latency_ceiling ] (1000.0 *. r.Tenants.p99_admit_s);
    count "granted" r.Tenants.granted;
    count "denied_capacity" r.Tenants.denied_capacity;
    count "evictions" r.Tenants.evictions;
    count "relocations" r.Tenants.relocations;
    count "epochs" r.Tenants.epochs;
    row "consistent" ~unit:"bool" ~gates:[ Rows.Abs (Eq, 1.0) ]
      (if r.Tenants.consistent then 1.0 else 0.0);
  ]

let run ~quick =
  let sizes = if quick then [ 8; 64 ] else [ 8; 64; 512 ] in
  Printf.printf
    "== Multi-tenant fairness: noisy neighbor at 10x offered load ==\n";
  let rows =
    List.concat_map
      (fun tenants ->
        let cfg = Tenants.preset ~tenants () in
        let r = Tenants.run ~clock:Unix.gettimeofday cfg in
        Printf.printf
          "%4d tenants  jain %.4f  min-retained %.4f  p99 admit %.3f ms  \
           (%d granted, %d evictions, %d relocations, %d epochs)%s\n"
          tenants r.Tenants.jain_wb r.Tenants.min_retained_wb
          (1000.0 *. r.Tenants.p99_admit_s)
          r.Tenants.granted r.Tenants.evictions r.Tenants.relocations
          r.Tenants.epochs
          (if r.Tenants.consistent then "" else "  FID AUDIT FAILED");
        let tel = Telemetry.default in
        let g name v = Telemetry.set_gauge tel (Printf.sprintf "tenant.bench.t%d.%s" tenants name) v in
        g "jain_wb" r.Tenants.jain_wb;
        g "min_retained_wb" r.Tenants.min_retained_wb;
        g "p99_admit_ms" (1000.0 *. r.Tenants.p99_admit_s);
        rows_of ~tenants r)
      sizes
  in
  Rows.write ~section:"tenants" rows;
  Rows.check rows
