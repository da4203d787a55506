(* Chaos benchmark (the BENCH_alloc.json "chaos" section): sweep packet
   loss x retry policy over the full negotiation + memsync stack
   (lib/exp/chaos.ml), plus one hostile profile combining corruption,
   duplication, link flaps and a degraded control plane.  The CI gate:
   with retries enabled, service completion at 1% loss must stay >= 95%;
   the fire-once baseline rows document why the recovery machinery
   exists.  Every run is seeded, so a failure reproduces exactly from
   the printed seed (see docs/FAULTS.md). *)

module Chaos = Experiments.Chaos
module Faults = Netsim.Faults
module Telemetry = Activermt_telemetry.Telemetry

let seed = 0xC4A05

type row = { label : string; loss : float; retries : bool; r : Chaos.result }

let profile_for ~loss = Faults.lossy ~drop:loss ~jitter_s:1e-4 ()

let hostile =
  {
    Faults.drop = 0.02;
    duplicate = 0.05;
    corrupt = 0.02;
    jitter_s = 5e-4;
    flap_period_s = 10.0;
    flap_down_s = 0.5;
    table_update_slowdown = 20.0;
    table_update_fail = 0.2;
  }

let run_one ~label ~loss ~retries profile =
  let r = Chaos.run { Chaos.default_config with seed; retries; profile } in
  { label; loss; retries; r }

let print_row { label; loss; retries; r } =
  Printf.printf
    "%-10s loss %4.1f%%  retries %-3s  completion %5.1f%%  nego retries %3d  sync rtx %4d  fallback %3d  faults %4d\n"
    label (100.0 *. loss)
    (if retries then "on" else "off")
    (100.0 *. r.Chaos.completion)
    r.Chaos.negotiation_retries r.Chaos.sync_retransmits r.Chaos.fallback_words
    r.Chaos.fault_events

(* The claims the sweep holds: the fault-free run completes every
   service, and with retries 1% loss still completes >= 95%. *)
let gates_of { label; loss; retries; _ } =
  if label <> "loss" || not retries then []
  else if loss = 0.0 then [ Rows.Abs (Ge, 1.0) ]
  else if loss = 0.01 then [ Rows.Abs (Ge, 0.95) ]
  else []

let rows_of ({ label; loss; retries; r } as sweep) =
  let key = Printf.sprintf "%s %g retries %s" label loss (if retries then "on" else "off") in
  let row = Rows.row ~section:"chaos" ~key in
  let count name n = row name ~unit:"count" (float_of_int n) in
  [
    row "completion" ~unit:"fraction" ~gates:(gates_of sweep) r.Chaos.completion;
    count "completed" r.Chaos.completed;
    count "negotiation_retries" r.Chaos.negotiation_retries;
    count "sync_retransmits" r.Chaos.sync_retransmits;
    row "fallback_words" ~unit:"words" (float_of_int r.Chaos.fallback_words);
    count "fault_events" r.Chaos.fault_events;
    row "sim_time_s" ~unit:"s" r.Chaos.sim_time_s;
  ]

let write_trace ~path faults =
  let oc = open_out path in
  List.iter
    (fun e -> output_string oc (Format.asprintf "%a\n" Faults.pp_event e))
    (Faults.events faults);
  close_out oc

let run ~quick =
  let losses = if quick then [ 0.0; 0.01; 0.05; 0.2 ] else [ 0.0; 0.01; 0.05; 0.1; 0.2 ] in
  Printf.printf "== Chaos: protocol stack under seeded faults (seed %#x) ==\n" seed;
  let rows =
    List.concat_map
      (fun loss ->
        let label = Printf.sprintf "loss" in
        [
          run_one ~label ~loss ~retries:true (profile_for ~loss);
          run_one ~label ~loss ~retries:false (profile_for ~loss);
        ])
      losses
    @ [ run_one ~label:"hostile" ~loss:hostile.Faults.drop ~retries:true hostile ]
  in
  List.iter print_row rows;

  let completion_at ~loss ~retries =
    List.find_map
      (fun row ->
        if row.label = "loss" && row.loss = loss && row.retries = retries then
          Some row.r.Chaos.completion
        else None)
      rows
    |> Option.get
  in
  let gated = completion_at ~loss:0.01 ~retries:true in
  let baseline = completion_at ~loss:0.01 ~retries:false in
  Printf.printf
    "1%% loss: completion %.1f%% with retries vs %.1f%% fire-once baseline\n"
    (100.0 *. gated) (100.0 *. baseline);

  let hostile_row = List.nth rows (List.length rows - 1) in
  write_trace ~path:"chaos_trace.txt" hostile_row.r.Chaos.faults;
  Printf.printf "wrote %d fault events to chaos_trace.txt\n"
    (List.length (Faults.events hostile_row.r.Chaos.faults));

  (* Headline numbers ride the process registry for --metrics-out. *)
  let tel = Telemetry.default in
  Telemetry.set_gauge tel "chaos.bench.completion_1pct_retries" gated;
  Telemetry.set_gauge tel "chaos.bench.completion_1pct_baseline" baseline;
  Telemetry.set_gauge tel "chaos.bench.completion_hostile"
    hostile_row.r.Chaos.completion;
  Telemetry.set_gauge tel "chaos.bench.seed" (float_of_int seed);

  let row = Rows.row ~section:"chaos" in
  let rows =
    [
      row "seed" ~unit:"id" (float_of_int seed);
      row "services" ~unit:"count" (float_of_int Chaos.default_config.Chaos.services);
      row "words" ~unit:"words" (float_of_int Chaos.default_config.Chaos.words);
    ]
    @ List.concat_map rows_of rows
  in
  Rows.write ~section:"chaos" rows;
  Rows.check rows
