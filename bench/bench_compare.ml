(* CI bench-regression gate: compare a fresh BENCH_alloc.json against the
   committed bench/baseline_alloc.json and fail (exit 1) when admit
   throughput drops by more than the tolerance or p99 latency grows past
   the allowed factor.

     bench_compare.exe BASELINE CURRENT [--max-tput-drop 0.30] [--max-p99-growth 2.0]

   Records are matched per workload.  Wide default tolerances absorb
   runner-speed noise; the gate exists to catch order-of-magnitude
   regressions, not 5% jitter.

   Candidate-only material is informational, never a failure: fastpath
   records with no matching baseline workload and top-level sections the
   baseline lacks (e.g. a newly added "fleet" section) print as INFO
   lines, so new bench entries can land before the baseline is
   refreshed.  Only regressed or missing *common* entries gate. *)

module Json = Activermt_telemetry.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench_compare: " ^ s); exit 2) fmt

let load path =
  let ic = try open_in path with Sys_error e -> die "%s" e in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  match Json.of_string text with
  | Ok v -> v
  | Error e -> die "%s: %s" path e

type record = {
  workload : string;
  arrivals_per_sec : float;
  p99_ms : float;
}

let records_of path json =
  match Json.(member "fastpath" json |> Option.map to_arr) with
  | Some (Some items) ->
    List.map
      (fun item ->
        let num key =
          match Json.(member key item |> Option.map to_num) with
          | Some (Some v) -> v
          | _ -> die "%s: fastpath record missing %S" path key
        in
        let workload =
          match Json.(member "workload" item |> Option.map to_str) with
          | Some (Some w) -> w
          | _ -> die "%s: fastpath record missing \"workload\"" path
        in
        {
          workload;
          arrivals_per_sec = num "arrivals_per_sec";
          p99_ms = num "p99_ms";
        })
      items
  | _ -> die "%s: no \"fastpath\" array" path

(* The device section (interpreter vs JIT exec throughput).  Raw pkt/s
   moves with the runner, but the *speedup* is a ratio of two
   measurements on the same box, so it gates tightly: each workload's
   speedup may not drop below (1 - max_drop) x baseline, and the mixed
   workload must additionally clear the absolute [min_speedup] the bench
   promises (the PR's >= 5x acceptance gate). *)
let device_rows json =
  match Json.member "device" json with
  | None -> None
  | Some section ->
    let rows =
      match Json.(member "workloads" section |> Option.map to_arr) with
      | Some (Some items) ->
        List.filter_map
          (fun item ->
            match
              ( Json.(member "workload" item |> Option.map to_str),
                Json.(member "speedup" item |> Option.map to_num) )
            with
            | Some (Some w), Some (Some s) -> Some (w, s)
            | _ -> None)
          items
      | _ -> []
    in
    let min_speedup =
      match Json.(member "min_speedup" section |> Option.map to_num) with
      | Some (Some v) -> v
      | _ -> 0.0
    in
    Some (min_speedup, rows)

let compare_device ~max_drop ~failures base_json cur_json =
  match (device_rows base_json, device_rows cur_json) with
  | Some (_, base_rows), Some (min_speedup, cur_rows) ->
    List.iter
      (fun (workload, b) ->
        match List.assoc_opt workload cur_rows with
        | None ->
          incr failures;
          Printf.printf "MISSING  device %-6s  no matching workload in candidate\n"
            workload
        | Some c ->
          let floor = (1.0 -. max_drop) *. b in
          let floor = if workload = "mixed" then Float.max floor min_speedup else floor in
          let ok = c >= floor in
          if not ok then incr failures;
          Printf.printf "%-7s  device %-6s  jit speedup %5.2fx -> %5.2fx (floor %5.2fx)\n"
            (if ok then "OK" else "REGRESS")
            workload b c floor)
      base_rows
  | None, Some (min_speedup, cur_rows) ->
    (* New section: no baseline yet, but the absolute gate still holds. *)
    List.iter
      (fun (workload, c) ->
        if workload = "mixed" && c < min_speedup then begin
          incr failures;
          Printf.printf "REGRESS  device %-6s  jit speedup %5.2fx below %.1fx gate\n"
            workload c min_speedup
        end)
      cur_rows
  | _, None -> ()

(* The churn section (batched epoch admission at scale).  Three gated
   metrics:
   - batch_speedup: batched-vs-sequential ratio measured on one box (like
     the device speedup) — may not drop below (1 - max_drop) x baseline,
     and must always clear the absolute [min_batch_speedup] the bench
     promises (the PR's >= 10x acceptance gate), baseline or not;
   - p99_tts_ms: modeled p99 time-to-service.  It comes off the
     deterministic virtual clock, so unlike wall-clock p99s it is
     machine-independent; growth past [max_growth] x baseline fails;
   - batched_arrivals_per_sec: measured throughput, floored like the
     fastpath rows. *)
let churn_row json =
  match Json.member "churn" json with
  | None -> None
  | Some section ->
    let num key =
      match Json.(member key section |> Option.map to_num) with
      | Some (Some v) -> Some v
      | _ -> None
    in
    Some
      ( Option.value ~default:0.0 (num "min_batch_speedup"),
        num "batch_speedup",
        num "p99_tts_ms",
        num "batched_arrivals_per_sec" )

let compare_churn ~max_drop ~max_growth ~failures base_json cur_json =
  let gate name ok fmt =
    Printf.ksprintf
      (fun detail ->
        if not ok then incr failures;
        Printf.printf "%-7s  churn  %-22s %s\n"
          (if ok then "OK" else "REGRESS")
          name detail)
      fmt
  in
  let missing name =
    incr failures;
    Printf.printf "MISSING  churn  %-22s absent from candidate section\n" name
  in
  match (churn_row base_json, churn_row cur_json) with
  | Some (_, b_speed, b_p99, b_tput), Some (min_speedup, c_speed, c_p99, c_tput)
    ->
    (match c_speed with
    | None -> missing "batch_speedup"
    | Some c ->
      let floor =
        Float.max min_speedup
          (match b_speed with
          | Some b -> (1.0 -. max_drop) *. b
          | None -> 0.0)
      in
      gate "batch_speedup" (c >= floor) "%5.2fx (floor %5.2fx)" c floor);
    (match c_p99 with
    | None -> missing "p99_tts_ms"
    | Some c ->
      (match b_p99 with
      | Some b ->
        let ceil = max_growth *. b in
        gate "p99_tts_ms" (c <= ceil) "%8.3f -> %8.3f ms (ceil %8.3f)" b c ceil
      | None -> ()));
    (match (c_tput, b_tput) with
    | None, _ -> missing "batched_arrivals_per_sec"
    | Some c, Some b ->
      let floor = (1.0 -. max_drop) *. b in
      gate "batched_arrivals_per_sec" (c >= floor)
        "%9.1f -> %9.1f /s (floor %9.1f)" b c floor
    | Some _, None -> ())
  | None, Some (min_speedup, c_speed, _, _) ->
    (* New section: no baseline yet, but the absolute speedup gate still
       holds, exactly like a device section landing for the first time. *)
    (match c_speed with
    | Some c when c < min_speedup ->
      incr failures;
      Printf.printf "REGRESS  churn  batch_speedup %5.2fx below %.1fx gate\n" c
        min_speedup
    | _ -> ())
  | _, None -> ()

(* The tenants section (multi-tenant fairness under a noisy neighbor).
   Per tenant-count row:
   - jain_wb and min_retained_wb gate against the absolute floors the
     section itself declares (min_jain / min_retained) — they come off
     the deterministic modeled clock, so they hold baseline or not,
     exactly like the churn section's absolute speedup gate;
   - the zero-FID-loss audit flag must be 1;
   - p99_admit_ms is modeled (machine-independent): growth past
     [max_growth] x the matching baseline row fails. *)
let tenant_rows json =
  match Json.member "tenants" json with
  | None -> None
  | Some section ->
    let floor key =
      match Json.(member key section |> Option.map to_num) with
      | Some (Some v) -> v
      | _ -> 0.0
    in
    let rows =
      match Json.(member "sweep" section |> Option.map to_arr) with
      | Some (Some items) ->
        List.filter_map
          (fun item ->
            let num key =
              match Json.(member key item |> Option.map to_num) with
              | Some (Some v) -> Some v
              | _ -> None
            in
            match num "tenants" with
            | Some n ->
              Some
                ( int_of_float n,
                  num "jain_wb",
                  num "min_retained_wb",
                  num "p99_admit_ms",
                  num "consistent" )
            | None -> None)
          items
      | _ -> []
    in
    Some (floor "min_jain", floor "min_retained", rows)

let compare_tenants ~max_growth ~failures base_json cur_json =
  match tenant_rows cur_json with
  | None -> ()
  | Some (min_jain, min_retained, cur_rows) ->
    let base_rows =
      match tenant_rows base_json with Some (_, _, r) -> r | None -> []
    in
    let gate n name ok fmt =
      Printf.ksprintf
        (fun detail ->
          if not ok then incr failures;
          Printf.printf "%-7s  tenants t%-4d %-16s %s\n"
            (if ok then "OK" else "REGRESS")
            n name detail)
        fmt
    in
    List.iter
      (fun (n, jain, retained, p99, consistent) ->
        (match jain with
        | Some j -> gate n "jain_wb" (j >= min_jain) "%.4f (floor %.2f)" j min_jain
        | None ->
          incr failures;
          Printf.printf "MISSING  tenants t%-4d jain_wb absent\n" n);
        (match retained with
        | Some r ->
          gate n "min_retained_wb" (r >= min_retained) "%.4f (floor %.2f)" r
            min_retained
        | None ->
          incr failures;
          Printf.printf "MISSING  tenants t%-4d min_retained_wb absent\n" n);
        (match consistent with
        | Some c -> gate n "fid_audit" (c = 1.0) "%s" (if c = 1.0 then "clean" else "FAILED")
        | None -> ());
        match
          ( p99,
            List.find_opt (fun (bn, _, _, _, _) -> bn = n) base_rows )
        with
        | Some c, Some (_, _, _, Some b, _) ->
          let ceil = max_growth *. b in
          gate n "p99_admit_ms" (c <= ceil) "%8.3f -> %8.3f ms (ceil %8.3f)" b c
            ceil
        | _ -> ())
      cur_rows;
    List.iter
      (fun (bn, _, _, _, _) ->
        if not (List.exists (fun (n, _, _, _, _) -> n = bn) cur_rows) then
          Printf.printf
            "INFO     tenants t%-4d in baseline but not candidate (quick mode?)\n"
            bn)
      base_rows

(* The fleetscale section (planet-scale fat-tree fleet).  Absolute gates
   hold baseline or not, exactly like the tenants floors:
   - zero FID loss through the rolling pod failure ([lost] == 0 and the
     [consistent] audit == 1);
   - the link-flap repair stays under the [max_flap_frac] ceiling the
     section itself declares (deterministic: touched / routed pairs).
   Baseline-relative gates:
   - [concurrent] admitted services may not drop below
     (1 - max_drop) x baseline;
   - [place_p99_us] is wall-clock derived, so it gets the loose
     [max_growth] ceiling like the fastpath p99 rows. *)
let fleetscale_row json =
  match Json.member "fleetscale" json with
  | None -> None
  | Some section ->
    let num key =
      match Json.(member key section |> Option.map to_num) with
      | Some (Some v) -> Some v
      | _ -> None
    in
    Some
      ( num "concurrent",
        num "lost",
        num "consistent",
        num "flap_frac",
        num "max_flap_frac",
        num "place_p99_us" )

let compare_fleetscale ~max_drop ~max_growth ~failures base_json cur_json =
  match fleetscale_row cur_json with
  | None -> ()
  | Some (c_conc, c_lost, c_cons, c_frac, c_max_frac, c_p99) ->
    let gate name ok fmt =
      Printf.ksprintf
        (fun detail ->
          if not ok then incr failures;
          Printf.printf "%-7s  fleetscale  %-16s %s\n"
            (if ok then "OK" else "REGRESS")
            name detail)
        fmt
    in
    let missing name =
      incr failures;
      Printf.printf "MISSING  fleetscale  %-16s absent from candidate section\n"
        name
    in
    (match c_lost with
    | None -> missing "lost"
    | Some l -> gate "lost" (l = 0.0) "%.0f FIDs" l);
    (match c_cons with
    | None -> missing "consistent"
    | Some c ->
      gate "fid_audit" (c = 1.0) "%s" (if c = 1.0 then "clean" else "FAILED"));
    (match c_frac with
    | None -> missing "flap_frac"
    | Some f ->
      let ceil = Option.value ~default:0.05 c_max_frac in
      gate "flap_frac" (f <= ceil) "%.4f%% (ceil %.1f%%)" (100.0 *. f)
        (100.0 *. ceil));
    (match fleetscale_row base_json with
    | None -> ()
    | Some (b_conc, _, _, _, _, b_p99) ->
      (match (c_conc, b_conc) with
      | Some c, Some b ->
        let floor = (1.0 -. max_drop) *. b in
        gate "concurrent" (c >= floor) "%.0f -> %.0f services (floor %.0f)" b c
          floor
      | None, Some _ -> missing "concurrent"
      | _ -> ());
      match (c_p99, b_p99) with
      | Some c, Some b ->
        let ceil = max_growth *. b in
        gate "place_p99_us" (c <= ceil) "%8.1f -> %8.1f us (ceil %8.1f)" b c
          ceil
      | _ -> ())

(* The health section (recording overhead).  Wall times move with the
   runner, but overhead_frac is a ratio of two measurements on the same
   box, so it gates absolutely against the ceiling the section itself
   declares — like the fleetscale flap_frac gate.  The decision audit
   and the no-page check are deterministic and gate absolutely too. *)
let health_row json =
  match Json.member "health" json with
  | None -> None
  | Some section ->
    let num key =
      match Json.(member key section |> Option.map to_num) with
      | Some (Some v) -> Some v
      | _ -> None
    in
    Some
      ( num "overhead_frac",
        num "max_overhead",
        num "decisions_identical",
        num "pages" )

let compare_health ~failures base_json cur_json =
  match health_row cur_json with
  | None -> ()
  | Some (c_frac, c_max, c_ident, c_pages) ->
    let gate name ok fmt =
      Printf.ksprintf
        (fun detail ->
          if not ok then incr failures;
          Printf.printf "%-7s  health      %-16s %s\n"
            (if ok then "OK" else "REGRESS")
            name detail)
        fmt
    in
    let missing name =
      incr failures;
      Printf.printf "MISSING  health      %-16s absent from candidate section\n"
        name
    in
    (match c_frac with
    | None -> missing "overhead_frac"
    | Some f ->
      let ceil = Option.value ~default:0.05 c_max in
      gate "overhead_frac" (f <= ceil) "%.2f%% (ceil %.0f%%)" (100.0 *. f)
        (100.0 *. ceil));
    (match c_ident with
    | None -> missing "decisions"
    | Some d ->
      gate "decisions" (d = 1.0) "%s"
        (if d = 1.0 then "identical with recording on" else "DIVERGED"));
    (match c_pages with
    | None -> missing "pages"
    | Some p -> gate "pages" (p = 0.0) "%.0f on the healthy workload" p);
    if health_row base_json = None then
      Printf.printf "INFO     health      new section (no baseline)\n"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse paths drop growth = function
    | [] -> (List.rev paths, drop, growth)
    | "--max-tput-drop" :: v :: rest -> parse paths (float_of_string v) growth rest
    | "--max-p99-growth" :: v :: rest -> parse paths drop (float_of_string v) rest
    | p :: rest -> parse (p :: paths) drop growth rest
  in
  let paths, max_drop, max_growth = parse [] 0.30 2.0 args in
  let base_path, cur_path =
    match paths with
    | [ b; c ] -> (b, c)
    | _ -> die "usage: bench_compare.exe BASELINE CURRENT [--max-tput-drop F] [--max-p99-growth F]"
  in
  let base_json = load base_path in
  let cur_json = load cur_path in
  let base = records_of base_path base_json in
  let cur = records_of cur_path cur_json in
  let failures = ref 0 in
  List.iter
    (fun b ->
      match List.find_opt (fun c -> c.workload = b.workload) cur with
      | None ->
        incr failures;
        Printf.printf "MISSING  %-6s  no matching record in %s\n" b.workload
          cur_path
      | Some c ->
        let tput_floor = (1.0 -. max_drop) *. b.arrivals_per_sec in
        let p99_ceil = max_growth *. b.p99_ms in
        let tput_ok = c.arrivals_per_sec >= tput_floor in
        let p99_ok = c.p99_ms <= p99_ceil in
        if not (tput_ok && p99_ok) then incr failures;
        Printf.printf
          "%-7s  %-6s  tput %9.1f -> %9.1f /s (floor %9.1f)  p99 %7.3f -> %7.3f ms (ceil %7.3f)\n"
          (if tput_ok && p99_ok then "OK" else "REGRESS")
          b.workload b.arrivals_per_sec c.arrivals_per_sec tput_floor
          b.p99_ms c.p99_ms p99_ceil)
    base;
  compare_device ~max_drop ~failures base_json cur_json;
  compare_churn ~max_drop ~max_growth ~failures base_json cur_json;
  compare_tenants ~max_growth ~failures base_json cur_json;
  compare_fleetscale ~max_drop ~max_growth ~failures base_json cur_json;
  compare_health ~failures base_json cur_json;
  (* Candidate-only entries: new configurations the baseline doesn't
     know yet.  Report, don't gate. *)
  List.iter
    (fun c ->
      if not (List.exists (fun b -> b.workload = c.workload) base) then
        Printf.printf "INFO     %-6s  new entry (no baseline): tput %9.1f /s  p99 %7.3f ms\n"
          c.workload c.arrivals_per_sec c.p99_ms)
    cur;
  (match (Json.to_obj cur_json, Json.to_obj base_json) with
  | Some cur_fields, Some base_fields ->
    List.iter
      (fun (key, _) ->
        if not (List.mem_assoc key base_fields) then
          Printf.printf "INFO     new section %S (no baseline counterpart)\n" key)
      cur_fields;
    (* The mirror image: a baseline section the candidate run silently
       dropped — usually a bench entry that wasn't selected.  Surface
       it so the omission is a deliberate choice, not an accident. *)
    List.iter
      (fun (key, _) ->
        if not (List.mem_assoc key cur_fields) then
          Printf.printf
            "INFO     baseline section %S missing from candidate (bench entry not run?)\n"
            key)
      base_fields
  | _ -> ());
  if !failures > 0 then begin
    Printf.printf "%d regression(s) against %s\n" !failures base_path;
    exit 1
  end;
  Printf.printf "no regressions against %s (tput drop <= %.0f%%, p99 growth <= %.1fx)\n"
    base_path (100.0 *. max_drop) max_growth
