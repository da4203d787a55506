(* The benchmark runner.

     perfbench --workload <capsule_mix|admit_churn|admit_fill>
               --seed <n> --seconds <s> --trace <0|1>

   Drives one workload through the library's public API from a single
   process and thread, checks its outputs, and prints a human-readable
   report followed by one JSON line:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   With --trace 0 the metrics are BENCHMARK.json's end-to-end ones, with
   --trace 1 its per-layer ones, from a traced run (README.md describes
   both).  Values print with all their digits; a value that is not a
   finite number prints as 0 and fails the run. *)

open Common

module Json = Activermt_telemetry.Json

(* The metrics and their units, as BENCHMARK.json declares them. *)
let declared section =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let field k m = Option.bind (Json.member k m) Json.to_str in
  match Result.map (fun j -> Option.bind (Json.member section j) Json.to_arr) (Json.of_string text) with
  | Ok (Some items) ->
    List.map
      (fun m ->
        match (field "name" m, field "unit" m) with
        | Some n, Some u -> (n, u)
        | _ -> failwith ("perfbench: malformed " ^ section ^ " entry in BENCHMARK.json"))
      items
  | Ok None | Error _ -> failwith ("perfbench: no " ^ section ^ " list in BENCHMARK.json")

let usage () =
  prerr_endline
    "usage: perfbench --workload <capsule_mix|admit_churn|admit_fill> --seed <n> --seconds <s> \
     --trace <0|1>";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0.0 ->
    (w, { seed; seconds; trace })
  | _ -> usage ()

let () =
  let workload, cfg = parse_args () in
  let run =
    match workload with
    | "capsule_mix" -> Capsule.run
    | "admit_churn" -> Admission.run Admission.Admit_churn
    | "admit_fill" -> Admission.run Admission.Admit_fill
    | _ -> usage ()
  in
  let o = run cfg in
  List.iter print_endline o.report;
  Printf.printf "deterministic %s seed=%d: %s\n" workload cfg.seed
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) o.deterministic));
  let units, values =
    if cfg.trace then (declared "per_layer", o.layers) else (declared "end_to_end", o.e2e)
  in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n units) then failwith ("perfbench: undeclared metric " ^ n))
    values;
  (* A per-layer metric the workload does not exercise reads 0; every
     end-to-end metric must be measured. *)
  let value n =
    match List.assoc_opt n values with
    | Some v -> v
    | None when cfg.trace -> 0.0
    | None -> failwith ("perfbench: end-to-end metric not measured: " ^ n)
  in
  let finite = ref true in
  let metrics =
    List.map
      (fun (n, unit) ->
        let v = value n in
        if not (Float.is_finite v) then finite := false;
        Printf.printf "  %-28s %18.6f %s\n" n v unit;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
          unit)
      units
  in
  let failed = o.failed + if !finite then 0 else 1 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) o.attempted failed (String.concat ", " metrics)
