(* CI bench-regression gate: diff a fresh BENCH_alloc.json against the
   committed bench/baseline_alloc.json row by row and exit 1 on any
   failed gate.

     bench_compare.exe BASELINE CURRENT

   Each candidate row is held to its own absolute gates (the ones the
   bench binary already checked) and to the relative gates of the
   matching baseline row (e.g. throughput >= 0.7 x baseline, p99 <= 2 x
   baseline).  A gated baseline row missing from a section the candidate
   ran fails.  Candidate-only rows and sections, and baseline sections
   the candidate did not run, print as INFO lines.  See bench/rows.mli. *)

let () =
  let base_path, cur_path =
    match List.tl (Array.to_list Sys.argv) with
    | [ b; c ] -> (b, c)
    | _ ->
      prerr_endline "usage: bench_compare.exe BASELINE CURRENT";
      exit 2
  in
  let load path =
    match Rows.load path with
    | Ok sections -> sections
    | Error e ->
      prerr_endline ("bench_compare: " ^ e);
      exit 2
  in
  let base = load base_path in
  let lines, failures = Rows.diff ~base (load cur_path) in
  List.iter print_endline lines;
  if failures > 0 then begin
    Printf.printf "%d regression(s) against %s\n" failures base_path;
    exit 1
  end;
  Printf.printf "no regressions against %s\n" base_path
