(* Tests for the bench row schema (bench/rows.ml): gate evaluation at
   and around every threshold, the relative baseline gates, the differ's
   missing-row and INFO rules, and the writer's file handling. *)

open Rows

let passes_check rows = match check rows with () -> true | exception Failure _ -> false

let gated ?(key = "") ?(section = "s") metric gates value =
  row ~section ~key ~gates metric ~unit:"x" value

let test_absolute_gates () =
  let case name gate value expect =
    Alcotest.(check bool) name expect (passes_check [ gated "m" [ gate ] value ])
  in
  let eps = 1e-9 in
  case ">= at bound" (Abs (Ge, 5.0)) 5.0 true;
  case ">= just below" (Abs (Ge, 5.0)) (5.0 -. eps) false;
  case "> at bound" (Abs (Gt, 74.0)) 74.0 false;
  case "> just above" (Abs (Gt, 74.0)) (74.0 +. eps) true;
  case "<= at bound" (Abs (Le, 0.05)) 0.05 true;
  case "<= just above" (Abs (Le, 0.05)) (0.05 +. eps) false;
  case "< at bound" (Abs (Lt, 0.05)) 0.05 false;
  case "< just below" (Abs (Lt, 0.05)) (0.05 -. eps) true;
  case "= equal" (Abs (Eq, 1.0)) 1.0 true;
  case "= off by a hair" (Abs (Eq, 1.0)) (1.0 -. eps) false;
  case "missing value fails" (Abs (Le, 0.05)) Float.nan false;
  Alcotest.(check bool) "relative gates are not checked without a baseline" true
    (passes_check [ gated "m" [ throughput_floor ] 0.0 ])

let failures ~base current = snd (diff ~base current)
let lines ~base current = fst (diff ~base current)

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let test_relative_gates () =
  let base = [ ("s", [ gated "tput" [ throughput_floor ] 100.0; gated "p99" [ latency_ceiling ] 10.0 ]) ] in
  let run tput p99 = failures ~base [ ("s", [ gated "tput" [] tput; gated "p99" [] p99 ]) ] in
  Alcotest.(check int) "at the floor and ceiling" 0 (run 70.0 20.0);
  Alcotest.(check int) "just under the floor" 1 (run 69.99 20.0);
  Alcotest.(check int) "just over the ceiling" 1 (run 70.0 20.01);
  Alcotest.(check int) "missing candidate value" 1 (run Float.nan 20.0);
  (* Absolute gates come from the candidate and hold alongside. *)
  let base = [ ("s", [ gated "speedup" [ Abs (Ge, 5.0); throughput_floor ] 6.0 ]) ] in
  let run v = failures ~base [ ("s", [ gated "speedup" [ Abs (Ge, 5.0) ] v ]) ] in
  Alcotest.(check int) "above both" 0 (run 5.0);
  Alcotest.(check int) "above the floor, below the absolute gate" 1 (run 4.9)

let test_missing_rows () =
  let base =
    [ ("s", [ gated ~key:"t8" "jain" [ Abs (Ge, 0.9) ] 1.0; gated ~key:"t8" "epochs" [] 10.0 ]) ]
  in
  let cur = [ ("s", [ gated ~key:"t8" "epochs" [] 10.0 ]) ] in
  Alcotest.(check int) "gated row missing fails" 1 (failures ~base cur);
  Alcotest.(check bool) "reported as MISSING" true
    (List.exists (starts_with "MISSING  s/t8 jain") (lines ~base cur));
  let cur = [ ("s", [ gated ~key:"t8" "jain" [ Abs (Ge, 0.9) ] 1.0 ]) ] in
  Alcotest.(check int) "ungated row missing is fine" 0 (failures ~base cur)

let test_info () =
  let base = [ ("s", [ gated "a" [] 1.0 ]); ("old", [ gated "b" [ Abs (Ge, 1.0) ] 1.0 ]) ] in
  let cur = [ ("s", [ gated "a" [] 1.0; gated "new" [] 2.0 ]); ("fresh", [ gated "c" [] 3.0 ]) ] in
  let out, n = diff ~base cur in
  Alcotest.(check int) "nothing fails" 0 n;
  Alcotest.(check (list string))
    "INFO lines"
    [
      "INFO     s new = 2 x  new row (no baseline)";
      "INFO     new section \"fresh\" (no baseline counterpart)";
      "INFO     baseline section \"old\" missing from candidate (bench entry not run?)";
    ]
    out;
  (* A candidate-only section still answers to its absolute gates. *)
  Alcotest.(check int) "new section gated" 1
    (failures ~base:[] [ ("fresh", [ gated ~section:"fresh" "c" [ Abs (Ge, 5.0) ] 3.0 ]) ])

let with_file f =
  let path = Filename.temp_file "rows" ".json" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_roundtrip () =
  with_file (fun path ->
      Sys.remove path;
      let a =
        [
          gated ~section:"a" ~key:"mixed" "speedup" [ Abs (Ge, 5.0); throughput_floor ] 6.56;
          gated ~section:"a" "flap" [ Abs (Lt, 0.05); latency_ceiling ] 0.0344238281;
          gated ~section:"a" "gone" [ Abs (Eq, 0.0); Abs (Gt, 74.0); Abs (Le, 1e-3) ] Float.nan;
        ]
      in
      let b = [ gated ~section:"b" "n" [] 42.0 ] in
      write ~path ~section:"a" a;
      write ~path ~section:"b" b;
      let a' = [ gated ~section:"a" "x" [ Abs (Gt, 74.0) ] 75.0 ] in
      write ~path ~section:"a" a';
      match load path with
      | Error e -> Alcotest.fail e
      | Ok sections ->
        Alcotest.(check bool) "replaced a in place, kept b" true
          (sections = [ ("a", a'); ("b", b) ]);
        write ~path ~section:"a" a;
        Alcotest.(check bool) "values, every gate kind and null round-trip" true
          (compare (load path) (Ok [ ("a", a); ("b", b) ]) = 0))

let test_write_refuses_garbage () =
  with_file (fun path ->
      write_file path "{\"device\": [";
      Alcotest.(check bool) "unparseable file raises" true
        (match write ~path ~section:"a" [] with () -> false | exception Failure _ -> true);
      Alcotest.(check string) "file untouched" "{\"device\": [" (read_file path);
      Alcotest.(check bool) "no temp file left" false (Sys.file_exists (path ^ ".tmp")))

let () =
  Alcotest.run "rows"
    [
      ( "gates",
        [
          Alcotest.test_case "absolute" `Quick test_absolute_gates;
          Alcotest.test_case "relative" `Quick test_relative_gates;
        ] );
      ( "differ",
        [
          Alcotest.test_case "missing gated row" `Quick test_missing_rows;
          Alcotest.test_case "info lines" `Quick test_info;
        ] );
      ( "file",
        [
          Alcotest.test_case "write/load roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "refuses unparseable file" `Quick test_write_refuses_garbage;
        ] );
    ]
