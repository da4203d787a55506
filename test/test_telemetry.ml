(* Unit and property tests for the telemetry subsystem: counters, gauges,
   log-bucketed histograms (accuracy vs a sorted-sample oracle), span
   timers and JSON round-trips. *)

module Telemetry = Activermt_telemetry.Telemetry
module Json = Activermt_telemetry.Json
module Timeseries = Activermt_telemetry.Timeseries

let check_float = Alcotest.(check (float 1e-9))

(* -- Counters and gauges -------------------------------------------------- *)

let test_counter_basic () =
  let t = Telemetry.create () in
  Alcotest.(check int) "absent" 0 (Telemetry.counter_value t "c");
  Telemetry.incr t "c";
  Telemetry.incr t "c" ~by:4;
  Alcotest.(check int) "accumulates" 5 (Telemetry.counter_value t "c");
  Telemetry.incr t "other";
  Alcotest.(check (list (pair string int)))
    "sorted listing"
    [ ("c", 5); ("other", 1) ]
    (Telemetry.counters t)

let test_gauge_last_write_wins () =
  let t = Telemetry.create () in
  Alcotest.(check (option (float 0.0))) "absent" None (Telemetry.gauge_value t "g");
  Telemetry.set_gauge t "g" 1.5;
  Telemetry.set_gauge t "g" 7.25;
  Alcotest.(check (option (float 1e-9))) "last value" (Some 7.25)
    (Telemetry.gauge_value t "g")

let test_kind_mismatch () =
  let t = Telemetry.create () in
  Telemetry.incr t "m";
  Alcotest.check_raises "counter as histogram"
    (Invalid_argument "Telemetry: metric \"m\" already registered as a counter")
    (fun () -> Telemetry.observe t "m" 1.0)

let test_reset () =
  let t = Telemetry.create () in
  Telemetry.incr t "c" ~by:3;
  Telemetry.observe t "h" 0.5;
  Telemetry.reset t;
  Alcotest.(check int) "counter cleared" 0 (Telemetry.counter_value t "c");
  Alcotest.(check bool) "histogram cleared" true
    (Telemetry.hist_summary t "h" = None)

(* -- Handles -------------------------------------------------------------- *)

let contains hay needle =
  let nl = String.length needle and l = String.length hay in
  let rec go i = i + nl <= l && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_handle_shares_cell () =
  let t = Telemetry.create () in
  let c = Telemetry.counter t "c" in
  Telemetry.bump c;
  Alcotest.(check int) "handle -> by name" 1 (Telemetry.counter_value t "c");
  Telemetry.incr t "c" ~by:4;
  Telemetry.bump c;
  Alcotest.(check int) "by name -> handle" 6 (Telemetry.counter_value t "c");
  Telemetry.bump (Telemetry.counter t "c");
  Alcotest.(check (list (pair string int))) "a second lookup is the same cell"
    [ ("c", 7) ] (Telemetry.counters t);
  let g = Telemetry.gauge t "g" in
  Telemetry.set g 2.5;
  Alcotest.(check (option (float 0.0))) "gauge handle -> by name" (Some 2.5)
    (Telemetry.gauge_value t "g");
  Telemetry.set_gauge t "g" 4.0;
  Alcotest.(check (option (float 0.0))) "by name overwrites the handle's cell"
    (Some 4.0) (Telemetry.gauge_value t "g");
  Telemetry.set g 1.0;
  Alcotest.(check (list (pair string (float 0.0)))) "one gauge row"
    [ ("g", 1.0) ] (Telemetry.gauges t)

let test_handle_kind_mismatch () =
  let t = Telemetry.create () in
  Telemetry.incr t "m";
  Telemetry.observe t "h" 1.0;
  ignore (Telemetry.gauge t "g");
  Alcotest.check_raises "gauge handle on a counter"
    (Invalid_argument "Telemetry: metric \"m\" already registered as a counter")
    (fun () -> ignore (Telemetry.gauge t "m"));
  Alcotest.check_raises "counter handle on a histogram"
    (Invalid_argument "Telemetry: metric \"h\" already registered as a histogram")
    (fun () -> ignore (Telemetry.counter t "h"));
  Alcotest.check_raises "incr on a gauge handle's name"
    (Invalid_argument "Telemetry: metric \"g\" already registered as a gauge")
    (fun () -> Telemetry.incr t "g")

let test_unrecorded_handle_invisible () =
  let t = Telemetry.create () in
  let _c = Telemetry.counter t "never.counted" in
  let _g = Telemetry.gauge t "never.set" in
  Telemetry.incr t "seen";
  Alcotest.(check (list (pair string int))) "counters" [ ("seen", 1) ]
    (Telemetry.counters t);
  Alcotest.(check int) "no gauges" 0 (List.length (Telemetry.gauges t));
  Alcotest.(check (option (float 0.0))) "gauge read" None
    (Telemetry.gauge_value t "never.set");
  let json = Telemetry.dump_json t and prom = Telemetry.dump_prometheus t in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("json omits " ^ name) false (contains json name);
      Alcotest.(check bool)
        ("prometheus omits " ^ name)
        false
        (contains prom (Telemetry.prom_name name)))
    [ "never.counted"; "never.set" ];
  (* A zero-by increment is a record: the row appears with value 0. *)
  Telemetry.incr t "never.counted" ~by:0;
  Alcotest.(check (list (pair string int))) "seeded row"
    [ ("never.counted", 0); ("seen", 1) ]
    (Telemetry.counters t)

let test_reset_keeps_handles () =
  let t = Telemetry.create () in
  let c = Telemetry.counter t "sim.packets.sent" in
  let g = Telemetry.gauge t "sim.queue_depth" in
  Telemetry.incr t "sim.packets.sent" ~by:3;
  Telemetry.set g 2.0;
  Telemetry.reset t;
  Alcotest.(check int) "cleared" 0 (Telemetry.counter_value t "sim.packets.sent");
  Alcotest.(check (list (pair string int))) "no rows" [] (Telemetry.counters t);
  Alcotest.(check (option (float 0.0))) "gauge cleared" None
    (Telemetry.gauge_value t "sim.queue_depth");
  Telemetry.bump c;
  Alcotest.(check int) "handle still records" 1
    (Telemetry.counter_value t "sim.packets.sent");
  Alcotest.(check bool) "and dumps" true
    (contains (Telemetry.dump_json t) {|"sim.packets.sent": 1|});
  Telemetry.set g 5.0;
  Alcotest.(check (option (float 0.0))) "gauge handle still records" (Some 5.0)
    (Telemetry.gauge_value t "sim.queue_depth")

let test_gauge_set_no_alloc () =
  let t = Telemetry.create () in
  let g = Telemetry.gauge t "g" in
  (* The values are boxed before measuring: without cross-module inlining
     (dune's dev profile compiles with -opaque) a caller boxes any float
     it passes to another module, and that box belongs to the call, not
     to the gauge.  What is measured is the set itself. *)
  let values = List.init 100 float_of_int in
  let rec set_all = function
    | [] -> ()
    | v :: rest ->
      Telemetry.set g v;
      set_all rest
  in
  (* The two reads' own boxed results are the baseline. *)
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let overhead = w1 -. w0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    set_all values
  done;
  let w1 = Gc.minor_words () in
  check_float "minor words over 10k sets" 0.0 (w1 -. w0 -. overhead);
  Alcotest.(check (option (float 0.0))) "last value" (Some 99.0)
    (Telemetry.gauge_value t "g")

let test_noop () =
  let t = Telemetry.noop in
  Telemetry.bump (Telemetry.counter t "c");
  Telemetry.incr t "c";
  Telemetry.set_gauge t "g" 1.0;
  Telemetry.set (Telemetry.gauge t "g") 1.0;
  Telemetry.observe t "h" 1.0;
  Alcotest.(check int) "spanned function runs" 7
    (Telemetry.with_span t "s" (fun () -> 7));
  Telemetry.span_begin t "s";
  Telemetry.span_end t;
  Alcotest.(check int) "reads empty" 0 (Telemetry.counter_value t "c");
  Alcotest.(check bool) "no histogram" true (Telemetry.hist_summary t "s" = None);
  Alcotest.(check (list (pair string int))) "no counters" [] (Telemetry.counters t);
  Alcotest.(check int) "no gauges" 0 (List.length (Telemetry.gauges t));
  Alcotest.(check string) "empty prometheus" "" (Telemetry.dump_prometheus t);
  Alcotest.(check bool) "empty json" true
    (Telemetry.json_of t
    = Json.Obj [ ("counters", Json.Obj []); ("gauges", Json.Obj []); ("histograms", Json.Obj []) ])

(* -- Counters feeding a series ---------------------------------------------- *)

let series_window ts name =
  match Timeseries.windows ts name with
  | [ w ] -> (w.Timeseries.w_index, w.Timeseries.w_count, w.Timeseries.w_sum)
  | ws -> Alcotest.failf "%s: %d windows, expected 1" name (List.length ws)

let window = Alcotest.(triple int int (float 0.0))

let test_incr_series_both () =
  let t = Telemetry.create () in
  let clock = ref 2.5 in
  let ts = Timeseries.create ~now:(fun () -> !clock) () in
  Telemetry.incr ~series:ts t "c";
  Telemetry.incr ~series:ts t ~by:4 "c";
  Alcotest.(check int) "counter" 5 (Telemetry.counter_value t "c");
  Alcotest.check window "one window at the series clock, two events"
    (2, 2, 5.0) (series_window ts "c");
  Alcotest.(check bool) "a counter series" true
    (Timeseries.kind_of ts "c" = Some `Counter)

let test_incr_series_by_zero () =
  let t = Telemetry.create () in
  let ts = Timeseries.create () in
  Telemetry.incr ~series:ts t ~by:0 "c";
  Alcotest.(check (list (pair string int))) "counter touched at 0"
    [ ("c", 0) ] (Telemetry.counters t);
  Alcotest.check window "one event of sum 0" (0, 1, 0.0) (series_window ts "c")

let test_incr_series_noop_registry () =
  let ts = Timeseries.create () in
  Telemetry.incr ~series:ts Telemetry.noop ~by:3 "c";
  Alcotest.(check (list (pair string int))) "noop records nothing" []
    (Telemetry.counters Telemetry.noop);
  Alcotest.check window "the live series still records" (0, 1, 3.0)
    (series_window ts "c")

let test_incr_series_lazy () =
  let t = Telemetry.create () in
  let ts = Timeseries.create () in
  Telemetry.incr ~series:ts t "recorded";
  Telemetry.incr t "counter.only";
  ignore (Telemetry.counter t "handle.only");
  Alcotest.(check (list string)) "only recorded names have series"
    [ "recorded" ] (Timeseries.names ts)

(* -- Histogram accuracy vs a sorted-sample oracle ------------------------- *)

(* Log buckets at 8 per octave give a worst-case relative error of
   2^(1/8) - 1 ~= 9.05% when the true quantile sits at a bucket edge; the
   geometric midpoint halves that in expectation.  10% absorbs both the
   bucket width and the oracle's rank interpolation. *)
let tolerance = 0.10

let hist_accuracy_check ~name samples =
  let t = Telemetry.create () in
  List.iter (Telemetry.observe t "h") samples;
  let s = Option.get (Telemetry.hist_summary t "h") in
  Alcotest.(check int) (name ^ " count") (List.length samples) s.Telemetry.count;
  check_float (name ^ " sum")
    (List.fold_left ( +. ) 0.0 samples)
    s.Telemetry.sum;
  check_float (name ^ " min") (List.fold_left min (List.hd samples) samples)
    s.Telemetry.min;
  check_float (name ^ " max") (List.fold_left max (List.hd samples) samples)
    s.Telemetry.max;
  List.iter
    (fun (p, got) ->
      let oracle = Stdx.Stats.percentile samples p in
      let rel = Float.abs (got -. oracle) /. oracle in
      if rel > tolerance then
        Alcotest.failf "%s p%.0f: histogram %.6g vs oracle %.6g (%.1f%% off)"
          name p got oracle (100.0 *. rel))
    [ (50.0, s.Telemetry.p50); (90.0, s.Telemetry.p90); (99.0, s.Telemetry.p99) ]

let test_hist_exponential () =
  let rng = Stdx.Prng.create ~seed:42 in
  let samples =
    List.init 5000 (fun _ -> Stdx.Prng.exponential rng ~mean:0.001)
  in
  hist_accuracy_check ~name:"exponential latencies" samples

let test_hist_uniform () =
  let rng = Stdx.Prng.create ~seed:7 in
  let samples = List.init 5000 (fun _ -> 1e-5 +. Stdx.Prng.float rng 0.01) in
  hist_accuracy_check ~name:"uniform latencies" samples

(* Counts in the thousands and values below 2^-24 both sit inside the
   sketch's range, so no quantile saturates at either end: p50 lands on
   the tiny value, p90/p99 on the large ones.  Multiplicities keep the
   oracle's rank interpolation between equal neighbours. *)
let saturation_samples =
  List.init 600 (fun _ -> 1e-9)
  @ List.concat_map (fun v -> List.init 100 (fun _ -> v)) [ 100.0; 500.0; 1000.0; 2000.0; 4000.0 ]

let test_hist_no_saturation () =
  hist_accuracy_check ~name:"counts and sub-2^-24 values" saturation_samples

let test_hist_extremes () =
  let t = Telemetry.create () in
  List.iter (Telemetry.observe t "h") [ 0.25; 0.5; 1.0; 2.0 ];
  check_float "p0 is exact min" 0.25 (Telemetry.hist_percentile t "h" 0.0);
  check_float "p100 is exact max" 2.0 (Telemetry.hist_percentile t "h" 100.0);
  check_float "absent histogram" 0.0 (Telemetry.hist_percentile t "nope" 50.0)

let test_hist_out_of_range () =
  (* Values outside the bucketed range still clamp to the exact min/max. *)
  let t = Telemetry.create () in
  Telemetry.observe t "h" 0.0;
  Telemetry.observe t "h" 1e12;
  let s = Option.get (Telemetry.hist_summary t "h") in
  check_float "min" 0.0 s.Telemetry.min;
  check_float "max" 1e12 s.Telemetry.max;
  Alcotest.(check int) "count" 2 s.Telemetry.count

let test_hist_empty_and_unknown () =
  let t = Telemetry.create () in
  Alcotest.(check bool) "unknown name" true (Telemetry.hist_summary t "h" = None);
  check_float "unknown percentile" 0.0 (Telemetry.hist_percentile t "h" 50.0);
  (* Empty-after-reset histograms report zeros throughout, not NaN/inf
     left over from the infinity-seeded min/max cells. *)
  Telemetry.observe t "h" 1.0;
  Telemetry.reset t;
  Alcotest.(check bool) "cleared name" true (Telemetry.hist_summary t "h" = None)

let test_hist_single_observation () =
  (* One observation pins every statistic to that value: the sketch
     midpoint clamps to the exact observed [min, max] = [v, v]. *)
  let t = Telemetry.create () in
  let v = 0.00731 in
  Telemetry.observe t "h" v;
  let s = Option.get (Telemetry.hist_summary t "h") in
  Alcotest.(check int) "count" 1 s.Telemetry.count;
  check_float "sum" v s.Telemetry.sum;
  check_float "mean" v s.Telemetry.mean;
  check_float "min" v s.Telemetry.min;
  check_float "max" v s.Telemetry.max;
  check_float "p50" v s.Telemetry.p50;
  check_float "p90" v s.Telemetry.p90;
  check_float "p99" v s.Telemetry.p99;
  check_float "p0" v (Telemetry.hist_percentile t "h" 0.0);
  check_float "p100" v (Telemetry.hist_percentile t "h" 100.0)

let test_hist_quantile_boundaries () =
  let t = Telemetry.create () in
  List.iter (Telemetry.observe t "h") [ 0.125; 0.25; 0.5; 1.0 ];
  (* p <= 0 and p >= 100 are exact, including values outside [0, 100]. *)
  check_float "p=-5 is exact min" 0.125 (Telemetry.hist_percentile t "h" (-5.0));
  check_float "p=0 is exact min" 0.125 (Telemetry.hist_percentile t "h" 0.0);
  check_float "p=100 is exact max" 1.0 (Telemetry.hist_percentile t "h" 100.0);
  check_float "p=250 is exact max" 1.0 (Telemetry.hist_percentile t "h" 250.0);
  Alcotest.check_raises "NaN percentile rejected"
    (Invalid_argument "Telemetry.hist_percentile: NaN percentile") (fun () ->
      ignore (Telemetry.hist_percentile t "h" Float.nan))

(* -- Spans ---------------------------------------------------------------- *)

let test_span_nesting () =
  let clock = ref 0.0 in
  let t = Telemetry.create ~now:(fun () -> !clock) () in
  Telemetry.span_begin t "outer";
  clock := 1.0;
  Telemetry.span_begin t "inner";
  clock := 3.0;
  Telemetry.span_end t;
  clock := 6.0;
  Telemetry.span_end t;
  let inner = Option.get (Telemetry.hist_summary t "inner") in
  let outer = Option.get (Telemetry.hist_summary t "outer") in
  check_float "inner elapsed" 2.0 inner.Telemetry.sum;
  check_float "outer elapsed" 6.0 outer.Telemetry.sum;
  Alcotest.(check int) "one inner" 1 inner.Telemetry.count

let test_span_unbalanced () =
  let t = Telemetry.create () in
  Alcotest.check_raises "no open span"
    (Invalid_argument "Telemetry.span_end: no open span") (fun () ->
      Telemetry.span_end t)

let test_with_span_exception () =
  let clock = ref 0.0 in
  let t = Telemetry.create ~now:(fun () -> !clock) () in
  (try
     Telemetry.with_span t "failing" (fun () ->
         clock := 0.5;
         raise Exit)
   with Exit -> ());
  let s = Option.get (Telemetry.hist_summary t "failing") in
  Alcotest.(check int) "recorded despite raise" 1 s.Telemetry.count;
  check_float "elapsed" 0.5 s.Telemetry.sum

(* -- Dumps ---------------------------------------------------------------- *)

let test_dump_json_roundtrip () =
  let t = Telemetry.create () in
  Telemetry.incr t "alloc.admitted" ~by:12;
  Telemetry.set_gauge t "sim.queue_depth" 3.0;
  Telemetry.observe t "alloc.score" 0.002;
  match Json.of_string (Telemetry.dump_json t) with
  | Error e -> Alcotest.failf "dump does not parse: %s" e
  | Ok json ->
    let counter =
      Json.(member "counters" json |> Option.get |> member "alloc.admitted")
    in
    Alcotest.(check (option (float 1e-9))) "counter survives" (Some 12.0)
      (Option.bind counter Json.to_num);
    let hist =
      Json.(member "histograms" json |> Option.get |> member "alloc.score")
    in
    Alcotest.(check bool) "histogram present" true (hist <> None)

let test_dump_prometheus () =
  let t = Telemetry.create () in
  Telemetry.incr t "alloc.admitted" ~by:2;
  Telemetry.observe t "alloc.score" 0.001;
  let out = Telemetry.dump_prometheus t in
  let contains needle =
    let nl = String.length needle and l = String.length out in
    let rec go i = i + nl <= l && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter line" true (contains "alloc_admitted 2");
  Alcotest.(check bool) "quantile line" true
    (contains "alloc_score{quantile=\"0.5\"}");
  Alcotest.(check bool) "count line" true (contains "alloc_score_count 1")

(* Well-formedness per the promtext exposition format: a non-comment line
   is NAME{labels}? VALUE, where NAME matches [a-zA-Z_:][a-zA-Z0-9_:]*,
   every label value is quoted with '\\', '"' and newline escaped, and
   VALUE parses as a float.  Free-form registry keys must never leak
   through unsanitized. *)
let prom_line_ok line =
  let n = String.length line in
  let is_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  in
  if n = 0 || line.[0] = '#' then true
  else begin
    let ok = ref (is_name_char line.[0] && not (line.[0] >= '0' && line.[0] <= '9')) in
    let i = ref 0 in
    while !i < n && is_name_char line.[!i] do
      incr i
    done;
    if !ok && !i < n && line.[!i] = '{' then begin
      incr i;
      let in_value = ref false and closed = ref false in
      while !i < n && not !closed do
        let c = line.[!i] in
        if !in_value then
          if c = '\\' then begin
            (if !i + 1 >= n then ok := false
             else
               match line.[!i + 1] with
               | '\\' | '"' | 'n' -> ()
               | _ -> ok := false);
            i := !i + 2
          end
          else begin
            if c = '"' then in_value := false;
            incr i
          end
        else begin
          (match c with
          | '"' -> in_value := true
          | '}' -> closed := true
          | _ -> ());
          incr i
        end
      done;
      if not !closed then ok := false
    end;
    (if !ok then
       if !i >= n || line.[!i] <> ' ' then ok := false
       else
         ok :=
           float_of_string_opt (String.sub line (!i + 1) (n - !i - 1)) <> None);
    !ok
  end

let test_prometheus_wellformed () =
  (* Exercise sanitization through the shared default registry — and
     [Telemetry.reset] to leave it clean for whoever runs next. *)
  Telemetry.reset Telemetry.default;
  Telemetry.incr Telemetry.default {|weird "metric"\name|} ~by:3;
  Telemetry.incr Telemetry.default "0starts.with.digit";
  Telemetry.set_gauge Telemetry.default "spaced gauge name" 2.5;
  Telemetry.observe Telemetry.default {|hist"quoted\|} 0.25;
  let out = Telemetry.dump_prometheus Telemetry.default in
  Telemetry.reset Telemetry.default;
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "well-formed: %S" line)
        true (prom_line_ok line))
    (String.split_on_char '\n' out);
  let contains needle =
    let nl = String.length needle and l = String.length out in
    let rec go i = i + nl <= l && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "punctuation collapses to _" true
    (contains "weird__metric__name 3");
  Alcotest.(check bool) "leading digit prefixed" true
    (contains "_0starts_with_digit 1");
  Alcotest.(check bool) "raw name never leaks" false (contains {|"metric"|})

let test_prometheus_label_escaping () =
  Alcotest.(check string) "backslash, quote, newline" {|a\\b\"c\nd|}
    (Telemetry.prom_escape_label "a\\b\"c\nd");
  Alcotest.(check string) "clean value untouched" "0.99"
    (Telemetry.prom_escape_label "0.99")

(* -- Json ----------------------------------------------------------------- *)

let test_json_parse () =
  let text = {| {"a": [1, 2.5, -3e2], "b": {"s": "x\ny"}, "t": true, "n": null} |} in
  match Json.of_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v ->
    let a = Json.(member "a" v |> Option.get |> to_arr |> Option.get) in
    Alcotest.(check (list (float 1e-9))) "numbers" [ 1.0; 2.5; -300.0 ]
      (List.filter_map Json.to_num a);
    Alcotest.(check (option string)) "nested string" (Some "x\ny")
      Json.(member "b" v |> Option.get |> member "s" |> Fun.flip Option.bind to_str);
    Alcotest.(check (option bool)) "bool" (Some true)
      (Option.bind (Json.member "t" v) Json.to_bool)

let test_json_errors () =
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Json.of_string "{"));
  Alcotest.(check bool) "trailing rejected" true
    (Result.is_error (Json.of_string "1 2"))

(* JSON has no nan or infinity, so the printer writes them as null and
   its own parser reads the output back. *)
let test_json_non_finite () =
  List.iter
    (fun v ->
      let text = Json.to_string (Json.Obj [ ("x", Json.Num v) ]) in
      Alcotest.(check string) (Printf.sprintf "%h prints null" v) {|{"x":null}|} text;
      Alcotest.(check bool) "parses back" true
        (Json.of_string text = Ok (Json.Obj [ ("x", Json.Null) ])))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let prop_json_roundtrip =
  let gen_json =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let scalar =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun v -> Json.Num (float_of_int v)) (int_range (-1000) 1000);
                map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 8));
              ]
          in
          if n <= 0 then scalar
          else
            oneof
              [
                scalar;
                map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (n / 2)));
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (int_range 0 4)
                     (pair (string_size ~gen:printable (int_range 1 6)) (self (n / 2))));
              ]))
  in
  QCheck.Test.make ~name:"json print/parse roundtrip" ~count:200
    (QCheck.make gen_json)
    (fun v -> Json.of_string (Json.to_string v) = Ok v)

(* The parser must classify arbitrary input as Ok or Error without ever
   raising — series dumps cross process boundaries (healthcheck reports,
   fleettop input files), so a truncated or corrupt file is an expected
   input, not an exception path.  Half the cases are raw bytes; the other
   half mutate a valid print so the fuzz also reaches deep parser states
   (inside strings, numbers, nesting) instead of failing on byte one. *)
let prop_json_fuzz_no_crash =
  let gen =
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:(char_range '\000' '\255') (int_range 0 64);
          ( int_range 0 1000 >|= fun salt ->
            let valid =
              Json.to_string
                (Json.Obj
                   [
                     ("k", Json.Arr [ Json.Num 1.5; Json.Str "x\"y"; Json.Null ]);
                     ("b", Json.Bool (salt mod 2 = 0));
                   ])
            in
            let b = Bytes.of_string valid in
            let pos = salt mod Bytes.length b in
            Bytes.set b pos (Char.chr (salt * 7 mod 256));
            Bytes.to_string b );
        ])
  in
  QCheck.Test.make ~name:"json parser never raises" ~count:500 (QCheck.make gen)
    (fun s ->
      match Json.of_string s with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "of_string %S raised %s" s
          (Printexc.to_string e))

let () =
  Alcotest.run "telemetry"
    [
      ( "counters",
        [
          Alcotest.test_case "basic" `Quick test_counter_basic;
          Alcotest.test_case "gauge last write" `Quick test_gauge_last_write_wins;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "handles",
        [
          Alcotest.test_case "shared cell" `Quick test_handle_shares_cell;
          Alcotest.test_case "kind mismatch" `Quick test_handle_kind_mismatch;
          Alcotest.test_case "unrecorded is invisible" `Quick
            test_unrecorded_handle_invisible;
          Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
          Alcotest.test_case "gauge set allocates nothing" `Quick
            test_gauge_set_no_alloc;
          Alcotest.test_case "noop registry" `Quick test_noop;
        ] );
      ( "incr ~series",
        [
          Alcotest.test_case "one call records both" `Quick test_incr_series_both;
          Alcotest.test_case "by 0 is one event" `Quick test_incr_series_by_zero;
          Alcotest.test_case "noop registry feeds a live series" `Quick
            test_incr_series_noop_registry;
          Alcotest.test_case "unrecorded name has no series" `Quick
            test_incr_series_lazy;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "exponential vs oracle" `Quick test_hist_exponential;
          Alcotest.test_case "uniform vs oracle" `Quick test_hist_uniform;
          Alcotest.test_case "no saturation" `Quick test_hist_no_saturation;
          Alcotest.test_case "extreme percentiles" `Quick test_hist_extremes;
          Alcotest.test_case "out-of-range values" `Quick test_hist_out_of_range;
          Alcotest.test_case "empty and unknown" `Quick
            test_hist_empty_and_unknown;
          Alcotest.test_case "single observation" `Quick
            test_hist_single_observation;
          Alcotest.test_case "quantile boundaries" `Quick
            test_hist_quantile_boundaries;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "unbalanced end" `Quick test_span_unbalanced;
          Alcotest.test_case "records on exception" `Quick test_with_span_exception;
        ] );
      ( "dumps",
        [
          Alcotest.test_case "json roundtrip" `Quick test_dump_json_roundtrip;
          Alcotest.test_case "prometheus" `Quick test_dump_prometheus;
          Alcotest.test_case "prometheus well-formed" `Quick
            test_prometheus_wellformed;
          Alcotest.test_case "label escaping" `Quick
            test_prometheus_label_escaping;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "non-finite numbers" `Quick test_json_non_finite;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_fuzz_no_crash;
        ] );
    ]
