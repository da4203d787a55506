(* A gauge's value sits in an all-float record, which OCaml stores flat:
   setting it writes the double in place and allocates nothing.  The
   [touched] flags keep cells that were looked up but never recorded out
   of every read and dump, and let [reset] clear cells in place so the
   handles components hold keep working. *)
type value = { mutable v : float }
type counter = { mutable n : int; mutable c_touched : bool }
type gauge = { value : value; mutable g_touched : bool }
type cell = Counter of counter | Gauge of gauge | Hist of Sketch.t

type t = {
  live : bool;  (* false only for [noop] *)
  cells : (string, cell) Hashtbl.t;
  mutable stack : (string * float) list; (* open spans: name, start time *)
  now : unit -> float;
}

let create ?now () =
  let now = match now with Some f -> f | None -> Unix.gettimeofday in
  { live = true; cells = Hashtbl.create 64; stack = []; now }

let default = create ()
let noop = { live = false; cells = Hashtbl.create 1; stack = []; now = (fun () -> 0.0) }

let kind_error name got =
  invalid_arg
    (Printf.sprintf "Telemetry: metric %S already registered as a %s" name got)

let new_counter () = { n = 0; c_touched = false }
let new_gauge () = { value = { v = 0.0 }; g_touched = false }

(* -- Handles -------------------------------------------------------------- *)

let counter t name =
  if not t.live then new_counter ()
  else
    match Hashtbl.find_opt t.cells name with
    | Some (Counter c) -> c
    | Some (Gauge _) -> kind_error name "gauge"
    | Some (Hist _) -> kind_error name "histogram"
    | None ->
      let c = new_counter () in
      Hashtbl.add t.cells name (Counter c);
      c

let gauge t name =
  if not t.live then new_gauge ()
  else
    match Hashtbl.find_opt t.cells name with
    | Some (Gauge g) -> g
    | Some (Counter _) -> kind_error name "counter"
    | Some (Hist _) -> kind_error name "histogram"
    | None ->
      let g = new_gauge () in
      Hashtbl.add t.cells name (Gauge g);
      g

let add c by =
  c.n <- c.n + by;
  c.c_touched <- true

let bump c = add c 1
let count c = c.n

let set g v =
  g.value.v <- v;
  g.g_touched <- true

(* -- Recording by name (cold paths) --------------------------------------- *)

let incr ?series t ?(by = 1) name =
  if t.live then add (counter t name) by;
  match series with
  | Some s -> Timeseries.add s ~by:(float_of_int by) name
  | None -> ()

let set_gauge t name v = if t.live then set (gauge t name) v

let observe t name v =
  if t.live then
    match Hashtbl.find_opt t.cells name with
    | Some (Hist h) -> Sketch.record h v
    | Some (Counter _) -> kind_error name "counter"
    | Some (Gauge _) -> kind_error name "gauge"
    | None ->
      let h = Sketch.create () in
      Sketch.record h v;
      Hashtbl.add t.cells name (Hist h)

(* -- Spans ---------------------------------------------------------------- *)

let span_begin t name = if t.live then t.stack <- (name, t.now ()) :: t.stack

let span_end t =
  match t.stack with
  | [] -> if t.live then invalid_arg "Telemetry.span_end: no open span"
  | (name, t0) :: rest ->
    t.stack <- rest;
    observe t name (t.now () -. t0)

let with_span t name f =
  span_begin t name;
  Fun.protect ~finally:(fun () -> span_end t) f

(* -- Reads ---------------------------------------------------------------- *)

let counter_value t name =
  match Hashtbl.find_opt t.cells name with Some (Counter c) -> c.n | _ -> 0

let gauge_value t name =
  match Hashtbl.find_opt t.cells name with
  | Some (Gauge g) when g.g_touched -> Some g.value.v
  | _ -> None

(* A histogram cell exists only after its first observation; [reset]
   empties it in place, and an empty one reads as absent. *)
let hist_of t name =
  match Hashtbl.find_opt t.cells name with
  | Some (Hist h) when h.Sketch.count > 0 -> Some h
  | _ -> None

type hist_summary = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* NaN would sail through both range tests of the sketch and silently
   return the top bucket; reject it instead of guessing. *)
let percentile_of h p =
  if Float.is_nan p then invalid_arg "Telemetry.hist_percentile: NaN percentile";
  Sketch.quantile h (p /. 100.0)

let summary_of_hist (h : Sketch.t) =
  let empty = h.count = 0 in
  {
    count = h.count;
    sum = h.sum;
    mean = (if empty then 0.0 else h.sum /. float_of_int h.count);
    min = (if empty then 0.0 else h.min);
    max = (if empty then 0.0 else h.max);
    p50 = percentile_of h 50.0;
    p90 = percentile_of h 90.0;
    p99 = percentile_of h 99.0;
  }

let hist_summary t name = Option.map summary_of_hist (hist_of t name)

let hist_percentile t name p =
  match hist_of t name with None -> 0.0 | Some h -> percentile_of h p

let sorted_cells t ~f =
  Hashtbl.fold
    (fun name cell acc -> match f cell with Some v -> (name, v) :: acc | None -> acc)
    t.cells []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t =
  sorted_cells t ~f:(function
    | Counter c when c.c_touched -> Some c.n
    | _ -> None)

let gauges t =
  sorted_cells t ~f:(function
    | Gauge g when g.g_touched -> Some g.value.v
    | _ -> None)

let histograms t =
  sorted_cells t ~f:(function
    | Hist h when h.Sketch.count > 0 -> Some (summary_of_hist h)
    | _ -> None)

(* Cells stay registered (so do their kinds): handles held by components
   keep recording into the same cells after a reset. *)
let reset t =
  Hashtbl.iter
    (fun _ cell ->
      match cell with
      | Counter c ->
        c.n <- 0;
        c.c_touched <- false
      | Gauge g ->
        g.value.v <- 0.0;
        g.g_touched <- false
      | Hist h -> Sketch.clear h)
    t.cells;
  t.stack <- []

(* -- Dumps ---------------------------------------------------------------- *)

let json_of_summary s =
  Json.Obj
    [
      ("count", Json.Num (float_of_int s.count));
      ("sum", Json.Num s.sum);
      ("mean", Json.Num s.mean);
      ("min", Json.Num s.min);
      ("max", Json.Num s.max);
      ("p50", Json.Num s.p50);
      ("p90", Json.Num s.p90);
      ("p99", Json.Num s.p99);
    ]

let json_of t =
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) (counters t))
      );
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) (gauges t)));
      ( "histograms",
        Json.Obj (List.map (fun (k, s) -> (k, json_of_summary s)) (histograms t))
      );
    ]

let dump_json t = Json.to_string ~pretty:true (json_of t)

let write_json t ~path =
  let oc = open_out path in
  output_string oc (dump_json t);
  output_char oc '\n';
  close_out oc

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]* (promtext exposition
   format); registry keys are free-form strings, so every other character
   collapses to '_' and a leading digit gets a '_' prefix. *)
let prom_name name =
  let mapped =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name
  in
  if mapped = "" then "_"
  else
    match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped

(* Label values may contain anything, but backslash, double-quote and
   newline must be escaped per the exposition format. *)
let prom_escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let dump_prometheus t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    (counters t);
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %g\n" n n v))
    (gauges t);
  List.iter
    (fun (name, s) ->
      let n = prom_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" n);
      List.iter
        (fun (q, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s{quantile=\"%s\"} %g\n" n (prom_escape_label q)
               v))
        [ ("0.5", s.p50); ("0.9", s.p90); ("0.99", s.p99) ];
      Buffer.add_string buf (Printf.sprintf "%s_sum %g\n" n s.sum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n s.count))
    (histograms t);
  Buffer.contents buf
