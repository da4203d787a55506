(* Windowed time series: name -> ring of buckets on an injected virtual
   clock.  Each bucket is a Sketch; counter series bump only its count and
   sum, so their bucket arrays are never allocated. *)

type kind = Counter | Dist

type bucket = {
  mutable b_index : int; (* virtual bucket index; -1 = empty slot *)
  b_sketch : Sketch.t;
}

type series = { s_kind : kind; s_ring : bucket array }

type t = {
  live : bool;
  ts_bucket_s : float;
  ts_capacity : int;
  clock : unit -> float;
  cells : (string, series) Hashtbl.t;
}

let create ?(bucket_s = 1.0) ?(capacity = 128) ?(now = fun () -> 0.0) () =
  if bucket_s <= 0.0 then invalid_arg "Timeseries.create: bucket_s <= 0";
  if capacity < 1 then invalid_arg "Timeseries.create: capacity < 1";
  {
    live = true;
    ts_bucket_s = bucket_s;
    ts_capacity = capacity;
    clock = now;
    cells = Hashtbl.create 64;
  }

let noop =
  {
    live = false;
    ts_bucket_s = 1.0;
    ts_capacity = 1;
    clock = (fun () -> 0.0);
    cells = Hashtbl.create 1;
  }

let enabled t = t.live
let with_clock t f = if t.live then { t with clock = f } else t
let bucket_s t = t.ts_bucket_s
let capacity t = t.ts_capacity
let now t = t.clock ()

let kind_name = function Counter -> "counter" | Dist -> "dist"

let find_series t kind name =
  match Hashtbl.find_opt t.cells name with
  | Some s ->
    if s.s_kind <> kind then
      invalid_arg
        (Printf.sprintf "Timeseries: %s is a %s series, not a %s" name
           (kind_name s.s_kind) (kind_name kind));
    s
  | None ->
    let s =
      {
        s_kind = kind;
        s_ring =
          Array.init t.ts_capacity (fun _ ->
              { b_index = -1; b_sketch = Sketch.create () });
      }
    in
    Hashtbl.add t.cells name s;
    s

let index_of t tm =
  let i = int_of_float (Float.floor (tm /. t.ts_bucket_s)) in
  if i < 0 then 0 else i

(* The sketch of virtual bucket [idx], evicting whatever older window
   occupied its ring slot. *)
let slot_for s ~idx =
  let b = s.s_ring.(idx mod Array.length s.s_ring) in
  if b.b_index <> idx then begin
    b.b_index <- idx;
    Sketch.clear b.b_sketch
  end;
  b.b_sketch

let add t ?t:tm ?(by = 1.0) name =
  if t.live then begin
    let tm = match tm with Some x -> x | None -> t.clock () in
    let sk = slot_for (find_series t Counter name) ~idx:(index_of t tm) in
    sk.count <- sk.count + 1;
    sk.sum <- sk.sum +. by
  end

let observe t ?t:tm name v =
  if t.live then begin
    let tm = match tm with Some x -> x | None -> t.clock () in
    Sketch.record (slot_for (find_series t Dist name) ~idx:(index_of t tm)) v
  end

(* ---------- reads ---------- *)

type window = {
  w_index : int;
  w_count : int;
  w_sum : float;
  w_min : float;
  w_max : float;
  w_p50 : float;
  w_p90 : float;
  w_p99 : float;
}

(* The kind of a series and its occupied (index, sketch) windows in
   ascending index order.  Ring slots hold distinct residues mod
   [capacity], so at most [capacity] windows come back. *)
let series_windows t name =
  match Hashtbl.find_opt t.cells name with
  | None -> (None, [])
  | Some s ->
    let ws =
      Array.fold_left
        (fun acc b -> if b.b_index >= 0 then (b.b_index, b.b_sketch) :: acc else acc)
        [] s.s_ring
    in
    (Some s.s_kind, List.sort (fun (a, _) (b, _) -> compare a b) ws)

let window_of kind (idx, (sk : Sketch.t)) =
  let dist = kind = Some Dist && sk.count > 0 in
  {
    w_index = idx;
    w_count = sk.count;
    w_sum = sk.sum;
    w_min = (if dist then sk.min else 0.0);
    w_max = (if dist then sk.max else 0.0);
    w_p50 = (if dist then Sketch.quantile sk 0.50 else 0.0);
    w_p90 = (if dist then Sketch.quantile sk 0.90 else 0.0);
    w_p99 = (if dist then Sketch.quantile sk 0.99 else 0.0);
  }

let windows t name =
  let kind, ws = series_windows t name in
  List.map (window_of kind) ws

let kind_of t name =
  match Hashtbl.find_opt t.cells name with
  | Some { s_kind = Counter; _ } -> Some `Counter
  | Some { s_kind = Dist; _ } -> Some `Dist
  | None -> None

let names t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.cells [])

type agg = {
  a_count : int;
  a_sum : float;
  a_min : float;
  a_max : float;
  a_p50 : float;
  a_p90 : float;
  a_p99 : float;
  a_windows : int;
}

(* The newest [last] windows (default: all) merged into one sketch. *)
let merged ?last t name =
  let kind, ws = series_windows t name in
  let ws =
    match last with
    | None -> ws
    | Some k ->
      let n = List.length ws in
      List.filteri (fun i _ -> i >= n - k) ws
  in
  let m = Sketch.create () in
  List.iter (fun (_, sk) -> Sketch.merge_into ~into:m sk) ws;
  (kind, m, List.length ws)

let aggregate ?last t name =
  let kind, m, n = merged ?last t name in
  let w = window_of kind (0, m) in
  {
    a_count = w.w_count;
    a_sum = w.w_sum;
    a_min = w.w_min;
    a_max = w.w_max;
    a_p50 = w.w_p50;
    a_p90 = w.w_p90;
    a_p99 = w.w_p99;
    a_windows = n;
  }

let quantile ?last t name q =
  if Float.is_nan q || q < 0.0 || q > 1.0 then
    invalid_arg "Timeseries.quantile: q outside [0, 1]";
  let _, m, _ = merged ?last t name in
  Sketch.quantile m q

(* ---------- deterministic JSON ---------- *)

let json_of t =
  let series =
    List.map
      (fun name ->
        let kind, ws = series_windows t name in
        let kind = match kind with Some k -> k | None -> Counter in
        let window_json w =
          let w = window_of (Some kind) w in
          let base =
            [
              ("index", Json.Num (float_of_int w.w_index));
              ("count", Json.Num (float_of_int w.w_count));
              ("sum", Json.Num w.w_sum);
            ]
          in
          let dist =
            if kind = Dist then
              [
                ("min", Json.Num w.w_min);
                ("max", Json.Num w.w_max);
                ("p50", Json.Num w.w_p50);
                ("p90", Json.Num w.w_p90);
                ("p99", Json.Num w.w_p99);
              ]
            else []
          in
          Json.Obj (base @ dist)
        in
        ( name,
          Json.Obj
            [
              ("kind", Json.Str (kind_name kind));
              ("windows", Json.Arr (List.map window_json ws));
            ] ))
      (names t)
  in
  Json.Obj
    [
      ("bucket_s", Json.Num t.ts_bucket_s);
      ("capacity", Json.Num (float_of_int t.ts_capacity));
      ("series", Json.Obj series);
    ]

let write_json t ~path =
  let oc = open_out path in
  output_string oc (Json.to_string (json_of t));
  output_char oc '\n';
  close_out oc

(* ---------- dump parsing ---------- *)

type dump = {
  d_bucket_s : float;
  d_capacity : int;
  d_series : (string * [ `Counter | `Dist ] * window list) list;
}

let dump_of_json json =
  let open Json in
  let num ?(default = None) obj key =
    match member key obj with
    | Some (Num f) -> Ok f
    | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing numeric field %S" key))
    | Some _ -> Error (Printf.sprintf "field %S is not a number" key)
  in
  let ( let* ) = Result.bind in
  let window_of obj =
    let* index = num obj "index" in
    let* count = num obj "count" in
    let* sum = num obj "sum" in
    let* mn = num ~default:(Some 0.0) obj "min" in
    let* mx = num ~default:(Some 0.0) obj "max" in
    let* p50 = num ~default:(Some 0.0) obj "p50" in
    let* p90 = num ~default:(Some 0.0) obj "p90" in
    let* p99 = num ~default:(Some 0.0) obj "p99" in
    Ok
      {
        w_index = int_of_float index;
        w_count = int_of_float count;
        w_sum = sum;
        w_min = mn;
        w_max = mx;
        w_p50 = p50;
        w_p90 = p90;
        w_p99 = p99;
      }
  in
  let rec map_result f = function
    | [] -> Ok []
    | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)
  in
  let series_of (name, j) =
    match j with
    | Obj _ ->
      let kind =
        match member "kind" j with
        | Some (Str "dist") -> Ok `Dist
        | Some (Str "counter") | None -> Ok `Counter
        | _ -> Error (Printf.sprintf "series %S: bad kind" name)
      in
      let* kind = kind in
      let* ws =
        match member "windows" j with
        | Some (Arr items) -> map_result window_of items
        | _ -> Error (Printf.sprintf "series %S: missing windows" name)
      in
      Ok (name, kind, ws)
    | _ -> Error (Printf.sprintf "series %S is not an object" name)
  in
  match json with
  | Obj _ ->
    let* bucket_s = num ~default:(Some 1.0) json "bucket_s" in
    let* cap = num ~default:(Some 128.0) json "capacity" in
    let* series =
      match member "series" json with
      | Some (Obj fields) -> map_result series_of fields
      | None -> Ok []
      | Some _ -> Error "field \"series\" is not an object"
    in
    Ok { d_bucket_s = bucket_s; d_capacity = int_of_float cap; d_series = series }
  | _ -> Error "series dump is not a JSON object"

let dump_of_string s =
  match Json.of_string s with
  | Error e -> Error e
  | Ok json -> dump_of_json json
