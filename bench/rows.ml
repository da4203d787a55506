module Json = Activermt_telemetry.Json

type op = Ge | Gt | Le | Lt | Eq

type gate = Abs of op * float | Rel of op * float

type row = {
  section : string;
  key : string;
  metric : string;
  value : float;
  unit : string;
  gates : gate list;
}

let row ~section ?(key = "") ?(gates = []) metric ~unit value =
  { section; key; metric; value; unit; gates }

let throughput_floor = Rel (Ge, 0.7)
let latency_ceiling = Rel (Le, 2.0)

let ops = [ (Ge, ">="); (Gt, ">"); (Le, "<="); (Lt, "<"); (Eq, "=") ]

let holds op x v =
  match op with
  | Ge -> x >= v
  | Gt -> x > v
  | Le -> x <= v
  | Lt -> x < v
  | Eq -> x = v

let num v = Json.to_string (Json.Num v)

let gate_to_string = function
  | Abs (op, v) -> Printf.sprintf "%s %s" (List.assoc op ops) (num v)
  | Rel (op, f) -> Printf.sprintf "%s %s*base" (List.assoc op ops) (num f)

let gate_of_string s =
  let op_of text = List.find_map (fun (op, t) -> if t = text then Some op else None) ops in
  match String.split_on_char ' ' s with
  | [ o; v ] -> (
    let rel, v =
      match Filename.chop_suffix_opt ~suffix:"*base" v with
      | Some f -> (true, f)
      | None -> (false, v)
    in
    match (op_of o, float_of_string_opt v) with
    | Some op, Some v -> Some (if rel then Rel (op, v) else Abs (op, v))
    | _ -> None)
  | _ -> None

let name r = if r.key = "" then r.section else r.section ^ "/" ^ r.key

let check rows =
  let failures =
    List.concat_map
      (fun r ->
        List.filter_map
          (function
            | Abs (op, v) as g when not (holds op r.value v) ->
              Some
                (Printf.sprintf "%s %s = %g fails %s" (name r) r.metric r.value
                   (gate_to_string g))
            | _ -> None)
          r.gates)
      rows
  in
  if failures <> [] then failwith (String.concat "; " failures)

(* -- The file ------------------------------------------------------------ *)

let to_json r =
  Json.Obj
    ([
       ("key", Json.Str r.key);
       ("metric", Json.Str r.metric);
       ("value", Json.Num r.value);
       ("unit", Json.Str r.unit);
     ]
    @
    if r.gates = [] then []
    else [ ("gates", Json.Arr (List.map (fun g -> Json.Str (gate_to_string g)) r.gates)) ])

let all_some l =
  List.fold_right (fun x acc -> Option.bind x (fun x -> Option.map (List.cons x) acc)) l (Some [])

let of_json ~section j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let gates =
    match Json.member "gates" j with
    | None -> Some []
    | Some g ->
      Option.bind (Json.to_arr g) (fun gs ->
          all_some (List.map (fun g -> Option.bind (Json.to_str g) gate_of_string) gs))
  in
  let value =
    match Json.member "value" j with
    | Some Json.Null -> Some Float.nan
    | v -> Option.bind v Json.to_num
  in
  match (str "key", str "metric", value, str "unit", gates) with
  | Some key, Some metric, Some value, Some unit, Some gates ->
    Some { section; key; metric; value; unit; gates }
  | _ -> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One row per line, so a baseline refresh diffs row by row. *)
let render sections =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i (section, v) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf "  %s: " (Json.to_string (Json.Str section));
      match v with
      | Json.Arr (_ :: _ as items) ->
        Buffer.add_string buf "[\n    ";
        Buffer.add_string buf (String.concat ",\n    " (List.map Json.to_string items));
        Buffer.add_string buf "\n  ]"
      | v -> Buffer.add_string buf (Json.to_string v))
    sections;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let write ?(path = "BENCH_alloc.json") ~section rows =
  List.iter
    (fun r ->
      if r.section <> section then
        invalid_arg (Printf.sprintf "Rows.write: %s row in section %S" (name r) section))
    rows;
  let existing =
    if not (Sys.file_exists path) then []
    else
      match Json.of_string (read_file path) with
      | Ok (Json.Obj fields) -> fields
      | Ok _ -> failwith (path ^ ": not a JSON object; refusing to overwrite it")
      | Error e -> failwith (Printf.sprintf "%s: %s; refusing to overwrite it" path e)
  in
  let v = Json.Arr (List.map to_json rows) in
  let fields =
    if List.mem_assoc section existing then
      List.map (fun (k, old) -> (k, if k = section then v else old)) existing
    else existing @ [ (section, v) ]
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (render fields);
  close_out oc;
  Sys.rename tmp path;
  Printf.printf "wrote %d %s rows to %s\n" (List.length rows) section path

let load path =
  let fail fmt = Printf.ksprintf (fun e -> failwith (path ^ ": " ^ e)) fmt in
  let section (name, v) =
    let row j =
      match of_json ~section:name j with
      | Some r -> r
      | None -> fail "section %S: malformed row %s" name (Json.to_string j)
    in
    match Json.to_arr v with
    | Some items -> (name, List.map row items)
    | None -> fail "section %S is not an array of rows" name
  in
  match
    match Json.of_string (read_file path) with
    | Ok (Json.Obj fields) -> List.map section fields
    | Ok _ -> fail "not a JSON object"
    | Error e -> fail "%s" e
  with
  | sections -> Ok sections
  | exception (Failure e | Sys_error e) -> Error e

(* -- The differ ---------------------------------------------------------- *)

let find rows r = List.find_opt (fun b -> b.key = r.key && b.metric = r.metric) rows

let diff ~base current =
  let lines = ref [] and failures = ref 0 in
  let say fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let verdict ~base_value c g =
    let op, threshold, text =
      match g with
      | Abs (op, v) -> (op, v, gate_to_string g)
      | Rel (op, f) ->
        let t = f *. base_value in
        (op, t, Printf.sprintf "%s %g (%s %g)" (List.assoc op ops) t (gate_to_string g) base_value)
    in
    let ok = holds op c.value threshold in
    (ok, if ok then text else "FAILS " ^ text)
  in
  let gate_row base_rows c =
    let b = Option.bind base_rows (fun rs -> find rs c) in
    if base_rows <> None && b = None then
      say "INFO     %s %s = %g %s  new row (no baseline)" (name c) c.metric c.value c.unit;
    let rel, base_value =
      match b with
      | Some b -> (List.filter (function Rel _ -> true | Abs _ -> false) b.gates, b.value)
      | None -> ([], Float.nan)
    in
    match List.filter (function Abs _ -> true | Rel _ -> false) c.gates @ rel with
    | [] -> ()
    | gates ->
      let verdicts = List.map (verdict ~base_value c) gates in
      let ok = List.for_all fst verdicts in
      if not ok then incr failures;
      say "%-8s %s %s = %g %s  [%s]"
        (if ok then "OK" else "REGRESS")
        (name c) c.metric c.value c.unit
        (String.concat "; " (List.map snd verdicts))
  in
  List.iter
    (fun (section, rows) ->
      let base_rows = List.assoc_opt section base in
      if base_rows = None then say "INFO     new section %S (no baseline counterpart)" section;
      List.iter (gate_row base_rows) rows;
      Option.iter
        (List.iter (fun b ->
             if b.gates <> [] && find rows b = None then begin
               incr failures;
               say "MISSING  %s %s  gated baseline row absent from candidate" (name b) b.metric
             end))
        base_rows)
    current;
  List.iter
    (fun (section, _) ->
      if not (List.mem_assoc section current) then
        say "INFO     baseline section %S missing from candidate (bench entry not run?)" section)
    base;
  (List.rev !lines, !failures)
