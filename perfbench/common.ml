(* Measurement plumbing shared by the workloads: a nanosecond host
   clock, order statistics, the machine-speed calibration loop, and the
   in-memory span buffer of traced runs. *)

(* Host time.  The monotonic clock is a noalloc external returning an
   unboxed int64, so reading it inside a hot loop allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

(* Minor-heap words allocated so far ([Gc.minor_words] is unboxed). *)
let minor_words () = Gc.minor_words ()

(* Nearest-rank percentile of an unsorted array (copied, not mutated). *)
let percentile values p =
  let n = Array.length values in
  if n = 0 then 0.0
  else begin
    let a = Array.copy values in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median values = percentile values 50.0

(* The rate a run reaches in its fastest tenth of windows.  On a shared
   2-vCPU VM the capsule path was measured to slow by up to 2x for
   seconds to minutes while its neighbours were busy; a median over
   windows follows those phases, the top decile only needs one tenth of
   a run to be quiet (README.md, "Noise"). *)
let top_decile values = percentile values 90.0

let mean values =
  let n = Array.length values in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 values /. float_of_int n

(* Growable float sample buffer (unboxed storage). *)
module Samples = struct
  type t = { mutable data : Float.Array.t; mutable len : int }

  let create () = { data = Float.Array.create 256; len = 0 }

  let add t v =
    if t.len = Float.Array.length t.data then begin
      let bigger = Float.Array.create (2 * t.len) in
      Float.Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    Float.Array.set t.data t.len v;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.init t.len (fun i -> Float.Array.get t.data i)
end

(* Set-up is timed repeatedly, the repetitions spread over the whole run
   so that one slow phase of the machine does not decide the figure; the
   median is reported.  [time_setup] runs one timed set-up and returns
   its product; [maybe_setup] runs and discards one when the next is
   due. *)
module Setup = struct
  type t = { samples : Samples.t; interval : int; mutable next : int }

  let reps = 20
  let create ~seconds = { samples = Samples.create (); interval = int_of_float (seconds *. 1e9) / reps; next = 0 }

  let time t f =
    Gc.full_major ();
    let t0 = now_ns () in
    let x = f () in
    let t1 = now_ns () in
    Samples.add t.samples (float_of_int (t1 - t0) *. 1e-9);
    t.next <- t1 + t.interval;
    x

  let maybe t f = if now_ns () >= t.next then ignore (time t f)
  let median t = median (Samples.to_array t.samples)
end

(* A fixed integer loop whose host time tracks the machine's current
   speed.  It is printed beside every run so that a slow phase of the
   machine shows up next to the figures it slowed; results are never
   rescaled by it. *)
let calibrate () =
  let t0 = now_ns () in
  let x = ref 0x2545F491 in
  for i = 1 to 20_000_000 do
    x := (!x * 0x5DEECE66D) + i;
    x := !x lxor (!x lsr 17)
  done;
  let ms = float_of_int (now_ns () - t0) *. 1e-6 in
  (* Consume the result so the loop cannot be dropped. *)
  if !x = 42 then print_string "";
  ms

(* Spans of a traced run, kept in unboxed columns and written out once
   at the end.  [key] is the capsule seq or the epoch index the span
   belongs to; [parent] is the id of the enclosing span (0 = root).
   Spans read from the program's telemetry registry only carry a total
   duration, so they are written as aggregates: [start] is their
   parent's start and [count] is how many program spans the total
   covers. *)
module Spans = struct
  type t = {
    mutable names : string array;
    name_ids : (string, int) Hashtbl.t;
    mutable name_of : int array;
    mutable key : int array;
    mutable parent : int array;
    mutable count : int array;
    mutable start : int array;
    mutable stop : int array;
    mutable len : int;
  }

  let create () =
    let cap = 1024 in
    {
      names = [||];
      name_ids = Hashtbl.create 32;
      name_of = Array.make cap 0;
      key = Array.make cap 0;
      parent = Array.make cap 0;
      count = Array.make cap 0;
      start = Array.make cap 0;
      stop = Array.make cap 0;
      len = 0;
    }

  let intern t name =
    match Hashtbl.find_opt t.name_ids name with
    | Some id -> id
    | None ->
      let id = Array.length t.names in
      t.names <- Array.append t.names [| name |];
      Hashtbl.add t.name_ids name id;
      id

  let grow t =
    let cap = 2 * Array.length t.key in
    let g a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.name_of <- g t.name_of;
    t.key <- g t.key;
    t.parent <- g t.parent;
    t.count <- g t.count;
    t.start <- g t.start;
    t.stop <- g t.stop

  (* Record a finished span; returns its id (ids start at 1). *)
  let add ?(count = 1) t ~name ~key ~parent ~start ~stop =
    if t.len = Array.length t.key then grow t;
    let i = t.len in
    t.name_of.(i) <- name;
    t.key.(i) <- key;
    t.parent.(i) <- parent;
    t.count.(i) <- count;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.len <- i + 1;
    i + 1

  let length t = t.len

  (* Written under perfbench/out/ in the directory the runner runs in. *)
  let write t workload =
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    let oc = open_out (Printf.sprintf "perfbench/out/%s.spans.csv" workload) in
    output_string oc "id,parent,name,key,count,start_ns,end_ns\n";
    let base = if t.len = 0 then 0 else t.start.(0) in
    for i = 0 to t.len - 1 do
      Printf.fprintf oc "%d,%d,%s,%d,%d,%d,%d\n" (i + 1) t.parent.(i)
        t.names.(t.name_of.(i))
        t.key.(i) t.count.(i) (t.start.(i) - base) (t.stop.(i) - base)
    done;
    close_out oc
end

(* Deltas of the program's own span histograms and counters in the
   telemetry registry the runner passes in. *)
let span_sum tel name =
  match Activermt_telemetry.Telemetry.hist_summary tel name with
  | Some s -> (s.Activermt_telemetry.Telemetry.sum, s.Activermt_telemetry.Telemetry.count)
  | None -> (0.0, 0)

let counter tel name = Activermt_telemetry.Telemetry.counter_value tel name

(* A workload's findings.  [e2e] holds the benchmark's end-to-end
   metrics, [layers] the per-layer ones of a traced run; [report] lines
   are printed for a human reader before the JSON result. *)
type outcome = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;
  deterministic : (string * string) list;
  report : string list;
}

type config = { seed : int; seconds : float; trace : bool }

(* Failure accounting: each check is one attempt; the first few failures
   are kept for the report. *)
module Checks = struct
  type t = { mutable attempted : int; mutable failed : int; mutable notes : string list }

  let create () = { attempted = 0; failed = 0; notes = [] }

  let check t ok fmt =
    Printf.ksprintf
      (fun msg ->
        t.attempted <- t.attempted + 1;
        if not ok then begin
          t.failed <- t.failed + 1;
          if t.failed <= 10 then t.notes <- msg :: t.notes
        end)
      fmt

  (* For checks repeated per capsule or per FID: no message is built
     unless the check fails. *)
  let ok t = t.attempted <- t.attempted + 1

  let fail t msg =
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    if t.failed <= 10 then t.notes <- msg :: t.notes
end
