(** Bench rows: the one schema every bench section writes into
    [BENCH_alloc.json], and the gates that hold it.

    A row is one number: [value] of [metric] for [key] (a workload, a
    tenant count, a sweep point; [""] when the section measures one
    thing) within [section].  Its gates are the claims CI holds:

    - [Abs (op, v)] holds when [value op v].  The bench binary checks
      these after writing ({!check}), and the differ re-checks them.
    - [Rel (op, f)] holds when [value op (f *. base)], where [base] is
      the matching baseline row's value.  Only the differ ({!diff})
      evaluates these, and it takes them from the baseline row.

    A row without gates is data.  A missing measurement is [nan] (written
    as [null]); it fails every gate.

    On disk the file is one JSON object with a member per section, each
    an array of rows, one row per line:
    {v {"key": "mixed", "metric": "speedup", "value": 6.56, "unit": "x",
  "gates": [">= 5", ">= 0.7*base"]} v} *)

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

val row :
  section:string -> ?key:string -> ?gates:gate list -> string -> unit:string -> float -> row
(** [row ~section ~key metric ~unit value]; [key] defaults to [""]. *)

val throughput_floor : gate
(** [Rel (Ge, 0.7)]: at most a 30% drop against the baseline. *)

val latency_ceiling : gate
(** [Rel (Le, 2.0)]: at most 2x growth against the baseline. *)

val check : row list -> unit
(** Raises [Failure] naming every row whose value fails one of its
    absolute gates. *)

val write : ?path:string -> section:string -> row list -> unit
(** Replace [section] of the file at [path] (default ["BENCH_alloc.json"]
    in the working directory) with [rows], each of which must belong to
    [section], keeping every other section as it is.
    Raises [Failure] and leaves the file untouched if it exists but does
    not parse as a JSON object.  Writes a temp file and renames it over
    [path]. *)

val load : string -> ((string * row list) list, string) result
(** Sections of a rows file, in file order. *)

val diff :
  base:(string * row list) list -> (string * row list) list -> string list * int
(** [diff ~base current] compares a candidate against a baseline and
    returns the report lines and the number of failures.  Every candidate
    row is held to its own absolute gates and to its baseline row's
    relative gates.  A gated baseline row absent from a section the
    candidate ran fails.  Candidate-only rows and sections, and baseline
    sections the candidate did not run, are reported as INFO. *)
