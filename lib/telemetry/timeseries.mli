(** Deterministic windowed time series.

    Where {!Telemetry} answers "what happened over the whole run", a
    series registry answers "what happened {e when}": every metric is a
    fixed-capacity ring of virtual-clock buckets, each holding
    count/sum/min/max plus a {!Sketch} (the same percentile sketch as
    {!Telemetry} histograms).  The clock is injected —
    simulations pass their engine or modeled clock, never wall time — so
    same-seed replays produce byte-identical series and byte-identical
    JSON dumps.

    Two series kinds, determined by first use and sticky thereafter:
    - {b counter} series ([add]) accumulate count/sum per bucket;
    - {b dist} series ([observe]) additionally track min/max and a
      percentile sketch per bucket.

    @raise Invalid_argument when a name is re-used with the other kind. *)

type t

val create : ?bucket_s:float -> ?capacity:int -> ?now:(unit -> float) -> unit -> t
(** A live registry.  [bucket_s] (default [1.0]) is the window width in
    virtual seconds; [capacity] (default [128]) is how many windows each
    series retains (older buckets are overwritten in ring order).
    [now] (default [fun () -> 0.0]) supplies the virtual clock; it must
    be monotone non-decreasing for windows to be meaningful.  Wall
    clocks are deliberately not the default: pass your simulation's
    clock explicitly. *)

val noop : t
(** A disabled registry: [add]/[observe] are no-ops, reads are empty.
    Components take [?series] defaulting to [noop] so the data path pays
    (almost) nothing when the health plane is off. *)

val enabled : t -> bool
(** [false] only for {!noop}. *)

val with_clock : t -> (unit -> float) -> t
(** [with_clock t now] is a view of [t] that reads clock [now]: it records
    into the same series, so the registry's reads and dumps show what
    the view records, and the registry's own clock is unchanged.  A
    component with its own modeled clock takes its view once and
    records through it.  [with_clock noop _] is [noop]. *)

val bucket_s : t -> float
val capacity : t -> int

val now : t -> float
(** The registry clock's current virtual time ([0.0] on {!noop}). *)

val add : t -> ?t:float -> ?by:float -> string -> unit
(** Bump a counter series by [by] (default [1.0]) in the bucket covering
    time [t] (default: the registry clock).  A counter that
    {!Telemetry} also keeps is recorded through [Telemetry.incr ~series]
    instead, so the two cannot drift. *)

val observe : t -> ?t:float -> string -> float -> unit
(** Record one sample of a distribution series in the bucket covering
    [t] (default: the registry clock). *)

(** {1 Reads} *)

type window = {
  w_index : int;  (** bucket index: [floor (t / bucket_s)] *)
  w_count : int;
  w_sum : float;
  w_min : float;  (** 0.0 for counter series *)
  w_max : float;  (** 0.0 for counter series *)
  w_p50 : float;  (** sketch percentiles, 0.0 for counter series *)
  w_p90 : float;
  w_p99 : float;
}

val names : t -> string list
(** All series names, sorted. *)

val kind_of : t -> string -> [ `Counter | `Dist ] option
(** The kind a series was first used as; [None] if unknown. *)

val windows : t -> string -> window list
(** The retained windows of a series, ascending [w_index]; [[]] if the
    name is unknown.  At most [capacity] windows. *)

type agg = {
  a_count : int;
  a_sum : float;
  a_min : float;
  a_max : float;
  a_p50 : float;
  a_p90 : float;
  a_p99 : float;
  a_windows : int;  (** how many retained windows the aggregate covers *)
}

val aggregate : ?last:int -> t -> string -> agg
(** Merge the newest [last] windows of a series (default: all retained)
    into one summary — the raw material for SLO evaluation.  Percentiles
    come from the merged sketch for dist series and are [0.0] for
    counter series; an unknown name or empty range yields the zero
    aggregate. *)

val quantile : ?last:int -> t -> string -> float -> float
(** [quantile t name q] is the [q]-quantile ([0.0 <= q <= 1.0]) of a
    dist series over the newest [last] windows, clamped to observed
    min/max as in {!Telemetry}; [0.0] when empty.
    @raise Invalid_argument if [q] is NaN or outside [0, 1]. *)

(** {1 Deterministic JSON} *)

val json_of : t -> Json.t
(** The full registry as JSON: series sorted by name, windows ascending
    by index, no wall-clock fields — byte-identical across same-seed
    replays. *)

val write_json : t -> path:string -> unit

(** {1 Dump parsing (for [fleettop] and tests)} *)

type dump = {
  d_bucket_s : float;
  d_capacity : int;
  d_series : (string * [ `Counter | `Dist ] * window list) list;
}

val dump_of_json : Json.t -> (dump, string) result
val dump_of_string : string -> (dump, string) result
