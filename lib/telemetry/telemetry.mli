(** Dependency-light metrics registry: counters, gauges, log-bucketed
    latency histograms, and span timers.

    One registry is one hash table of cells written by one thread of
    control, and a gauge is a plain last write.  Recording by name is a
    lookup plus an in-place cell update; a {!counter} or {!gauge} handle
    skips the lookup, so recording through it is a field update.
    Per-event and per-packet code looks its handles up once and records
    through them; the by-name calls are for cold paths.

    Histograms are {!Sketch}es: no samples are stored, percentiles carry
    at most ~4.4% relative error over [[2^-32, 2^32)] and are clamped to
    the exact observed min/max.  The exact [sum], [min], [max] and
    [count] are tracked alongside.

    Spans are sugar over histograms: [with_span t "alloc.score" f] times
    [f] and observes the elapsed seconds into histogram "alloc.score".
    Spans nest (a stack), and [with_span] records even when [f] raises.

    Metric names are flat dot-separated strings (see docs/TELEMETRY.md
    for the taxonomy).  A name denotes one kind forever; re-using it as
    a different kind raises [Invalid_argument]. *)

type t

val create : ?now:(unit -> float) -> unit -> t
(** A fresh registry.  [now] (default [Unix.gettimeofday]) is the span
    clock, injectable for deterministic tests. *)

val default : t
(** The process-wide registry that instrumented components record into
    unless handed a specific one. *)

val noop : t
(** A registry that records nothing: its handles are detached cells,
    by-name recording and spans do nothing (beyond running the spanned
    function), and every read and dump is empty. *)

(** {2 Handles (hot path)} *)

type counter
type gauge

val counter : t -> string -> counter
(** The registry's cell for counter [name], registered if new.  The
    handle and {!incr} update the same cell.  A cell that was looked up
    but never recorded is absent from every read and dump.
    @raise Invalid_argument if [name] is another kind of metric. *)

val gauge : t -> string -> gauge
(** Likewise for gauge [name]; the value is stored unboxed, so {!set}
    allocates nothing. *)

val bump : counter -> unit
(** Add one. *)

val count : counter -> int
(** The handle's current value: what {!counter_value} reads for a live
    registry's cell ({!noop} handles count on their own detached cell). *)

val set : gauge -> float -> unit

(** {2 Recording by name} *)

val incr : ?series:Timeseries.t -> t -> ?by:int -> string -> unit
(** Add [by] (default 1) to counter [name].  With [series], also add
    [by] to the counter series [name] there at its clock: one call
    records the event in both registries, even when [t] is {!noop}.
    A series is created only when first recorded, and [~by:0] still
    adds one (zero-sum) event to it. *)

val set_gauge : t -> string -> float -> unit

val observe : t -> string -> float -> unit
(** Record one observation into the named histogram. *)

val span_begin : t -> string -> unit

val span_end : t -> unit
(** Close the innermost open span and observe its elapsed seconds under
    the span's name.
    @raise Invalid_argument if no span is open. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [span_begin]/[span_end] around [f], exception-safe. *)

(** {2 Reads} *)

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

val counter_value : t -> string -> int
(** 0 if the counter was never incremented. *)

val gauge_value : t -> string -> float option
(** The most recently set value. *)

val hist_summary : t -> string -> hist_summary option
(** [None] for an unknown name.  A single-observation histogram reports
    that observation for every percentile (sketch midpoints clamp to
    [min, max]); an empty summary reports zeros throughout. *)

val hist_percentile : t -> string -> float -> float
(** The [p]-th percentile ([0..100]) of a span histogram, from the
    log-bucketed sketch, clamped to the observed [min, max].  Edge
    cases are pinned: unknown name or empty histogram yields [0.0];
    [p <= 0.0] yields the exact observed minimum and [p >= 100.0] the
    exact maximum.
    @raise Invalid_argument if [p] is NaN. *)

val counters : t -> (string * int) list
(** All counters, sorted by name.  Likewise [gauges] and
    [histograms]. *)

val gauges : t -> (string * float) list
val histograms : t -> (string * hist_summary) list

val reset : t -> unit
(** Clear every metric's value and every open span: afterwards each
    counter reads 0 and each histogram [None], and no metric appears in
    a dump until recorded again.  Cells are cleared in place, so handles
    taken before the reset keep recording into the registry, and each
    name keeps its kind. *)

(** {2 Dumps} *)

val json_of : t -> Json.t
val json_of_summary : hist_summary -> Json.t

val dump_json : t -> string
(** Pretty-printed {!json_of}: counters, gauges, histogram summaries. *)

val dump_prometheus : t -> string
(** Prometheus text exposition: counters, gauges, summaries with
    p50/p90/p99 quantiles.  Names are sanitized to the exposition
    format's charset ([[a-zA-Z_:][a-zA-Z0-9_:]*]) and label values have
    backslash, double-quote and newline escaped, so the output is
    well-formed promtext for any registry key. *)

val prom_name : string -> string
(** The metric-name sanitizer {!dump_prometheus} uses: every character
    outside [[a-zA-Z0-9_:]] collapses to ['_'] and a leading digit gets a
    ['_'] prefix. *)

val prom_escape_label : string -> string
(** The label-value escaper {!dump_prometheus} uses: backslash,
    double-quote and newline each gain a leading backslash (newline
    becomes the two characters backslash-n). *)

val write_json : t -> path:string -> unit
