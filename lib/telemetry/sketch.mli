(** Log-bucketed quantile sketch: the one percentile estimator behind
    {!Telemetry} histograms and {!Timeseries} dist windows.

    Observations land in logarithmic buckets, 8 per octave, so bucket [k]
    covers [[2^(k/8), 2^((k+1)/8))].  The buckets span [[2^-32, 2^32)],
    which holds nanosecond spans in seconds as well as raw counts such as
    queue depths; values below (including zero and negatives) share the
    bottom bucket and values above share the top one.  A quantile reads
    back its bucket's geometric midpoint — at most [2^(1/16) - 1 ~= 4.4%]
    relative error inside the range — clamped to the exact observed
    [min]/[max], so no samples are stored.

    The exact [count], [sum], [min] and [max] are kept alongside.  Count
    and sum may also be bumped directly by count-only series that never
    read quantiles. *)

type t = {
  mutable count : int;
  mutable sum : float;
  mutable min : float;  (** [infinity] while empty *)
  mutable max : float;  (** [neg_infinity] while empty *)
  mutable buckets : int array;  (** [[||]] until the first {!record} *)
}

val create : unit -> t

val record : t -> float -> unit

val merge_into : into:t -> t -> unit
(** Add every observation of the second sketch to [into]. *)

val clear : t -> unit
(** Back to empty, keeping the bucket array for reuse. *)

val quantile : t -> float -> float
(** The [q]-quantile: [0.0] when empty, the exact [min] for [q <= 0.0],
    the exact [max] for [q >= 1.0], otherwise the midpoint of the bucket
    holding the [ceil (q * count)]-th observation clamped to
    [[min, max]]. *)
