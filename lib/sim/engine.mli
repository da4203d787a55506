(** Discrete-event simulation engine: a time-ordered queue of thunks.

    Events scheduled for the same instant fire in scheduling order, so
    traces are deterministic. *)

type t

val create : ?telemetry:Activermt_telemetry.Telemetry.t -> unit -> t
(** [telemetry] (default [Telemetry.default]) counts
    [sim.events.scheduled] / [sim.events.processed] and tracks the
    [sim.queue_depth] gauge as events fire.  The three handles are looked
    up here, once, so an event costs two counter bumps and one unboxed
    gauge write; none appears in a dump before the first event. *)

val now : t -> float
(** Current simulated time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Enqueue an event [delay] seconds from now (clamped to now for
    negative delays). *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit

val run : ?until:float -> t -> unit
(** Drain the queue (or stop once the next event is past [until], leaving
    it queued and setting the clock to [until]). *)

val step : t -> bool
(** Fire the single next event; false when the queue is empty. *)

val pending : t -> int
