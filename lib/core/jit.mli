(** Data-plane specialization tier: compiles an admitted FID's program
    into a chain of fused native closures and caches it keyed by
    [(fid, allocation_epoch)].

    The compiled form resolves at compile time everything the interpreter
    re-derives per packet — granted region bounds, translation constants,
    privilege, the recirculation allowance, stage register arrays — and
    keeps branches only at the data-dependent points (complete/disabled
    flags, recirculation checks).  Execution is equivalent to
    {!Runtime.run}, the reference semantics: the same [result] and the
    same register-array and device-counter side effects.  The JIT emits
    no per-stage [trace_event]s; a caller that wants them runs the
    interpreter ([Runtime.run ~on_event]).

    Three tiers serve a packet, each carrying part of the device bench's
    speedup over the interpreter:
    - a direct-mapped dispatch cache in front of the per-FID closure
      table;
    - per-slot closures fused into straight-line blocks, peephole
      superinstructions for the synthesizer's idioms (sketch row,
      indexed read, threshold test, probe-and-compare, hash cookie,
      round-robin index, RTS reply/ack, hash-data loads, loaded stores);
    - for jump-free programs, one whole-program chain with the pass
      boundaries baked in.  Programs with jumps run the block driver.

    Invalidation is automatic: {!Table.epoch} is bumped by every install
    and remove, so reallocation, migration, departure, and privilege or
    pass-limit changes all make cached closures stale; the next packet
    recompiles against the new allocation.  Quiescence remains a dynamic
    per-packet check.  Non-[Exec] packets, quiesced FIDs, uninstalled FIDs
    and disabled JITs ([enabled = false], the [--no-jit] escape hatch)
    fall back to the interpreter. *)

type t

type mode =
  | Compiled  (** served from the closure cache *)
  | Compiled_fresh  (** compiled on this packet (cache miss) *)
  | Interpreted  (** interpreter fallback *)

val create : ?enabled:bool -> ?telemetry:Activermt_telemetry.Telemetry.t -> Table.t -> t
(** A JIT over a switch's match tables.  [enabled] (default true) false
    turns every execution into an interpreter fallback.  Counters
    [jit.compile]/[jit.hit]/[jit.miss]/[jit.invalidate], the
    [jit.enabled] gauge and the [jit.compile] span land in [telemetry]
    (default {!Activermt_telemetry.Telemetry.default}) as they happen. *)

val run : t -> ?meta:Runtime.meta -> Packet.t -> Runtime.result
(** Drop-in replacement for {!Runtime.run} without [on_event]. *)

val run_info : t -> ?meta:Runtime.meta -> Packet.t -> Runtime.result * mode
(** [run] plus how the packet was executed, for span attributes. *)

val would_specialize : t -> Packet.t -> bool
(** Whether [run] would take the compiled path for this packet (modulo
    compilation itself): enabled, [Exec] payload, installed, not
    quiesced.  Cheap; used to stamp trace spans before execution. *)

val invalidate : t -> fid:Packet.fid -> unit
(** Drop any cached closures for the FID (counted under
    [jit.invalidate]).  Purely an eviction: correctness never depends on
    it, because stale closures are already unreachable once the
    allocation epoch moves. *)

val enabled : t -> bool
val tables : t -> Table.t
val cache_size : t -> int

val stats : t -> int * int * int * int
(** [(hits, misses, compiles, invalidates)], read from the telemetry
    registry's [jit.*] counter cells.  JITs that share a registry share
    these counts, and {!Activermt_telemetry.Telemetry.reset} clears
    them. *)
