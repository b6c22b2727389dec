(** I/O and access counters.

    The paper's caching experiments (Sec. 3.3 / 5.2) measure the benefit of
    buffering hot inverted lists in main memory against a storage engine with
    caching disabled. These counters make that effect observable and testable
    independently of wall-clock noise. *)

type t

val create : unit -> t
val reset : t -> unit

(** {1 Recording} *)

val record_read : t -> bytes:int -> unit
val record_write : t -> bytes:int -> unit
val record_hit : t -> unit
(** A lookup served from a main-memory cache. *)

val record_miss : t -> unit
(** A lookup that had to go to the backing store. *)

val record_lookup : t -> unit
(** One logical inverted-list lookup. Every lookup must record exactly one
    hit or miss, so [lookups = hits + misses] always holds — a property
    the test suite checks. *)

val record_fault : t -> unit
(** An injected failure (see {!Fault}). *)

val record_recovery : t -> unit
(** A recovery action: a journal rollback or a truncated log tail. *)

(** {1 Reading} *)

val reads : t -> int
val writes : t -> int
val bytes_read : t -> int
val bytes_written : t -> int
val hits : t -> int
val misses : t -> int
val lookups : t -> int
val faults : t -> int
val recoveries : t -> int

val hit_ratio : t -> float
(** [hits / (hits + misses)], or [0.] when no lookups were recorded. *)

val merge : t -> t -> t
(** Pointwise sum, as a fresh counter. *)

val pp : Format.formatter -> t -> unit
(** One line: reads/writes and cache hits/misses with the hit ratio
    rendered as [ratio %.3f] (matching [Server_stats.render] precision). *)

val attribute : ?trace:Obs.Trace.t -> ?store:t -> t -> (unit -> 'a) -> 'a
(** [attribute ?trace ?store lookups f] runs [f] and, when [trace] is
    given, attaches the counter deltas [f] caused to the trace's
    innermost open span: [lookups]/[hits]/[misses] of [lookups] (always,
    so a zero is visible) and, when [store] is given, its
    [reads]/[bytes_read] (only when non-zero). A span tree built this
    way reconciles with the counters' totals. Without [trace] nothing
    is sampled. *)

val register : Obs.Metrics.t -> ?labels:(string * string) list -> t -> unit
(** Publishes these counters into a metrics registry as
    [nscq_io_*_total] callback series plus an [nscq_io_cache_hit_ratio]
    gauge. Registering another [t] under the same labels replaces the
    series (the registry samples whichever handle registered last). *)
