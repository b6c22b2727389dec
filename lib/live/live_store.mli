(** The live (mutable) collection: an LSM-style set of immutable sealed
    segments plus an in-memory memtable and a tombstone set, behind one
    lock.

    {2 Structure}

    - {e Sealed segments} ({!Segment}): full inverted files written by
      {!Invfile.Merger.merge} over crash-safe {!Storage.Log_store} files,
      never written after sealing. Their global-id ranges are disjoint
      and ascending (oldest segment first).
    - {e Memtable}: an ordinary in-memory inverted file
      ({!Storage.Mem_store} + {!Invfile.Updater}) holding every record
      inserted since the last flush. Memtable global ids exceed every
      sealed id.
    - {e Tombstones}: global ids of deleted {e sealed} records (memtable
      deletes tombstone the memtable record directly). Queries filter
      them; compaction purges them physically.
    - {e WAL} ({!Wal}): every accepted write is logged (and fsynced)
      before it is applied, so reopening replays exactly the
      acknowledged state.
    - {e Manifest} ({!Live_manifest}): the single commit point, swapped
      by atomic rename at flush and compaction seal points.

    {2 Semantics}

    A containment query is a per-record semi-join, so evaluating each
    segment (and the memtable) independently and concatenating the
    translated id lists is {e exactly} the result a from-scratch rebuild
    of one store over the live records would give — for every engine
    configuration (Hom/Iso/Homeo, flat and nested, any scope). The
    qcheck differential suite in [test/test_live.ml] pins this, byte for
    byte, including across crash-recovery at every write boundary.

    Every read path ({!query}, {!query_batch}, {!explain}, {!join}) is
    one {!Containment.Partitioned} fan-out over the {e parts} — the
    sealed segments oldest first, then the memtable — run in the calling
    domain under the lock. A part translates its local record ids to
    global ids and drops the tombstoned ones; the parts' gid ranges
    ascend, so answers concatenated in part order are already sorted.

    {2 Concurrency}

    All public operations serialize on one {!Lockdep} mutex
    (["live.store"]), so a store may be shared freely across domains
    (the server's worker pool does). A join holds the lock end to end —
    the segment set it runs over is pinned for the whole join.
    Background compaction does its heavy build {e off} the lock on a
    dedicated domain, taking it only to pick its inputs and to swap the
    result in. *)

type config = {
  flush_records : int;
      (** auto-flush the memtable once it holds this many records
          (0 = manual flush only) *)
  max_segments : int;
      (** background compaction trigger: keep at most this many segments
          (0 = never trigger) *)
  auto_compact : bool;
      (** run a dedicated compaction domain (started on open, joined on
          close) *)
  wal_sync : bool;  (** fsync the WAL on every accepted write *)
  wrap : string -> Storage.Kv.t -> Storage.Kv.t;
      (** interposes on every store handle the live store opens or
          creates (path, handle) — the fault-injection hook the crash
          sweep uses; identity in production *)
}

val default : config
(** [flush_records = 4096], [max_segments = 8], [auto_compact = false],
    [wal_sync = true], [wrap] = identity. *)

type t

val create : ?config:config -> string -> t
(** [create dir] initialises a fresh live store in [dir] (created if
    missing, which must not already contain one).
    @raise Invalid_argument if [dir] already holds a live store. *)

val open_store : ?config:config -> string -> t
(** Opens an existing live store: loads the manifest, opens every sealed
    segment, deletes orphan segment/WAL files a crash left behind
    (anything not referenced by the manifest), and replays the current
    WAL generation into a fresh memtable.
    @raise Live_manifest.Corrupt / Wal.Corrupt /
    Invfile.Inverted_file.Malformed on damage beyond crash recovery
    (see {!verify} / {!repair}). *)

val is_live_dir : string -> bool
(** Alias of {!Live_manifest.is_live_dir}. *)

val close : t -> unit
(** Stops the compaction domain (if any) and closes every handle. Does
    {e not} flush: durability comes from the WAL. Idempotent. *)

val dir : t -> string

(** {1 Writes}

    After a {!Storage.Fault.Crashed} escape the handle is poisoned —
    close and reopen it; the WAL replay restores every acknowledged
    write. *)

val insert : t -> Nested.Value.t -> int
(** Logs, applies to the memtable, and returns the new record's global
    id (monotonic, never reused). May trigger an auto-flush.
    @raise Invalid_argument if the value is a bare atom, or the store is
    closed. *)

val delete : t -> int -> bool
(** Deletes by global id: a memtable record is tombstoned in place, a
    sealed record enters the tombstone set (purged at the next
    compaction covering its segment). [false] if the id is unknown,
    already deleted, or already purged. *)

(** {1 Queries}

    Results are ascending global record ids — byte-identical (as an id
    sequence) to a from-scratch rebuild over the live records. [config]
    defaults to {!Containment.Engine.default}; a config carrying a
    [filter_index] is rejected (a Bloom filter is built against one
    store's record ids and cannot span segments). *)

val query :
  ?config:Containment.Engine.config -> ?trace:Obs.Trace.t ->
  t -> Nested.Value.t -> int list
(** With [?trace], one span per part in part order — [segment:<file>]
    per sealed segment, oldest first, then [memtable] — each carrying
    the engine's own phase spans; without it no trace is allocated.
    Tombstoned records are filtered before the answer is returned. *)

val query_batch :
  ?config:Containment.Engine.config ->
  t -> Nested.Value.t list -> int list list
(** One lock acquisition and one {!Containment.Engine.query_batch} per
    part for the whole block; results in input order, each equal to
    {!query}'s, in time linear in the block size. *)

val explain :
  ?config:Containment.Engine.config -> ?target:string ->
  t -> Nested.Value.t -> Obs.Explain.t
(** The live-store EXPLAIN: one
    {!Containment.Engine.profile_of_trace} sub-plan per part, in the
    same part order and under the same names as {!query}'s spans
    (target [segment:<file>] per sealed segment, then [memtable]), each derived
    from a single evaluation of that part, under the top-level [target]
    (default ["live"]) whose [records] is the post-tombstone total —
    exactly {!query}'s result count. A sub-plan's own counts are the
    part's, before tombstone filtering. Rejects a [filter_index] config as
    {!query} does. *)

val join :
  ?config:Join.Engine.config -> ?trace:Obs.Trace.t ->
  t -> Nested.Value.t list -> (int * int) list
(** Set-containment join of an outer collection against the live
    records: {!Join.Engine.join} per segment plus the memtable, under
    the lock for the whole join — the segment set is pinned, concurrent
    writes wait. Pairs are [(outer index, global record id)], ascending
    by outer index then id, equal to {!Join.Engine.naive} over a
    rebuilt store. *)

val record_value : t -> int -> Nested.Value.t option
(** The stored value behind a live global id; [None] for deleted,
    purged, or unknown ids. *)

val fold_live : t -> init:'a -> f:('a -> int -> Nested.Value.t -> 'a) -> 'a
(** Folds over the live records in ascending global-id order (the export
    path, and the differential oracle's input). *)

(** {1 Maintenance} *)

val flush : ?trace:Obs.Trace.t -> t -> int
(** Seals the memtable: merges it into a new segment
    ({!Invfile.Merger.merge} of one source — the memtable's ids do not
    move, so its lists are copied as bytes and each key is put once),
    rotates the WAL, commits the manifest (the fsync fence), and resets
    the memtable. Returns the number of records sealed (0 still rotates
    the WAL and persists the tombstone set, keeping recovery O(recent)).
    With [?trace], records a [flush] span. *)

val compact : ?trace:Obs.Trace.t -> ?all:bool -> t -> int option
(** One leveled compaction step: merges the adjacent run of segments
    with the smallest combined live size (every segment when [~all])
    through one {!Invfile.Merger.merge}, whose keep predicate purges the
    tombstoned records of the merged range inside the merge, and
    atomically swaps the manifest; the handle that wrote the new segment
    serves it. The heavy merge runs off the lock (concurrent queries and
    writes proceed); returns
    [Some n] ([n] segments merged) or [None] when there is nothing to do
    (fewer than two segments and no tombstones to purge, or a compaction
    is already running). With [?trace], records a [compact] span. *)

val segment_count : t -> int
val memtable_records : t -> int
(** Live (non-deleted) memtable records. *)

val live_records : t -> int
(** Total live records across segments and memtable. *)

val tombstone_count : t -> int
val next_id : t -> int

(** {1 Observability} *)

val register : Obs.Metrics.t -> ?labels:(string * string) list -> t -> unit
(** Publishes gauges [nscq_live_memtable_records], [nscq_live_segments],
    [nscq_live_records], [nscq_live_tombstones] and counters
    [nscq_live_inserts_total], [nscq_live_deletes_total],
    [nscq_live_flushes_total], [nscq_live_compactions_total] as render-
    time callbacks, plus duration histograms [nscq_live_flush_ms] and
    [nscq_live_compact_ms] observed at each flush/compaction. *)

val totals : t -> (string * int) list
(** The same quantities as {!register}, as an alist — the [nscq stats]
    rendering for live stores. *)

(** {1 Verification & repair} *)

val verify : t -> (string * string) list
(** The live-store fsck: per-segment {!Invfile.Integrity.check}, id-map
    invariants (length, strict ascent, disjoint ascending ranges),
    tombstones resolvable to sealed slots, WAL op checksums
    ({!Wal.verify}), memtable integrity. [(what, detail)] pairs; empty
    means consistent. *)

val repair : t -> string list
(** Repairs what {!verify} can detect in each sealed segment and in the
    memtable: one {!Containment.Engine.repair} per part (journal
    rollback, then an index rebuild from the stored records when
    needed). Returns a description of each part that rolled back or was
    rebuilt. WAL torn tails are already healed on open. *)

(**/**)

(* Test hook: called at named write boundaries inside flush
   ("flush:segment-built", "flush:wal-rotated", "flush:manifest-swapped")
   and compaction ("compact:dst-built", "compact:manifest-swapped") —
   the crash sweep raises from it. *)
val set_step_hook : t -> (string -> unit) -> unit

(* Test hook: the memtable's inverted file, for tests that damage it. *)
val internal_memtable : t -> Invfile.Inverted_file.t

(**/**)
