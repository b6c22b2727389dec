(** Crash-safe append-only key-value store (log-structured, Bitcask-style).

    The paper's Tokyo Cabinet setting assumes a cleanly-written index; a
    production deployment also wants crash safety. This backend provides it
    with the classic log-structured design:

    - the data file is a sequence of checksummed records
      [crc32 | flags | key_len | val_len | key | value]; puts and deletes
      (tombstones) only ever {e append}, so an interrupted write can only
      produce a torn {e tail};
    - the key directory lives in memory and is rebuilt by a sequential scan
      on open; a record that fails its checksum — a torn write from a crash
      — truncates the log at that point, recovering the store to its last
      consistent prefix;
    - {!compact} rewrites live records into a fresh file, dropping
      overwritten versions and tombstones.

    Trade-offs vs {!Hash_store}: O(live keys) memory for the directory and
    an O(file) scan at open, in exchange for crash safety and strictly
    sequential writes. *)

val magic : string
(** The 8-byte header every file of this format starts with. *)

val create : string -> Kv.t
(** Creates a fresh store (truncating [path]). *)

val open_existing : ?to_last_commit:bool -> string -> Kv.t
(** Recovers the store: scans the log, rebuilds the directory, and
    truncates any torn tail (recorded as a recovery on the handle's
    {!Io_stats}). With [~to_last_commit:true] the log is additionally
    rolled back to the last {!mark_commit} fence, so a batch interrupted
    {e between} records — not only inside one — disappears entirely.
    @raise Failure on a missing file or bad header. *)

val mark_commit : Kv.t -> unit
(** Appends a commit fence and fsyncs: everything before it survives an
    [open_existing ~to_last_commit:true] recovery. Only valid on handles
    from this module. @raise Invalid_argument on foreign handles. *)

val last_commit : Kv.t -> int
(** File offset just past the most recent commit fence (the header size
    when none was ever written). @raise Invalid_argument on foreign
    handles. *)

val compact : Kv.t -> unit
(** Garbage-collects dead records in place (atomic rename of a rewritten
    file). Only valid on handles from this module.
    @raise Invalid_argument on foreign handles. *)

val dead_bytes : Kv.t -> int
(** Bytes occupied by overwritten/deleted records (compaction would
    reclaim them). @raise Invalid_argument on foreign handles. *)
