(** On-disk external hash table.

    Stands in for Tokyo Cabinet's external-memory hash table, the storage
    engine of the paper's implementation (Sec. 5.1, with main-memory
    buffering explicitly disabled). Every [get] performs real file I/O —
    there is no user-space page cache — so the inverted-list caching
    optimization of Sec. 3.3 has a genuine effect to measure.

    File layout:
    - a fixed header (magic, version, bucket count, live-record count),
    - a bucket directory of [buckets] 8-byte chain heads,
    - an append-only record heap; each record is
      [next(8) | key_len(4) | val_len(4) | key | value].

    I/O plan: every access goes through {!Pio}, one [pread]/[pwrite] at an
    explicit offset. A [get] reads the bucket head, then one block per chain
    record walked, covering its 16-byte header and a key-sized prefix of its
    body, where the key is compared; a hit reads the value with one more
    read. A hit at chain depth d costs 2 + d reads, a miss over a chain of
    d records 1 + d. A [put] reads the bucket head once and walks the chain
    the same way before it appends. The {!Pio} stub keeps the domain lock
    for the call, so other threads of the calling domain wait for it; a
    handle belongs to one domain.

    Replacement unlinks the stale record from its chain and appends the new
    one; dead space is not reclaimed (compaction is out of scope — Tokyo
    Cabinet behaves the same until [optimize] is called). The bucket count
    is fixed at creation time.

    A read that runs past the end of the file — a record heap cut short —
    raises {!Codec.Corrupt}, the typed corruption error the CLI reports
    as one line (exit 1). *)

val magic : string
(** The 8-byte header every file of this format starts with. *)

val create : ?buckets:int -> string -> Kv.t
(** [create path] creates a fresh store at [path], truncating any existing
    file. [buckets] defaults to [65536] and is rounded up to a power of
    two. *)

val open_existing : string -> Kv.t
(** Reopens a store created by {!create}.
    @raise Failure if the file is missing or malformed. *)

val optimize : Kv.t -> unit
(** Rewrites the file with only the live records (the counterpart of Tokyo
    Cabinet's [optimize]): replacement and deletion leave dead heap records
    behind, which this reclaims via an atomic rename. Only valid on handles
    from this module. @raise Invalid_argument on foreign handles. *)

val file_size : Kv.t -> int
(** Current size of the backing file in bytes.
    @raise Invalid_argument on foreign handles. *)
