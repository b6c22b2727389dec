(** Merging indexed collections: one k-way merge for every writer that
    combines stores.

    Node ids are DFS-contiguous per record, so placing a source after the
    ids before it is purely mechanical: every id of the source (node,
    post, parent, children) moves by the node count before it, record ids
    by the record count before it. No record is re-parsed to index it.

    The merge walks each atom once across all sources and puts each
    destination key once: the records, each atom's
    list, the node table and the metadata ({!Inverted_file.write_meta},
    whose frequency table comes from the lengths the merge wrote). A
    source's rows are moved in columns as they decode ({!Plist.of_bytes}
    [~offset]) and appended at the tail of the destination's payload
    ({!Plist.append}), so only the last block of a long list is
    re-encoded; a list whose ids do not move — the first source's, when
    it drops nothing — is copied as bytes.
    [`Syntax] record payloads are copied as bytes too.

    Callers: the live store's flush (the memtable into a new segment)
    and compaction (k segments into one), {!Shard.Partitioner}'s
    shrinking reshard (one merge per output shard), and [nscq merge]
    ({!append}, in place). *)

type source = { inv : Inverted_file.t; keep : int -> bool }
(** A store and the local record ids to carry over: a record is copied
    when its slot is not tombstoned and [keep] holds for it. The postings
    of a live record [keep] rejects are left out of every list — how a
    compaction purges tombstones inside the merge. *)

val source : ?keep:(int -> bool) -> Inverted_file.t -> source
(** [keep] defaults to every record. *)

val merge : Storage.Kv.t -> source list -> Inverted_file.t * int array list
(** [merge store sources] writes the concatenation of the sources' kept
    records, in order, into the empty [store] and opens it; also returns,
    per source, the local ids it kept, ascending (destination record [k]
    is the [k]-th of their concatenation). A kept record's node ids are
    its source's plus the node counts of the sources before it, so a
    dropped record leaves a gap in the id space and none in the record
    ids. Where no source holds a dropped or tombstoned record (and every
    list is in the format its length picks), the result's lists are byte
    for byte those of a build from the concatenated records. The
    destination's records are [`Syntax]: a [`Syntax] source's are copied
    as bytes, a [`Binary] source's re-encoded.
    The node table is written when every source has one.
    @raise Invalid_argument if some sources have a node table and others
    do not.
    @raise Inverted_file.Malformed if a source's record slot is missing. *)

val append : dst:Inverted_file.t -> src:Inverted_file.t -> unit
(** The in-place merge of one source: [src]'s live records are appended
    to [dst] as by {!merge}. Each touched list of [dst] grows at its tail
    ({!Plist.append}): [dst]'s own lists are not decoded beyond their last
    blocks. [src] is read-only; [dst]'s in-handle state (roots, counts,
    memoized node table, caches for touched atoms) is kept consistent.
    The frequency table is computed anew over every list of [dst], the
    untouched ones by their stored lengths, which are read but not
    decoded.
    Both stores must have been built with a node table, or neither.
    @raise Invalid_argument on a node-table mismatch.
    @raise Inverted_file.Malformed if [src] stores no record values. *)
