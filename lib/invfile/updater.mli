(** Incremental maintenance of an inverted file.

    The paper builds its inverted files once and queries them; a system a
    downstream user adopts also needs inserts and deletes. Because node ids
    are allocated in DFS order and a fresh record's ids exceed every
    existing id, inserting a record only ever {e appends} to the affected
    postings lists: its rows are grouped by atom and each touched list,
    and the node table, takes one tail append ({!Plist.append}), which
    re-encodes only the list's last block. Deletion removes the record's id range from its atoms'
    lists and tombstones the record slot (record ids are positional and are
    not reused).

    All in-handle state (roots, counts, memoized node table, attached
    cache entries for touched atoms) is kept consistent. The persisted
    top-frequency table used for static-cache preloading is {e not}
    recomputed on updates; reattach a cache after bulk changes if preload
    quality matters. *)

val add_value : ?journal:bool -> Inverted_file.t -> Nested.Value.t -> int
(** Indexes one new record and returns its record id.

    Updates run under an undo-journal transaction ({!Journal}) by
    default, so a crash or I/O failure mid-update fully rolls back
    instead of leaving the index inconsistent with the records;
    [~journal:false] restores the unprotected fast path (used by the
    crash-consistency suite to demonstrate the failure mode, and safe
    when the store is purely in-memory and errors are fatal anyway).
    @raise Invalid_argument if the value is an atom. *)

val add_string : ?journal:bool -> Inverted_file.t -> string -> int

val delete_record : ?journal:bool -> Inverted_file.t -> int -> bool
(** Removes a record's postings and tombstones its slot; [false] if the id
    is out of range or already deleted. Record ids of other records are
    unchanged. *)

val is_deleted : Inverted_file.t -> int -> bool
(** Whether a record id (in range) has been tombstoned: its raw slot is
    compared with the tombstone marker, no record is decoded. *)
