(** Construction of the inverted file.

    Records are added one by one; postings accumulate in memory and are
    flushed to the backing store by {!finish}. All records of a collection
    must be encoded by the builder's single allocator so node ids are
    globally unique and DFS-ordered (see {!Nested.Tree}).

    Besides one postings list per atom, the store gets each record's value
    (for result materialization and the naive baseline), the node table
    (the posting of every internal node, for queries whose nodes have no
    leaf children) and a frequency table of the
    {!Inverted_file.top_k} most frequent atoms (for cache preloading). Each list's payload format is the one
    {!Plist.to_bytes} picks from its length. *)

type t

val create : ?record_format:[ `Syntax | `Binary ] -> Storage.Kv.t -> t
(** [record_format] is the stored-record encoding (default [`Syntax];
    [`Binary] is the dictionary-coded form of {!Value_codec}). *)

val add_value : t -> Nested.Value.t -> int
(** Indexes one record; returns its record id (consecutive from 0).
    @raise Invalid_argument if the value is an atom, or after {!finish}. *)

val add_string : t -> string -> int
(** [add_string t s] parses [s] with {!Nested.Syntax} and adds it. *)

val record_count : t -> int

val finish : t -> Inverted_file.t
(** Flushes postings and metadata and opens the result. The builder cannot
    be reused afterwards. *)

(** {1 Index derivation}

    What a build derives from its records, shared with {!Updater} (one
    record's rows, appended at the tail of the lists), {!Repair} (the
    whole index again, from the stored records) and {!Integrity} (the
    index the stored records imply, to compare the stored one with). *)

type index

val index : ?size:int -> unit -> index
(** An empty index whose first record's ids start at 0 ({!index_value_at}
    starts a record elsewhere); [size] (default 4096) sizes its atom
    table. *)

val index_value : index -> record_id:int -> Nested.Value.t -> unit
(** Numbers a record's nodes from the next free id and adds its postings.
    @raise Invalid_argument if the value is an atom. *)

val index_value_at : index -> root:int -> record_id:int -> Nested.Value.t -> int
(** {!index_value} with the record numbered from [root] instead of the
    next free id: {!Updater} places a new record after the stored ones,
    and {!Integrity} numbers a stored record from its stored root, as
    {!Inverted_file.record_tree} does. Returns the id after the record's
    last node. The lists stay sorted while each record starts at or after
    the end of the one before.
    @raise Invalid_argument if the value is an atom. *)

val reserve_slot : index -> unit
(** Gives a record slot that has no value (a tombstone) one node id of
    its own, so the roots stay strictly increasing. *)

val index_nodes : index -> Plist.t
(** The node table so far: every indexed node's posting, in id order. *)

val index_atoms : index -> string list

val iter_postings : index -> (string -> int array -> unit) -> unit
(** Each atom with its rows of {!index_nodes}, ascending. *)

val write_index : Storage.Kv.t -> index -> node_table:bool -> unit
(** Puts every atom's list, the node table (with [~node_table]) and the
    metadata ({!Inverted_file.write_meta}), each key once. Consumes the
    index: its per-atom rows are dropped once the lists are written. *)
