(** Construction of the inverted file.

    Records are added one by one; postings accumulate in memory and are
    flushed to the backing store by {!finish}. All records of a collection
    must be encoded by the builder's single allocator so node ids are
    globally unique and DFS-ordered (see {!Nested.Tree}).

    Besides one postings list per atom, the store gets each record's value
    (for result materialization and the naive baseline), the node table
    (the posting of every internal node, for queries whose nodes have no
    leaf children) and a frequency table of the 4096 most frequent atoms
    (for cache preloading). Each list's payload format is the one
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
