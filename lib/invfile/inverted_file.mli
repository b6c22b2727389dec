(** The inverted file [S_IF] for a collection of nested sets (paper, Sec. 2).

    The key space is the set of atoms occurring in the collection; the
    payload of atom [a] is the sorted postings list [S_IF(a)] (see
    {!Plist}). Alongside the inverted lists the store holds:

    - the record values themselves (for result materialization and the
      naive baseline's full scan),
    - the sorted array of record root ids (records are encoded by a shared
      DFS allocator, so a record's node ids form the contiguous range
      between consecutive roots),
    - the node table — the posting of {e every} internal node — used as the
      candidate list for query nodes with no leaf children, and
    - the most frequent atoms with their frequencies, used to preload the
      static cache of Sec. 3.3.

    Use {!Builder} to construct one; [open_store] reopens a persisted one. *)

type t

exception Malformed of string

val open_store : ?lenient:bool -> Storage.Kv.t -> t
(** Attaches to a store populated by {!Builder.finish}. Rolls back any
    update transaction a crash left half-applied ({!Journal.recover})
    before reading the metadata. With [~lenient:true] (default false),
    missing or corrupt metadata reads as an empty index instead of
    raising — the mode {!Repair} and [nscq repair] use to open a store
    damaged beyond what the journal covers.
    @raise Malformed if the metadata is missing or corrupt (strict mode). *)

val refresh : t -> unit
(** Re-reads the metadata and drops every in-memory cache (node table,
    dictionary, attached list cache) — realigns a handle with its store
    after an in-place rollback or repair.
    @raise Malformed if the metadata is missing or corrupt. *)

val store : t -> Storage.Kv.t
val close : t -> unit

(** {1 Lookup} *)

val lookup : t -> string -> Plist.t
(** [lookup t a] is [S_IF(a)], decoded; the empty list for unknown atoms.
    Consults the attached cache first and offers a decoded miss to it;
    {!lookup_stats} records hits and misses.
    @raise Malformed if the stored payload is corrupt or uses the retired
    bitpacked codec (the message names the atom and [nscq repair]). *)

val cursor : t -> string -> Plist_stream.cursor
(** [cursor t a] is a cursor over [S_IF(a)] — what every candidate
    generator reads. When the attached cache holds the list or would keep
    it ({!Cache.admits}), this is {!lookup}: an in-memory cursor over the
    decoded list, with the same admission and hit/miss counting.
    Otherwise it is a cursor over the stored payload that decodes only
    the blocks it lands on (one counted lookup and miss). An atom already
    resolved by {!pin} in an open {!with_query} scope is served from that
    resolution without touching the cache, the counters or the store.
    While a record filter is set ({!filter_records}), the cursor is
    restricted to the filtered records' node ids ({!Plist_stream.ranges}).
    @raise Malformed as {!lookup}, for a corrupt payload header. *)

(** {1 Resolution scopes}

    A scope resolves each atom once with {!pin}, into the one pin table
    the handle owns, and every {!cursor} on that atom reads that
    resolution until the outermost scope returns. [Engine.evaluate] opens
    one per query and pins each distinct query atom in its [retrieve]
    phase, traced or not, and may then narrow every cursor of the query
    to the records that hold its rarest atom. [Engine.query_batch] and
    [Join.Engine.join] open one around all their queries, so a batch or
    a join looks each distinct atom up once. *)

val with_query : t -> (unit -> 'a) -> 'a
(** [with_query t f] runs [f] in a scope. Scopes nest: an inner scope
    reads and adds to the pins of the enclosing ones, and the outermost
    scope empties the table when it returns. Each scope restores the
    record filter it found, also when [f] raises. A scope allocates no
    table and runs no [Fun.protect]. *)

val pin : t -> string -> int
(** [pin t a] resolves [a] once for the open scopes — as {!cursor} would
    (the cached list, or the undecoded payload; one counted lookup) — and
    returns its list length, read from the list header: no cursor, no
    decoded posting. Pinning an atom again looks nothing up.
    @raise Invalid_argument outside {!with_query}.
    @raise Malformed for a corrupt or retired payload header. *)

val pinned : t -> string -> bool
(** Whether an open scope has pinned the atom. *)

val records_of : t -> string -> int array
(** The ascending ids of the records that hold atom [a], found with one
    {!Plist_stream.seek} per record (from a posting to the next record's
    first id), so the cost is O(records), not O(postings). Reads [a]'s
    pinned resolution, unrestricted. *)

val filter_records : t -> int array -> unit
(** [filter_records t records] (ascending record ids) restricts every
    {!cursor} of the query in progress to [records]' node ids, until the
    enclosing {!with_query} returns. *)

val all_nodes : t -> Plist.t
(** The node table, lazily loaded then memoized. *)

val mem_atom : t -> string -> bool

val atoms_with_prefix : t -> string -> string list
(** All atoms starting with the given prefix, ascending — an ordered range
    scan on the B+tree backend, a full key scan elsewhere. Powers
    prefix-wildcard query leaves ([v1*], {!Engine} [~wildcards]). *)

(** {1 Collection access} *)

val record_count : t -> int
val atom_count : t -> int
val node_count : t -> int

val roots : t -> int array
(** Record root ids, ascending; index in this array = record id. *)

val is_root : t -> int -> bool

val root_of_node : t -> int -> int
(** The root id of the record containing the given node id. *)

val record_of_root : t -> int -> int
(** Record id (index) of a root id. @raise Not_found if not a root. *)

val record_value : t -> int -> Nested.Value.t
(** The stored value of a record, by record id.
    @raise Malformed if absent (store built without values). *)

val iter_records : t -> (int -> Nested.Value.t -> unit) -> unit
(** Full scan in record-id order (the naive baseline's access path). *)

val top_atoms : t -> (string * int) list
(** The {!top_k} most frequent atoms with their posting counts, descending
    (ties by atom), as {!write_meta} persisted them. Updates do not
    refresh the table; a build, a merge or a repair writes it anew. *)

val top_k : int
(** Entries of the persisted frequency table: 4096. *)

val write_meta :
  Storage.Kv.t -> roots:int array -> atom_count:int -> node_count:int ->
  lengths:(string * int) list -> unit
(** The one writer of a finished index's metadata: the record roots, the
    atom and node counts, and the frequency table — the {!top_k} longest
    of [lengths] (atom, posting count), which must hold at least every
    atom of the table. {!Builder.finish}, {!Repair.rebuild} and
    {!Merger} call it; each key is put once. *)

(** {1 Caching (paper Sec. 3.3)} *)

val attach_cache : t -> Cache.t -> unit
(** Also preloads a [Static] cache with the most frequent atoms' lists. *)

val detach_cache : t -> unit
val cache : t -> Cache.t option

val lookup_stats : t -> Storage.Io_stats.t
(** Logical lookup counters: cache hits vs misses (store-level I/O counters
    live on the store's own {!Storage.Kv.t.stats}). *)

(**/**)

(* Store key layout, shared with the writers and checkers of this
   library: [atom_of_key] and [record_id_of_key] invert [atom_key] and
   [record_key], [None] for any other key. *)
val atom_key : string -> string
val record_key : int -> string
val atom_of_key : string -> string option
val record_id_of_key : string -> int option
val meta_roots : string
val meta_counts : string
val meta_topk : string
val meta_nodes : string
val meta_recfmt : string
val internal_put_record : t -> int -> Nested.Value.t -> unit

(**/**)

val record_tree : t -> int -> Nested.Tree.t
(** Re-encodes a stored record at its original node-id range (ids are
    deterministic given the canonical value and the record's first id). *)

val record_tree_opt : t -> int -> Nested.Tree.t option
(** {!record_tree} from one store read; [None] for a tombstoned record. *)

val subtree_value : t -> int -> Nested.Value.t
(** The value of the subtree rooted at an arbitrary node id of the
    collection. *)

val record_value_opt : t -> int -> Nested.Value.t option
(** [None] for tombstoned (deleted) records. *)

val record_format : t -> [ `Syntax | `Binary ]
(** How record values are stored: human-readable literal syntax (default)
    or the dictionary-coded binary form of {!Value_codec} (chosen at build
    time, [Builder.create ~record_format]). *)

val dict : t -> Dict.t
(** The collection's atom dictionary (allocated lazily; empty unless the
    binary record format is in use). *)

(**/**)

(* Internal hooks for {!Updater}. *)
val deleted_marker : string
val internal_set_counts : t -> roots:int array -> atom_count:int -> node_count:int -> unit
val internal_invalidate_atom : t -> string -> unit
val internal_reset_node_table : t -> unit
val internal_write_meta : t -> unit

(**/**)
