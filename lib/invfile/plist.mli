(** Sorted inverted lists, decoded into int columns.

    A list is the decoded form of [S_IF(a)] (Sec. 2): rows strictly
    sorted by node id, each row one posting. The columns are node,
    leaf count, post rank and parent; a row's internal children are a
    slice of one flat int array. Nothing in a list is boxed, so decoding
    a long list, filtering it or intersecting lists allocates a few int
    arrays, not a record per posting. This is the one decoded
    representation: the cursors of {!Plist_stream}, the list cache,
    {!Inverted_file.lookup}, the node table and every candidate list of
    {!Containment.Semantics} use it.

    {!Builder.index} collects the node table in columns
    ({!Buf.add_node}) and encodes each atom's list from its rows of it:
    the derivation {!Builder}, {!Updater}, {!Repair} and {!Integrity}
    share. Only the {!Plist_ref} oracle keeps a posting as a record, and
    converts through {!Buf.add}.

    The module also holds the list join [▷◁_IF] (Sec. 2) in its
    parent–child and ancestor–descendant (Sec. 4.2) variants and the
    bottom-up head sets. Candidate computation — intersection (Alg. 2
    line 8 / Alg. 4 line 11) and multiset union with multiplicities
    (Sec. 4.1) — runs over cursors in {!Plist_stream}. *)

type t
(** Rows [0 .. length - 1], strictly increasing by node id. Lists are
    never mutated once built. *)

val empty : t
val is_empty : t -> bool
val length : t -> int

(** {1 Rows}

    Row accessors take a row index [0 <= i < length l]. *)

val node : t -> int -> int
val leaf_count : t -> int -> int
val post : t -> int -> int

val parent : t -> int -> int
(** The parent internal node, [-1] at a record root. *)

val n_children : t -> int -> int

val child : t -> int -> int -> int
(** [child l i k] is the [k]-th internal child of row [i]
    ([0 <= k < n_children l i]), ascending in [k]. *)

val children : t -> int -> int array
(** A fresh copy of row [i]'s children. *)

val nodes : t -> int array
(** The node ids, in ascending order (a fresh copy of the column). *)

(** {1 Searching} *)

val lower_bound : t -> int -> int
(** Index of the first row with node id ≥ the argument (or [length]). *)

val find_row : t -> int -> int
(** The row of a node id, or [-1]. Binary search. *)

val mem : t -> int -> bool

val gallop_lower_bound : t -> lo:int -> int -> int
(** [gallop_lower_bound l ~lo id] is the index of the first row at or
    after [lo] with node id ≥ [id] (or [length l]), found by exponential
    probing from [lo] — O(log distance), the building block of the skewed
    intersection kernel in {!Plist_stream}. *)

(** {1 Filters}

    Outputs are built with {!build}: a filter allocates for the rows it
    keeps, not for the list it reads. *)

val filter : (int -> bool) -> t -> t
(** [filter f l] keeps the rows [i] of [l] for which [f i] holds. *)

val filter_leaf_count_eq : int -> t -> t
(** Keeps postings whose node has exactly the given leaf count
    (set-equality join). *)

val filter_leaf_count_ge : int -> t -> t
(** Keeps postings whose node has at least the given leaf count. *)

val restrict : t -> int array -> t
(** [restrict l ids] keeps the rows whose node is in [ids] (a sorted,
    strictly increasing array). Gallops on whichever side is behind, so
    it costs O(k · log gap) when either side is short. *)

val merge : t -> t -> t
(** Union of two lists with no node id in common.
    @raise Invalid_argument on a shared node id. *)

(** {1 Path lists}

    A path records a candidate [head] for the query root together with the
    posting of the node currently matched, i.e. the pair [(p, C)] of the
    paper with the head threaded through the [▷◁_IF] joins (validated
    against the worked example of Sec. 2). All paths of one list point
    into the same candidate list ({!path_list}), as (head, row) pairs
    sorted by head, then node. *)

type paths

val paths_of_candidates : t -> paths
(** Initial path list: each candidate is its own head (Alg. 1, line 1). *)

val path_count : paths -> int
val path_head : paths -> int -> int

val path_list : paths -> t
(** The candidate list the paths' current postings are rows of. *)

val path_row : paths -> int -> int
(** The row of path [k]'s current posting in {!path_list}. *)

val path_node : paths -> int -> int

val heads : paths -> int array
(** Distinct heads, ascending — the [π₁] of the paper's Sec. 3.1. *)

val join_child : paths -> t -> paths
(** [join_child p l] is [p ▷◁_IF l]: paths extended to postings of [l]
    whose node is an internal {e child} of the path's current node. *)

val join_descendant : paths -> t -> paths
(** Homeomorphic variant: extends to postings whose node is a strict
    {e descendant} of the path's current node (Sec. 4.2). *)

val filter_paths : (int -> bool) -> paths -> paths
(** Keeps the paths [k] for which the predicate holds, in order. *)

(** {1 Head sets (bottom-up algorithm)}

    The bottom-up algorithm's stack holds sets [H] of nodes that cover a
    query subtree (Alg. 4). Elements keep their post rank so the
    homeomorphic variant can test descendancy. *)

type idset
(** Three int columns — id, post, parent — sorted by id. *)

val idset_empty : idset

val idset_of_rows : t -> int array -> idset
(** The nodes of the given rows (ascending, distinct) of a list. *)

val idset_filter : (int -> bool) -> t -> idset
(** [idset_filter f l] is the set of the nodes of the rows [i] of [l]
    for which [f i] holds: three columns of exactly its size, with no
    copy of the rows' other fields. *)

val idset_nodes : idset -> int array

val idset_parents : idset -> int array
(** Distinct parent ids of the members (roots excluded), ascending — the
    candidate parents for the bottom-up small-side optimization. *)

val idset_is_empty : idset -> bool
val idset_cardinal : idset -> int

val idset_mem : idset -> int -> bool

val covers_child : t -> int -> idset -> bool
(** [covers_child l i h] holds when some internal child of row [i] is in
    [h] — the condition of the [H()] operator (Alg. 4, line 12). *)

val covers_descendant : t -> int -> idset -> bool
(** Homeomorphic variant: some strict descendant of row [i] is in [h]. *)

val idset_to_bytes : idset -> string

val idset_of_bytes : string -> idset
(** Serialization for externally-spilled head sets (see
    {!Containment.Bottom_up} with an external stack).
    @raise Storage.Codec.Corrupt when the member count exceeds the bytes
    left (three per member). *)

(** {1 Serialization}

    Payloads are tagged with their format: [Varint] (byte-aligned
    delta/varint, read sequentially by {!Plist_stream}) or [Blocked]
    (block-partitioned with per-block varint/bitmap representation and a
    skip directory, see {!Plist_blocks} — read with block skipping). The
    tag ['B'] of the retired columnar bitpacked codec is refused with its
    own message.

    {!to_bytes} is the one place a list's format is chosen, from the list
    alone: at most {!Plist_blocks.block_size} rows are written [Varint]
    (smaller, and one block has nothing to skip), more rows [Blocked].
    Every writer — {!Builder}, {!Merger}, {!Updater}, {!Repair} and the
    live store's segments — goes through it, so a store may hold both
    formats; readers dispatch on each payload's tag.

    Decoding accepts only what {!to_bytes} writes, so
    [to_bytes ~codec (of_bytes s) = s] for every payload [s] that
    decodes, with [codec] its own tag. Every count is checked against the
    bytes left before a column grows for it: a hostile count raises
    {!Storage.Codec.Corrupt}, never [Out_of_memory]. *)

type codec = Varint | Blocked

val to_bytes : ?codec:codec -> ?rows:int array -> t -> string
(** The payload of a list, in the format its length picks (see above).
    [~codec] forces a format instead: for encoding the list a payload
    should hold in that payload's own tag ({!Integrity}), and for
    measuring or testing one format. With [~rows] (ascending row
    indices) only those rows are encoded, as if they were the list: how
    {!Builder} writes each atom's list straight from the node table.
    @raise Invalid_argument if a row's children are not strictly
    increasing. *)

val of_bytes : ?offset:int -> string -> t
(** Dispatches on the payload tag. With [~offset] every id of the list —
    node, post rank, parent and children; a record root keeps its parent
    [-1] — moves by [offset]: how a merge places a source's list after the
    ids before it, as it decodes.
    @raise Storage.Codec.Corrupt on malformed input. *)

val append : ?rows:int array -> string -> t -> string
(** [append payload l] is the payload of the list [payload] holds
    followed by the rows of [l] (with [~rows], only those rows, as in
    {!to_bytes}): byte for byte [to_bytes] of the concatenation, in the
    format its length picks, also for a payload written in the other
    format. The rows' node ids must all exceed the payload's. A blocked
    list longer than one block is extended in place: its last block is
    re-encoded with the new rows, and the full blocks before it are copied
    as bytes with their directory entries, never decoded. Any other
    payload is decoded whole (it holds at most one block, or is a legacy
    long ['V'] list).
    @raise Storage.Codec.Corrupt when the payload's tag, directory or
    last block is malformed. Copied blocks are not decoded, so damage
    inside one of them is carried over, for {!of_bytes} to report.
    @raise Invalid_argument when a row's node id does not exceed the
    payload's. *)

val payload_length : string -> int
(** The number of rows a payload's header declares, read without
    decoding the list.
    @raise Storage.Codec.Corrupt on an unknown tag or a truncated header. *)

val codec_of_bytes : string -> codec
(** @raise Storage.Codec.Corrupt on an empty payload, an unknown tag, or
    the retired bitpacked tag ['B']. *)

(** {1 Building}

    Growable columns: the writers collect lists here, and the decoders and
    kernels of {!Plist_stream} append rows. A cursor decodes each block
    into one buffer it reuses. *)

module Buf : sig
  type plist := t
  type t

  val create : int -> t
  (** An empty buffer with room for the given number of rows. *)

  val clear : t -> unit
  val length : t -> int

  val add : t -> node:int -> leaf_count:int -> post:int -> parent:int -> unit
  (** Appends a row with no children yet. *)

  val add_child : t -> int -> unit
  (** Appends an internal child to the last row, in ascending order. *)

  val add_node : t -> Nested.Tree.node -> unit
  (** Appends the posting of a record-tree node: how {!Builder} collects
      the node table. *)

  val add_row : t -> plist -> int -> unit
  (** Appends a copy of row [i] of a list. Rows must be appended in
      ascending node-id order. *)

  val contents : t -> plist
  (** The rows so far, sharing the buffer's columns: the list is valid
      until the buffer is next cleared. *)
end

val build : (Buf.t -> unit) -> t
(** [build f] runs [f] on an empty buffer and returns the rows it
    appended. The buffer is a spare one per domain, reused across calls,
    and a small output is copied out of it in arrays of exactly its size,
    so it costs its own size; a large one keeps the grown buffer's
    columns. A [build] nested inside [f] uses a buffer of its own. *)

val decode_block_into : Plist_blocks.t -> int -> Buf.t -> unit
(** Appends block [i] to the buffer. @raise Storage.Codec.Corrupt as
    {!of_bytes}. *)

val read_varint_count : Storage.Codec.reader -> int
(** The posting count heading a ['V'] payload (after its tag).
    @raise Storage.Codec.Corrupt when it exceeds the bytes left (five per
    posting). *)

val decode_row : Storage.Codec.reader -> Buf.t -> prev_node:int -> int
(** Appends the next posting of a ['V'] payload (whose predecessor had
    node id [prev_node], [-1] for the first) and returns its node id.
    @raise Storage.Codec.Corrupt on malformed input. *)
