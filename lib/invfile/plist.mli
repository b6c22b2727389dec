(** Sorted inverted lists.

    Decoded postings lists, their serialization, and the list join
    [▷◁_IF] (Sec. 2) in its parent–child and ancestor–descendant
    (Sec. 4.2) variants. Candidate computation — intersection (Alg. 2
    line 8 / Alg. 4 line 11) and multiset union with multiplicities
    (Sec. 4.1) — runs over cursors in {!Plist_stream}. Lists are arrays
    of postings strictly sorted by node id. *)

type t = Posting.t array

val empty : t
val is_empty : t -> bool
val length : t -> int
val of_list : Posting.t list -> t
(** Sorts and checks for duplicate node ids.
    @raise Invalid_argument on duplicates. *)

val nodes : t -> int array
(** The node ids, in ascending order. *)

val mem : t -> int -> bool
(** Binary search by node id. *)

val gallop_lower_bound : t -> lo:int -> int -> int
(** [gallop_lower_bound l ~lo id] is the index of the first posting at or
    after [lo] with node id ≥ [id] (or [length l]), found by exponential
    probing from [lo] — O(log distance), the building block of the skewed
    intersection kernel in {!Plist_stream}. *)

val find : t -> int -> Posting.t option

(** {1 Filters} *)

val filter : (Posting.t -> bool) -> t -> t

val filter_leaf_count_eq : int -> t -> t
(** Keeps postings whose node has exactly the given leaf count
    (set-equality join). *)

val filter_leaf_count_ge : int -> t -> t
(** Keeps postings whose node has at least the given leaf count. *)

(** {1 Path lists}

    A path records a candidate [head] for the query root together with the
    posting of the node currently matched, i.e. the pair [(p, C)] of the
    paper with the head threaded through the [▷◁_IF] joins (validated
    against the worked example of Sec. 2). *)

type path = { head : int; cur : Posting.t }
type paths = path array

val paths_of_candidates : t -> paths
(** Initial path list: each candidate is its own head (Alg. 1, line 1). *)

val heads : paths -> int array
(** Distinct heads, ascending — the [π₁] of the paper's Sec. 3.1. *)

val join_child : paths -> t -> paths
(** [join_child p l] is [p ▷◁_IF l]: paths extended to postings of [l]
    whose node is an internal {e child} of the path's current node. *)

val join_descendant : paths -> t -> paths
(** Homeomorphic variant: extends to postings whose node is a strict
    {e descendant} of the path's current node (Sec. 4.2). *)

(** {1 Head sets (bottom-up algorithm)}

    The bottom-up algorithm's stack holds sets [H] of nodes that cover a
    query subtree (Alg. 4). Elements keep their post rank so the
    homeomorphic variant can test descendancy. *)

type idset
(** Sorted-by-id set of (id, post, parent) triples. *)

val idset_empty : idset
val idset_of_postings : t -> idset
val idset_nodes : idset -> int array

val idset_parents : idset -> int list
(** Distinct parent ids of the members (roots excluded), ascending — the
    candidate parents for the bottom-up small-side optimization. *)

val idset_is_empty : idset -> bool
val idset_cardinal : idset -> int

val idset_mem : idset -> int -> bool

val covers_child : Posting.t -> idset -> bool
(** [covers_child p h] holds when some internal child of [p] is in [h] —
    the condition of the [H()] operator (Alg. 4, line 12). *)

val covers_descendant : Posting.t -> idset -> bool
(** Homeomorphic variant: some strict descendant of [p] is in [h]. *)

val idset_to_bytes : idset -> string
val idset_of_bytes : string -> idset
(** Serialization for externally-spilled head sets (see
    {!Containment.Bottom_up} with an external stack). *)

val pp : Format.formatter -> t -> unit
val pp_paths : Format.formatter -> paths -> unit

(** {1 Serialization}

    Payloads are tagged with their format: [Varint] (byte-aligned
    delta/varint, read sequentially by {!Plist_stream}) or [Blocked] (the
    default: block-partitioned with per-block varint/bitmap
    representation and a skip directory, see {!Plist_blocks} — read with
    block skipping). The tag ['B'] of the retired columnar bitpacked
    codec is refused with its own message. *)

type codec = Varint | Blocked

val encode : Storage.Codec.writer -> t -> unit
(** Raw (untagged) varint encoding, for embedding in other structures. *)

val decode : Storage.Codec.reader -> t

val to_bytes : ?codec:codec -> t -> string
(** Defaults to [Blocked]. *)

val of_bytes : string -> t
(** Dispatches on the payload tag. @raise Storage.Codec.Corrupt on
    malformed input. *)

val codec_of_bytes : string -> codec
(** @raise Storage.Codec.Corrupt on an empty payload, an unknown tag, or
    the retired bitpacked tag ['B']. *)

val restrict : t -> int array -> t
(** [restrict l ids] keeps the postings whose node is in [ids] (a sorted,
    strictly increasing array). *)
