(** Cursors over postings lists — the one candidate kernel.

    The paper assumes retrieved inverted lists fit in main memory and notes
    that "the I/O-efficient blocked approach of Mamoulis for flat sets could
    easily be used to lift this assumption" (Sec. 5.1, "Other assumptions",
    (1)). This module is that lifting: a cursor reads either a decoded
    list held in memory (a cached list) or the encoded payload itself,
    decoding postings on demand, and the n-way operations work in O(1)
    memory per input list plus the output. Every candidate generator of
    {!Containment.Semantics} reaches its lists through these operations,
    over whatever mix of sources {!Inverted_file.cursor} hands it.

    A cursor's head is a row of a columnar {!Plist.t}: of the decoded list
    itself, or of a buffer the cursor owns and refills with one decoded
    block at a time, so reading a payload allocates a few int arrays per
    cursor, not a record per posting. The kernels copy matching rows into
    columnar output.

    A cursor may be {e restricted} to a set of node-id ranges: it then
    reads as the list filtered to those ranges, and its head and {!seek}
    jump from range to range, so on a [Blocked] payload the blocks
    between ranges are never decoded. {!Inverted_file.cursor} hands out
    restricted cursors while a query's record filter is set.

    Results agree exactly with the frozen {!Plist_ref} oracle (checked by
    the differential suite), restricted cursors with the oracle filtered
    to their ranges. *)

type cursor

type ranges
(** Sorted, disjoint, non-empty half-open node-id ranges [[lo, hi)]. *)

val ranges : (int * int) array -> ranges
(** [ranges [| (lo0, hi0); (lo1, hi1); ... |]]. Adjacent ranges
    ([hi0 = lo1]) are allowed; the empty array restricts a cursor to
    nothing.
    @raise Invalid_argument unless [lo < hi] for every range and each
    range starts at or after the end of the one before. *)

val cursor_of_bytes : ?within:ranges -> string -> cursor
(** A cursor over an encoded postings list (the payload stored under an
    atom key — see {!Plist.to_bytes}), restricted to [within] when
    given. [Varint] payloads decode sequentially, a block-sized chunk at
    a time; [Blocked] payloads decode one block at a time and support
    block skipping (see {!seek}).
    @raise Storage.Codec.Corrupt on a malformed header (per
    {!Plist.codec_of_bytes} and {!Plist_blocks.directory}); corruption
    inside a block surfaces when the cursor reaches it. *)

val cursor_of_plist : ?within:ranges -> Plist.t -> cursor
(** A cursor over a decoded list, restricted to [within] when given;
    {!seek} gallops. *)

val remaining : cursor -> int
(** Postings not yet consumed. On a fresh unrestricted cursor over a
    payload this is the list length, read from the header (the [Varint]
    count or the block directory's total) without decoding a posting. On
    a restricted cursor it is an upper bound: the postings not yet
    consumed whether inside a range or not, and 0 once exhausted. *)

val eof : int
(** The head node id of an exhausted cursor: [max_int], after every real
    node id. *)

val head : cursor -> int
(** The node id of the first posting not yet consumed, decoding it if
    needed; {!eof} once the cursor is exhausted. *)

val head_list : cursor -> Plist.t
val head_row : cursor -> int
(** After {!head} returned a node id other than {!eof}, the head posting
    is row [head_row c] of [head_list c]: read its fields with the
    {!Plist} row accessors. The view is valid until the cursor moves. *)

val advance : cursor -> unit
(** Consumes the head; only after {!head} returned a node id other than
    {!eof}. *)

val seek : cursor -> int -> int
(** [seek c id] advances past postings with node id < [id] and returns
    the head node id, [>= id] (or {!eof}). On [Varint] payloads the
    skipped prefix is decoded; on [Blocked] payloads whole blocks whose
    max node id is below [id] are skipped via the directory without
    touching their bytes; in-memory cursors gallop. A restricted cursor
    first moves [id] up to the start of the next range that ends above
    it, so it decodes only the blocks its ranges land on. *)

(** {1 n-way operations} *)

val inter_many : ?among:int array -> cursor list -> Plist.t
(** Intersection, driven from the cursor with the fewest remaining
    postings with {!seek} advances on the others. A single fresh
    unrestricted in-memory cursor returns its list without copying. With [~among]
    (ascending node ids) only the rows whose node is among them are
    kept, and the ids drive: each id seeks every cursor, so a few ids
    against long payloads decode only the blocks they land on. Consumes
    the cursors.
    @raise Invalid_argument on the empty family (the empty intersection
    is the node universe — callers must supply it explicitly, see
    {!Inverted_file.all_nodes}), with the same message as
    {!Plist_ref.inter_many} (shared contract). *)

val union_with_counts : cursor list -> Plist.t * int array
(** Multiset union: every node of the inputs once, ascending, with
    [counts.(i)] the number of input lists that contain row [i]'s node.
    This is the [⊎] of Sec. 4.1 (an atom contributes a node at most
    once, so multiplicity = number of distinct query leaf values present
    in the node). Consumes the cursors. *)
