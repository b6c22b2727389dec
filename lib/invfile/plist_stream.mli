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

    Results agree exactly with the frozen {!Plist_ref} oracle (checked by
    the differential suite). *)

type cursor

val cursor_of_bytes : string -> cursor
(** A cursor over an encoded postings list (the payload stored under an
    atom key — see {!Plist.to_bytes}). [Varint] payloads decode
    sequentially; [Blocked] payloads decode one block at a time and
    support block skipping (see {!skip_to}).
    @raise Storage.Codec.Corrupt on a malformed header (per
    {!Plist.codec_of_bytes}); corruption inside a block surfaces when the
    cursor reaches it. *)

val cursor_of_plist : Plist.t -> cursor
(** A cursor over a decoded list; {!skip_to} gallops. *)

val remaining : cursor -> int
(** Postings not yet consumed. On a fresh cursor over a payload this is
    the list length, read from the header (the [Varint] count or the
    block directory's total) without decoding a posting. *)

val peek : cursor -> Posting.t option
val next : cursor -> Posting.t option

val skip_to : cursor -> int -> Posting.t option
(** [skip_to c id] advances past postings with node id < [id] and peeks the
    first with node ≥ [id]. On [Varint] payloads the skipped prefix is
    decoded (not buffered); on [Blocked] payloads whole blocks whose max
    node id is below [id] are skipped via the directory without touching
    their bytes; in-memory cursors gallop. *)

(** {1 n-way operations} *)

val inter_many : cursor list -> Plist.t
(** Intersection, driven from the cursor with the fewest remaining
    postings with {!skip_to} advances on the others. A single fresh
    in-memory cursor returns its list without copying. Consumes the
    cursors.
    @raise Invalid_argument on the empty family (the empty intersection
    is the node universe — callers must supply it explicitly, see
    {!Inverted_file.all_nodes}), with the same message as
    {!Plist_ref.inter_many} (shared contract). *)

val union_with_counts : cursor list -> (Posting.t * int) array
(** Multiset union: each node paired with the number of input lists that
    contain it, ascending by node id. This is the [⊎] of Sec. 4.1 (an
    atom contributes a node at most once, so multiplicity = number of
    distinct query leaf values present in the node). Consumes the
    cursors. *)
