(** The block directory of the ['C'] postings payload.

    A postings list is cut into fixed-size blocks; a directory records
    each block's node-id span [min, max], posting count, representation
    and byte length, so readers can {e skip} whole blocks by id — the
    primitive behind the skewed-intersection kernels of {!Plist_stream}.
    Per block, the representation is chosen at build time: delta-encoded
    varint (identical bytes to a ['V'] slice) for sparse blocks, a bitmap
    over [min, max] plus out-of-band posting fields for dense ones.

    This module writes and parses the directory. The block bodies are
    encoded and decoded by {!Plist}, straight into its int columns.
    The payload body produced here carries no format tag; {!Plist} owns
    the leading ['C'] byte and passes [pos = 1] when parsing. *)

val block_size : int
(** Postings per block: every block but the last holds exactly this
    many, the last at most this many. *)

val dense : range:int -> count:int -> bool
(** The representation heuristic: a block whose id span [range] is within
    4x its posting [count] is stored as a bitmap (the bitmap then costs at
    most half a byte per posting, cheaper than any gap varint). *)

(** {1 Writing} *)

type block = {
  bmin : int;  (** smallest node id in the block *)
  bmax : int;  (** largest node id in the block *)
  count : int;
  as_bitmap : bool;  (** [dense ~range:(bmax - bmin + 1) ~count] *)
  body : string;
}

val encode : Storage.Codec.writer -> total:int -> block list -> unit
(** Writes the untagged blocked body: directory, then the bodies in order. *)

(** {1 Reading} *)

type t
(** A parsed directory over an encoded payload. Holds the per-block spans
    and body offsets; block bodies are only decoded on demand. *)

val directory : string -> pos:int -> t
(** Parse the directory of the blocked body starting at byte [pos] of the
    payload. Accepts only the encoder's own form: the entry count is
    bounded by the bytes left (five per entry) before anything is
    allocated, every block but the last is full and no block exceeds
    {!block_size}, each block's representation is the one {!dense}
    picks, and the bodies end exactly at the end of the payload.
    @raise Storage.Codec.Corrupt on anything else. *)

val total : t -> int
(** Total postings in the list. *)

val payload : t -> string
(** The payload the directory was parsed from. *)

val n_blocks : t -> int
val block_min : t -> int -> int
val block_max : t -> int -> int
val block_count : t -> int -> int
val is_bitmap : t -> int -> bool

val body_pos : t -> int -> int
(** Absolute offset of block [i]'s body within {!payload}. *)

val body_len : t -> int -> int

val suffix_count : t -> int -> int
(** [suffix_count d i] is the number of postings in blocks [i ..]
    (defined for [0 <= i <= n_blocks d], with the last being [0]). *)

val extend :
  Storage.Codec.writer -> t -> keep:int -> total:int -> block list -> unit
(** [extend w d ~keep ~total blocks] writes the body of blocks
    [0 .. keep - 1] of [d] followed by [blocks]: the kept blocks'
    directory entries are rewritten from [d] and their bodies copied as
    bytes, never decoded. The output is what {!encode} writes for the
    kept blocks and [blocks] together, so a tail append of a list costs
    its last block, not the whole list.
    @raise Invalid_argument unless [0 <= keep <= n_blocks d]. *)

val find_block : t -> start:int -> int -> int
(** [find_block d ~start id] is the first block index [>= start] whose
    max node id is [>= id], or [n_blocks d] — a binary search over the
    directory that never touches block bodies. *)
