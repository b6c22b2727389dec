(** Binary encoding of inverted-file payloads.

    Postings lists are stored as length-prefixed byte strings: unsigned
    LEB128 varints throughout, with sorted id sequences delta-encoded (gaps),
    as is conventional for inverted files. *)

(** {1 Writer} *)

type writer

val writer : ?size:int -> unit -> writer
(** [size] (default 64) is the initial capacity in bytes; the writer grows
    past it. *)

val contents : writer -> string
val write_varint : writer -> int -> unit
val write_int_list : writer -> int list -> unit
(** Length-prefixed, delta-encoded; the list must be strictly increasing. *)

val write_int_array : writer -> int array -> unit
(** As {!write_int_list}, for strictly increasing arrays. *)

val write_string : writer -> string -> unit
(** Length-prefixed raw bytes. *)

val write_raw : writer -> string -> unit
(** Raw bytes, no length prefix — for framing formats that carry their own
    lengths (e.g. the {!Plist_blocks} directory). *)

val write_raw_sub : writer -> string -> pos:int -> len:int -> unit
(** The raw bytes [pos .. pos + len - 1] of a string.
    @raise Invalid_argument if they are not a range of it. *)

(** {1 Reader} *)

type reader

exception Corrupt of string

val reader : string -> reader
val reader_sub : string -> pos:int -> len:int -> reader
val at_end : reader -> bool

(** Current byte offset within the underlying string (absolute, i.e.
    relative to the string passed to {!reader} / {!reader_sub}). *)
val pos : reader -> int

val remaining : reader -> int
(** Bytes left before the reader's limit — the bound a decoder checks a
    count against before allocating for it. *)

val read_varint : reader -> int
(** @raise Corrupt on a truncated varint, one that does not fit a
    non-negative [int], or one that is not minimal (a trailing zero
    byte): {!write_varint} only ever writes the minimal form. *)

val read_int_list : reader -> int list

val read_int_array : reader -> int array
(** @raise Corrupt when the count exceeds the bytes left (every element
    takes at least one) or an element overflows. *)

val read_string : reader -> string

(** {1 Convenience} *)

val encode_int_array : int array -> string
val decode_int_array : string -> int array
