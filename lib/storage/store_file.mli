(** Opens an existing store file of any of the three on-disk formats.

    Every format starts with its own 8-byte magic ({!Hash_store},
    {!Btree_store}, {!Log_store}), so the format is read from the file
    rather than named by the caller. *)

type kind = Hash | Btree | Log

exception Not_a_store of string * string
(** [(path, reason)]: [path] is missing, is a directory, or does not
    start with one of the three store headers. *)

val kind : string -> kind
(** The format of the store file at the path, read from its header.
    @raise Not_a_store if it is not a store file. *)

val open_existing : string -> Kv.t
(** Reopens the store with its format's default parameters.
    @raise Not_a_store if it is not a store file. *)
