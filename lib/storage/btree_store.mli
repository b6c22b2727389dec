(** On-disk B+tree key-value store.

    The second index structure offered by Tokyo Cabinet (Sec. 5.1). Keys are
    kept in sorted order in leaf pages chained left-to-right, so iteration
    and range scans are ordered — which the hash store cannot offer. Values
    larger than a quarter page go to overflow pages.

    Deletion is lazy (entries are removed from leaves without rebalancing)
    and replaced overflow values are not reclaimed; both match the
    build-once / read-mostly usage of an inverted file and are documented
    limitations. *)

val magic : string
(** The 8-byte header every file of this format starts with. *)

val create : ?page_size:int -> ?cache_pages:int -> string -> Kv.t
(** Creates a fresh store (truncating [path]). Keys are limited to
    [page_size/16] bytes. [iter] visits keys in ascending order. *)

val open_existing : ?page_size:int -> ?cache_pages:int -> string -> Kv.t
(** Reopens a store created with the same [page_size].
    @raise Failure if the file is missing or malformed. *)

val range : Kv.t -> lo:string -> hi:string -> (string * string) list
(** [range kv ~lo ~hi] returns the bindings with [lo <= key < hi] in
    ascending key order. Only valid on handles produced by this module.
    @raise Invalid_argument on foreign handles. *)
