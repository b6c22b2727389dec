(** Convenience constructors for indexed collections.

    Wires a storage backend, the inverted-file builder, and optional
    optimizer state (cache, Bloom filters) together — the setup code of
    every example, test, and benchmark. *)

type backend =
  | Mem  (** in-memory hash table *)
  | Hash of string  (** on-disk hash store at the given path (Sec. 5.1) *)
  | Btree of string  (** on-disk B+tree store at the given path *)
  | Log of string  (** crash-safe append-only log store at the given path *)

val store_of_backend : ?buckets:int -> backend -> Storage.Kv.t

val of_values :
  ?backend:backend -> ?record_format:[ `Syntax | `Binary ] ->
  Nested.Value.t list -> Invfile.Inverted_file.t
(** Builds an indexed collection from record values. Default backend
    [Mem]. *)

val of_strings : ?backend:backend -> string list -> Invfile.Inverted_file.t
(** Parses each string with {!Nested.Syntax}. *)

val of_file : ?backend:backend -> string -> Invfile.Inverted_file.t
(** Reads whitespace-separated values from a file (e.g. one per line). *)

val with_static_cache : Invfile.Inverted_file.t -> budget:int -> unit
(** Attaches the paper's static most-frequent-lists cache (Sec. 3.3;
    budget 250 in the paper's experiments). *)

val paper_example : unit -> Invfile.Inverted_file.t
(** The two-record collection of Table 1 (Sue and Tim), in memory — handy
    for docs and tests. *)

val paper_example_query : Nested.Value.t
(** The Section 1 query [{USA, {UK, {A, motorbike}}}]. *)
