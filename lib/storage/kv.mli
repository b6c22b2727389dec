(** Key-value store handles.

    A common interface over the storage backends (in-memory hash table,
    on-disk hash table, on-disk B+tree), mirroring the role Tokyo Cabinet
    plays in the paper's implementation (Sec. 5.1). The inverted file and
    the record store are built against this interface so every experiment
    can be run against any backend. *)

type t = {
  name : string;  (** backend description, e.g. ["hash:path"] *)
  get : string -> string option;
  put : string -> string -> unit;  (** inserts or replaces *)
  delete : string -> bool;  (** [true] if the key was present *)
  iter : (string -> string -> unit) -> unit;  (** arbitrary order *)
  iter_keys : (string -> unit) -> unit;
      (** the keys of {!iter}, without reading a value where the backend
          keeps its keys apart (the log store's directory, the in-memory
          table, the B+tree's leaves) *)
  length : unit -> int;  (** number of live keys *)
  sync : unit -> unit;
  close : unit -> unit;
  stats : Io_stats.t;
}

val mem : t -> string -> bool
val find_exn : t -> string -> string
(** @raise Not_found if the key is absent. *)

val update : t -> string -> (string option -> string) -> unit
(** [update t k f] replaces the binding of [k] with [f (get t k)]. *)

val keys : t -> string list
(** All keys, sorted. *)

val to_alist : t -> (string * string) list
(** All bindings, sorted by key. *)
