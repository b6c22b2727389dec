(** Record placement and sharded index construction.

    [build] turns one input collection into N independent inverted files
    (one {!Invfile.Builder} per shard, run in parallel on OCaml 5
    domains) plus the {!Manifest} tying them back together. Placement is
    by value hash (the default — co-locates duplicate records and is
    stable under reordering) or round-robin (perfectly balanced).
    Either way every record keeps the global id the single-store build
    would have given it, recorded in the manifest's per-shard id maps.

    [reshard] changes the shard count of an existing local manifest:
    shrinking merges neighbouring shards with {!Invfile.Merger.merge}
    (the mechanical id-shifting reduce — no re-encoding), while growing
    re-partitions the records through fresh builders. *)

val assign : Manifest.policy -> shards:int -> index:int -> Nested.Value.t -> int
(** The shard a record lands on: [index mod shards] under
    [Round_robin], a deterministic hash of the canonical value under
    [Hash]. *)

val shard_store_path : manifest_path:string -> backend:Manifest.backend -> int -> string
(** Where [build]/[reshard] place shard [i]'s store file, derived from
    the manifest path (e.g. [data.manifest] → [data.shard0.tch]). *)

val build :
  ?policy:Manifest.policy ->
  ?backend:Manifest.backend ->
  ?record_format:[ `Syntax | `Binary ] ->
  ?max_domains:int ->
  shards:int ->
  manifest_path:string ->
  Nested.Value.t list ->
  Manifest.t
(** Partitions the values, builds every shard store (in parallel, at
    most [max_domains] — default {!Containment.Parallel.default_domains}
    — builders at once), writes the manifest to [manifest_path] and
    returns it. Existing shard store files are overwritten.
    @raise Invalid_argument if [shards < 1]. *)

val reshard :
  ?backend:Manifest.backend ->
  shards:int ->
  output:string ->
  Manifest.t ->
  Manifest.t
(** Rewrites the collection behind a manifest of local shards into
    [shards] shards, writing new store files and a new manifest at
    [output]. Global record ids are preserved, so query results are
    unchanged. Source stores are left intact.
    @raise Invalid_argument if the manifest has remote shards, if
    [shards < 1], or if an output store path collides with a source
    store. *)
