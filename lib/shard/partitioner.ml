module IF = Invfile.Inverted_file

let assign policy ~shards ~index value =
  match policy with
  | Manifest.Round_robin -> index mod shards
  | Manifest.Hash -> (Nested.Value.hash value land max_int) mod shards

let backend_ext = function `Hash -> ".tch" | `Btree -> ".btr" | `Log -> ".log"

let shard_store_path ~manifest_path ~backend i =
  let base =
    let b = Filename.remove_extension manifest_path in
    if b = "" then manifest_path else b
  in
  Printf.sprintf "%s.shard%d%s" base i (backend_ext backend)

let create_store backend path =
  (try Sys.remove path with Sys_error _ -> ());
  match backend with
  | `Hash -> Storage.Hash_store.create path
  | `Btree -> Storage.Btree_store.create path
  | `Log -> Storage.Log_store.create path

(* Builds one shard store from its (global id, value) assignments and
   returns the manifest entry. *)
let build_shard ~backend ~record_format path assigned =
  let store = create_store backend path in
  let builder = Invfile.Builder.create ~record_format store in
  List.iter
    (fun (_global, v) -> ignore (Invfile.Builder.add_value builder v))
    assigned;
  let inv = Invfile.Builder.finish builder in
  let entry =
    {
      Manifest.location = Manifest.Local { path; backend };
      records = IF.record_count inv;
      atoms = IF.atom_count inv;
      nodes = IF.node_count inv;
      ids = Array.of_list (List.map fst assigned);
    }
  in
  IF.close inv;
  entry

let build_assigned ~policy ~backend ~record_format ~max_domains ~total_records
    ~manifest_path per_shard =
  let shards = Array.length per_shard in
  let entries =
    Containment.Parallel.map ~domains:(max 1 max_domains)
      (fun i ->
        build_shard ~backend ~record_format
          (shard_store_path ~manifest_path ~backend i)
          per_shard.(i))
      (List.init shards Fun.id)
  in
  let manifest = Manifest.make ~policy ~total_records entries in
  Manifest.save manifest manifest_path;
  manifest

(* Deals (global id, value) pairs into per-shard lists, in global-id
   order within each shard. *)
let partition policy ~shards pairs =
  let buckets = Array.make shards [] in
  List.iter
    (fun (global, v) ->
      let s = assign policy ~shards ~index:global v in
      buckets.(s) <- (global, v) :: buckets.(s))
    pairs;
  Array.map List.rev buckets

let build ?(policy = Manifest.Hash) ?(backend = `Hash)
    ?(record_format = `Syntax) ?max_domains ~shards ~manifest_path values =
  if shards < 1 then invalid_arg "Partitioner.build: shards must be ≥ 1";
  let max_domains =
    match max_domains with
    | Some d -> d
    | None -> Containment.Parallel.default_domains ()
  in
  let pairs = List.mapi (fun i v -> (i, v)) values in
  build_assigned ~policy ~backend ~record_format ~max_domains
    ~total_records:(List.length values) ~manifest_path
    (partition policy ~shards pairs)

(* --- reshard --- *)

let local_shards manifest =
  Array.map
    (fun (s : Manifest.shard) ->
      match s.Manifest.location with
      | Manifest.Local { path; _ } -> (s, path)
      | Manifest.Remote { host; port } ->
        invalid_arg
          (Printf.sprintf
             "Partitioner.reshard: shard at %s:%d is remote; reshard where \
              the stores live"
             host port))
    manifest.Manifest.shards

let check_no_collision sources path =
  if Array.exists (fun (_, p) -> p = path) sources then
    invalid_arg
      (Printf.sprintf
         "Partitioner.reshard: output store %s collides with a source shard \
          (choose a different output manifest name)"
         path)

(* Live (local id → global id) pairs of a source shard, in local order.
   The store may have been tombstoned since the manifest was written;
   grown stores are rejected because new records have no global id. *)
let check_id_map (entry : Manifest.shard) inv =
  if IF.record_count inv <> Array.length entry.Manifest.ids then
    invalid_arg
      "Partitioner.reshard: shard store and manifest id map disagree \
       (records were added since the manifest was written)"

let live_globals (entry : Manifest.shard) inv =
  check_id_map entry inv;
  let live = ref [] in
  for i = IF.record_count inv - 1 downto 0 do
    match IF.record_value_opt inv i with
    | None -> ()
    | Some v -> live := (entry.Manifest.ids.(i), v) :: !live
  done;
  !live

(* Shrinking: one Merger.merge per output shard over a contiguous group
   of source shards — postings shift mechanically, no record
   re-encoding. *)
let merge_groups ~backend ~output ~shards sources =
  let n = Array.length sources in
  let base = n / shards and extra = n mod shards in
  let start = ref 0 in
  List.init shards (fun g ->
      let size = base + if g < extra then 1 else 0 in
      let members = Array.to_list (Array.sub sources !start size) in
      start := !start + size;
      let path = shard_store_path ~manifest_path:output ~backend g in
      let opened = ref [] in
      Fun.protect
        ~finally:(fun () -> List.iter IF.close !opened)
        (fun () ->
          let srcs =
            List.map
              (fun ((entry : Manifest.shard), src_path) ->
                let src = IF.open_store (Storage.Store_file.open_existing src_path) in
                opened := src :: !opened;
                (entry, src))
              members
          in
          List.iter (fun (entry, src) -> check_id_map entry src) srcs;
          let dst, kept =
            Invfile.Merger.merge (create_store backend path)
              (List.map (fun (_, src) -> Invfile.Merger.source src) srcs)
          in
          let ids =
            Array.concat
              (List.map2
                 (fun ((entry : Manifest.shard), _) kept ->
                   Array.map (Array.get entry.Manifest.ids) kept)
                 srcs kept)
          in
          let entry =
            {
              Manifest.location = Manifest.Local { path; backend };
              records = IF.record_count dst;
              atoms = IF.atom_count dst;
              nodes = IF.node_count dst;
              ids;
            }
          in
          IF.close dst;
          entry))

let reshard ?(backend = `Hash) ~shards ~output manifest =
  if shards < 1 then invalid_arg "Partitioner.reshard: shards must be ≥ 1";
  let sources = local_shards manifest in
  for g = 0 to shards - 1 do
    check_no_collision sources (shard_store_path ~manifest_path:output ~backend g)
  done;
  let n = Array.length sources in
  if shards < n then begin
    let entries = merge_groups ~backend ~output ~shards sources in
    let m =
      Manifest.make ~policy:manifest.Manifest.policy
        ~total_records:manifest.Manifest.total_records entries
    in
    Manifest.save m output;
    m
  end
  else begin
    (* growing (or equal): re-partition the records through fresh
       builders, keeping each record's global id *)
    let pairs =
      Array.to_list sources
      |> List.concat_map (fun ((entry : Manifest.shard), path) ->
             let inv = IF.open_store (Storage.Store_file.open_existing path) in
             Fun.protect
               ~finally:(fun () -> IF.close inv)
               (fun () -> live_globals entry inv))
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    build_assigned ~policy:manifest.Manifest.policy ~backend
      ~record_format:`Syntax
      ~max_domains:(Containment.Parallel.default_domains ())
      ~total_records:manifest.Manifest.total_records ~manifest_path:output
      (partition manifest.Manifest.policy ~shards pairs)
  end
