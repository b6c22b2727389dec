module IF = Inverted_file

type outcome = { live_records : int; tombstoned : int; atoms : int }

let record_id_of_key key =
  if String.length key > 2 && key.[0] = 'r' && key.[1] = ':' then
    int_of_string_opt (String.sub key 2 (String.length key - 2))
  else None

let is_atom_key key = String.length key > 0 && key.[0] = 'a'

let rebuild inv =
  let store = IF.store inv in
  (* The slot count comes from the stored records themselves, not from the
     (possibly damaged) roots metadata. *)
  let max_id = ref (-1) in
  let old_atom_keys = ref [] in
  store.Storage.Kv.iter (fun key _ ->
      (match record_id_of_key key with
      | Some id when id > !max_id -> max_id := id
      | _ -> ());
      if is_atom_key key then old_atom_keys := key :: !old_atom_keys);
  let n = 1 + max !max_id (IF.record_count inv - 1) in
  (* Readable values; anything else is tombstoned below. *)
  let values =
    Array.init n (fun id ->
        match IF.record_value_opt inv id with
        | Some v when Nested.Value.is_set v -> Some v
        | Some _ | None -> None
        | exception _ -> None)
  in
  let had_node_table = Storage.Kv.mem store IF.meta_nodes in
  (* Recompute everything the builder derives, in record-id order so each
     postings list comes out sorted. *)
  let postings : (string, int list) Hashtbl.t = Hashtbl.create 1024 in
  let nodes = Plist.Buf.create 1024 in
  let roots = Array.make n 0 in
  let tombstoned = ref 0 in
  let next = ref 0 in
  Array.iteri
    (fun id v ->
      roots.(id) <- !next;
      match v with
      | None ->
        (* reserve one id so roots stay strictly increasing *)
        incr tombstoned;
        incr next
      | Some v ->
        let tree =
          Nested.Tree.of_value (Nested.Tree.allocator_from !next) ~record_id:id v
        in
        (* as in Builder: node rows once, atoms collect row indices *)
        Nested.Tree.iter
          (fun node ->
            let row = Plist.Buf.length nodes in
            Plist.Buf.add_node nodes node;
            Array.iter
              (fun leaf ->
                let prev = Option.value ~default:[] (Hashtbl.find_opt postings leaf) in
                Hashtbl.replace postings leaf (row :: prev))
              node.Nested.Tree.leaves)
          tree;
        next := !next + Nested.Tree.node_count tree)
    values;
  let new_atom_keys =
    Hashtbl.fold (fun atom _ acc -> IF.atom_key atom :: acc) postings []
  in
  let tombstone_keys =
    List.filter_map
      (fun id -> if values.(id) = None then Some (IF.record_key id) else None)
      (List.init n Fun.id)
  in
  let keys =
    (IF.meta_roots :: IF.meta_counts :: IF.meta_nodes :: IF.meta_topk
     :: !old_atom_keys)
    @ new_atom_keys @ tombstone_keys
  in
  Journal.with_txn store ~keys (fun () ->
      List.iter (fun key -> ignore (store.Storage.Kv.delete key)) !old_atom_keys;
      ignore (store.Storage.Kv.delete IF.meta_nodes);
      let freqs = ref [] in
      let nodes = Plist.Buf.contents nodes in
      Hashtbl.iter
        (fun atom rev_rows ->
          let rows = Array.of_list (List.rev rev_rows) in
          freqs := (atom, Array.length rows) :: !freqs;
          store.Storage.Kv.put (IF.atom_key atom) (Plist.to_bytes ~rows nodes))
        postings;
      if had_node_table then
        store.Storage.Kv.put IF.meta_nodes (Plist.to_bytes nodes);
      List.iter
        (fun key -> store.Storage.Kv.put key IF.deleted_marker)
        tombstone_keys;
      store.Storage.Kv.put IF.meta_roots (Storage.Codec.encode_int_array roots);
      let w = Storage.Codec.writer () in
      Storage.Codec.write_varint w (Hashtbl.length postings);
      Storage.Codec.write_varint w !next;
      store.Storage.Kv.put IF.meta_counts (Storage.Codec.contents w);
      let by_freq =
        List.sort
          (fun (a1, c1) (a2, c2) ->
            let c = Int.compare c2 c1 in
            if c <> 0 then c else String.compare a1 a2)
          !freqs
      in
      let top = List.filteri (fun i _ -> i < 4096) by_freq in
      let w = Storage.Codec.writer () in
      Storage.Codec.write_varint w (List.length top);
      List.iter
        (fun (a, c) ->
          Storage.Codec.write_string w a;
          Storage.Codec.write_varint w c)
        top;
      store.Storage.Kv.put IF.meta_topk (Storage.Codec.contents w);
      store.Storage.Kv.sync ());
  IF.refresh inv;
  {
    live_records = n - !tombstoned;
    tombstoned = !tombstoned;
    atoms = Hashtbl.length postings;
  }
