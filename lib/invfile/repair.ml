module IF = Inverted_file

type outcome = { live_records : int; tombstoned : int; atoms : int }

let rebuild inv =
  let store = IF.store inv in
  (* The slot count comes from the stored records themselves, not from the
     (possibly damaged) roots metadata. *)
  let max_id = ref (-1) in
  let old_atom_keys = ref [] in
  store.Storage.Kv.iter_keys (fun key ->
      (match IF.record_id_of_key key with
      | Some id when id > !max_id -> max_id := id
      | _ -> ());
      if Option.is_some (IF.atom_of_key key) then old_atom_keys := key :: !old_atom_keys);
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
  (* Derive everything the builder derives, in record-id order so each
     postings list comes out sorted. *)
  let ix = Builder.index () in
  let tombstoned = ref 0 in
  Array.iteri
    (fun id v ->
      match v with
      | None ->
        incr tombstoned;
        Builder.reserve_slot ix
      | Some v -> Builder.index_value ix ~record_id:id v)
    values;
  let atoms = Builder.index_atoms ix in
  let tombstone_keys =
    List.filter_map
      (fun id -> if values.(id) = None then Some (IF.record_key id) else None)
      (List.init n Fun.id)
  in
  let keys =
    (IF.meta_roots :: IF.meta_counts :: IF.meta_nodes :: IF.meta_topk
     :: !old_atom_keys)
    @ List.map IF.atom_key atoms @ tombstone_keys
  in
  Journal.with_txn store ~keys (fun () ->
      List.iter (fun key -> ignore (store.Storage.Kv.delete key)) !old_atom_keys;
      ignore (store.Storage.Kv.delete IF.meta_nodes);
      Builder.write_index store ix ~node_table:had_node_table;
      List.iter
        (fun key -> store.Storage.Kv.put key IF.deleted_marker)
        tombstone_keys;
      store.Storage.Kv.sync ());
  IF.refresh inv;
  {
    live_records = n - !tombstoned;
    tombstoned = !tombstoned;
    atoms = List.length atoms;
  }
