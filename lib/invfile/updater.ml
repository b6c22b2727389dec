module IF = Inverted_file

(* Read-modify-write of one atom's postings list; returns the change in
   the number of live atoms (-1 when the list vanished, +1 when it was
   created, 0 otherwise). *)
let update_list inv atom f =
  let store = IF.store inv in
  let key = IF.atom_key atom in
  let existed = ref false in
  let current =
    match store.Storage.Kv.get key with
    | None -> Plist.empty
    | Some payload ->
      existed := true;
      Plist.of_bytes payload
  in
  let updated = f current in
  IF.internal_invalidate_atom inv atom;
  if Plist.is_empty updated then begin
    ignore (store.Storage.Kv.delete key);
    if !existed then -1 else 0
  end
  else begin
    store.Storage.Kv.put key (Plist.to_bytes updated);
    if !existed then 0 else 1
  end

let update_node_table inv f =
  let store = IF.store inv in
  match store.Storage.Kv.get IF.meta_nodes with
  | None -> () (* node table was not built for this collection *)
  | Some payload ->
    store.Storage.Kv.put IF.meta_nodes (f payload);
    IF.internal_reset_node_table inv

let meta_keys = [ IF.meta_nodes; IF.meta_roots; IF.meta_counts ]

(* Store keys the binary record format may write while encoding [value]:
   the dictionary entries of its not-yet-interned atoms plus the
   allocation cursor. Ids are dense, so the new entries occupy the next
   [n] ids regardless of interning order. *)
let dict_keys inv atoms =
  match IF.record_format inv with
  | `Syntax -> []
  | `Binary ->
    let dict = IF.dict inv in
    let fresh = List.filter (fun a -> Dict.find dict a = None) atoms in
    let base = Dict.size dict in
    Dict.count_key
    :: List.map Dict.atom_key fresh
    @ List.mapi (fun i _ -> Dict.id_key (base + i)) fresh

(* Runs [apply] under an undo-journal transaction covering [keys], so a
   crash or I/O error mid-update fully rolls back. On an in-place
   rollback the handle's in-memory state (counts, dictionary and list
   caches) is realigned with the store. *)
let in_txn ~journal inv keys apply =
  if not journal then apply ()
  else
    try Journal.with_txn (IF.store inv) ~keys apply
    with e ->
      (try IF.refresh inv with _ -> ());
      raise e

let add_value ?(journal = true) inv value =
  if Nested.Value.is_atom value then
    invalid_arg "Updater.add_value: record value must be a set";
  let record_id = IF.record_count inv in
  let first_id = IF.node_count inv in
  let ix = Builder.index ~size:16 () in
  let node_count = Builder.index_value_at ix ~root:first_id ~record_id value in
  let atoms = Nested.Value.atom_universe value in
  let keys =
    (IF.record_key record_id :: List.map IF.atom_key atoms)
    @ meta_keys @ dict_keys inv atoms
  in
  in_txn ~journal inv keys @@ fun () ->
  (* New ids exceed all existing ids: each touched list grows at its tail,
     one append per atom and one for the node table. *)
  let store = IF.store inv in
  let nodes = Builder.index_nodes ix in
  let added_atoms = ref 0 in
  Builder.iter_postings ix (fun atom rows ->
      let key = IF.atom_key atom in
      IF.internal_invalidate_atom inv atom;
      store.Storage.Kv.put key
        (match store.Storage.Kv.get key with
        | None ->
          incr added_atoms;
          Plist.to_bytes ~rows nodes
        | Some payload -> Plist.append ~rows payload nodes));
  update_node_table inv (fun payload -> Plist.append payload nodes);
  IF.internal_put_record inv record_id value;
  (* metadata + in-handle state *)
  let roots = Array.append (IF.roots inv) [| first_id |] in
  IF.internal_set_counts inv ~roots
    ~atom_count:(IF.atom_count inv + !added_atoms)
    ~node_count;
  IF.internal_write_meta inv;
  record_id

let add_string ?journal inv s = add_value ?journal inv (Nested.Syntax.of_string s)

(* The raw slot is compared with the marker: no record is decoded. *)
let is_deleted inv record_id =
  record_id >= 0
  && record_id < IF.record_count inv
  && (IF.store inv).Storage.Kv.get (IF.record_key record_id)
     = Some IF.deleted_marker

let delete_record ?(journal = true) inv record_id =
  if record_id < 0 || record_id >= IF.record_count inv then false
  else
    match IF.record_value_opt inv record_id with
    | None -> false
    | Some value ->
      let first_id = (IF.roots inv).(record_id) in
      let next_id =
        if record_id + 1 < IF.record_count inv then (IF.roots inv).(record_id + 1)
        else IF.node_count inv
      in
      let in_range id = id >= first_id && id < next_id in
      let atoms = Nested.Value.atom_universe value in
      let keys =
        IF.record_key record_id :: List.map IF.atom_key atoms @ meta_keys
      in
      in_txn ~journal inv keys @@ fun () ->
      let removed_atoms = ref 0 in
      List.iter
        (fun atom ->
          removed_atoms :=
            !removed_atoms
            - update_list inv atom (fun l ->
                  Plist.filter (fun i -> not (in_range (Plist.node l i))) l))
        atoms;
      update_node_table inv (fun payload ->
          let l = Plist.of_bytes payload in
          Plist.to_bytes (Plist.filter (fun i -> not (in_range (Plist.node l i))) l));
      let store = IF.store inv in
      store.Storage.Kv.put (IF.record_key record_id) IF.deleted_marker;
      IF.internal_set_counts inv ~roots:(IF.roots inv)
        ~atom_count:(IF.atom_count inv - !removed_atoms)
        ~node_count:(IF.node_count inv);
      IF.internal_write_meta inv;
      true
