module IF = Inverted_file

let shift_posting ~offset (p : Posting.t) =
  {
    Posting.node = p.Posting.node + offset;
    children = Array.map (fun c -> c + offset) p.Posting.children;
    leaf_count = p.Posting.leaf_count;
    post = p.Posting.post + offset;
    parent = (if p.Posting.parent < 0 then -1 else p.Posting.parent + offset);
  }

let shift_list ~offset l =
  Plist.of_postings (Array.map (shift_posting ~offset) (Plist.to_postings l))

(* Appends (already-shifted, all-larger-id) postings to dst's list for
   [atom]. *)
let append_postings dst atom shifted =
  let store = IF.store dst in
  let key = IF.atom_key atom in
  let current =
    match store.Storage.Kv.get key with
    | None -> Plist.empty
    | Some payload -> Plist.of_bytes payload
  in
  store.Storage.Kv.put key (Plist.to_bytes (Plist.merge current shifted));
  IF.internal_invalidate_atom dst atom

let append ~dst ~src =
  let offset = IF.node_count dst in
  let src_store = IF.store src in
  (* 1. Inverted lists: shift and append, atom by atom. Tombstoned records
     have no postings, so nothing special is needed for them here. *)
  src_store.Storage.Kv.iter (fun key payload ->
      if String.length key > 0 && key.[0] = 'a' then begin
        let atom = String.sub key 1 (String.length key - 1) in
        append_postings dst atom (shift_list ~offset (Plist.of_bytes payload))
      end);
  (* 2. Node table. *)
  let dst_store = IF.store dst in
  (match
     ( dst_store.Storage.Kv.get IF.meta_nodes,
       src_store.Storage.Kv.get IF.meta_nodes )
   with
  | Some dpayload, Some spayload ->
    let merged =
      Plist.merge (Plist.of_bytes dpayload)
        (shift_list ~offset (Plist.of_bytes spayload))
    in
    dst_store.Storage.Kv.put IF.meta_nodes (Plist.to_bytes merged);
    IF.internal_reset_node_table dst
  | None, None -> ()
  | Some _, None | None, Some _ ->
    invalid_arg "Merger.append: node tables must be present in both or neither");
  (* 3. Records and roots (live records keep their relative order; deleted
     slots of src are skipped, so dst record ids stay dense). *)
  let record_offset = IF.record_count dst in
  let copied = ref 0 in
  let new_roots = ref [] in
  let src_roots = IF.roots src in
  for i = 0 to IF.record_count src - 1 do
    match IF.record_value_opt src i with
    | None -> () (* tombstone: skip *)
    | Some v ->
      IF.internal_put_record dst (record_offset + !copied) v;
      new_roots := (src_roots.(i) + offset) :: !new_roots;
      incr copied
  done;
  let roots = Array.append (IF.roots dst) (Array.of_list (List.rev !new_roots)) in
  (* 4. Counts. New atoms = src atoms not present in dst before the merge;
     easiest exact accounting is to recount the atom keys. *)
  let atom_count = ref 0 in
  dst_store.Storage.Kv.iter (fun key _ ->
      if String.length key > 0 && key.[0] = 'a' then incr atom_count);
  IF.internal_set_counts dst ~roots ~atom_count:!atom_count
    ~node_count:(offset + IF.node_count src);
  IF.internal_write_meta dst;
  dst_store.Storage.Kv.sync ()
