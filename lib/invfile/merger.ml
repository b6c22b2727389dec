module IF = Inverted_file

type source = { inv : IF.t; keep : int -> bool }

let source ?(keep = fun _ -> true) inv = { inv; keep }

(* How one source lands in the destination: every id moves by [offset],
   the records [kept] are copied, and the postings of [dropped] records
   (live ones the caller does not keep) are left out. A source that
   neither moves nor drops has its payloads copied as bytes. *)
type plan = {
  src : IF.t;
  store : Storage.Kv.t;
  offset : int;
  kept : int array;
  dropped : bool array option;
}

let unchanged p = p.offset = 0 && Option.is_none p.dropped

(* The source's rows for a payload, placed in the destination. *)
let placed p payload =
  let l = Plist.of_bytes ~offset:p.offset payload in
  match p.dropped with
  | None -> l
  | Some dropped ->
    let record i = IF.record_of_root p.src (IF.root_of_node p.src (Plist.node l i - p.offset)) in
    Plist.filter (fun i -> not dropped.(record i)) l

(* The destination payload of [key]: [base] (what the destination holds
   already), then each plan's rows in order. The first unchanged
   contribution is kept as bytes; every later one is a tail append. *)
let merged_payload plans key base =
  List.fold_left
    (fun acc p ->
      match (acc, p.store.Storage.Kv.get key) with
      | _, None -> acc
      | None, Some payload when unchanged p -> Some payload
      | _, Some payload -> (
        let l = placed p payload in
        if Plist.is_empty l then acc
        else
          match acc with
          | None -> Some (Plist.to_bytes l)
          | Some b -> Some (Plist.append b l)))
    base plans

(* The atom keys of every plan with their atoms, each once. Keyed by
   store key, not by atom: the merge then reads the sources and writes
   the destination in the keys' hash order, which measured 10-25% faster
   than the atoms' order on a loop of live inserts, flushes and
   compactions. *)
let atoms_of plans =
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun p ->
      p.store.Storage.Kv.iter_keys (fun key ->
          Option.iter (Hashtbl.replace seen key) (IF.atom_of_key key)))
    plans;
  Hashtbl.fold (fun key atom acc -> (key, atom) :: acc) seen []

(* Copies the kept records of every source to the destination slots from
   [first] and plans their lists; returns the plans, the roots of the
   copies and the destination's node count. A record is dropped when its
   slot holds the tombstone marker or [keep] rejects it. A [`Syntax]
   record goes to a [`Syntax] destination as its bytes ([put_raw]); any
   other pairing is decoded and re-encoded ([put_value]). *)
let copy_records ~first ~base_nodes ~dst_format ~put_raw ~put_value sources =
  let next = ref first and offset = ref base_nodes and roots = ref [] in
  let plans =
    List.map
      (fun { inv; keep } ->
        let store = IF.store inv in
        let raw = IF.record_format inv = `Syntax && dst_format = `Syntax in
        let src_roots = IF.roots inv in
        let kept = ref [] and dropped = Array.make (IF.record_count inv) false in
        for i = 0 to IF.record_count inv - 1 do
          match store.Storage.Kv.get (IF.record_key i) with
          | None -> raise (IF.Malformed (Printf.sprintf "record %d not stored" i))
          | Some s when s = IF.deleted_marker -> ()
          | Some _ when not (keep i) -> dropped.(i) <- true
          | Some s ->
            if raw then put_raw !next s else put_value !next (IF.record_value inv i);
            roots := (src_roots.(i) + !offset) :: !roots;
            kept := i :: !kept;
            incr next
        done;
        let p =
          {
            src = inv;
            store;
            offset = !offset;
            kept = Array.of_list (List.rev !kept);
            dropped = (if Array.exists Fun.id dropped then Some dropped else None);
          }
        in
        offset := !offset + IF.node_count inv;
        p)
      sources
  in
  (plans, Array.of_list (List.rev !roots), !offset)

let has_node_table inv = Storage.Kv.mem (IF.store inv) IF.meta_nodes

let merge store sources =
  let put = store.Storage.Kv.put in
  put IF.meta_recfmt "S";
  let node_table = List.for_all (fun s -> has_node_table s.inv) sources in
  if (not node_table) && List.exists (fun s -> has_node_table s.inv) sources then
    invalid_arg "Merger.merge: node tables must be present in every source or none";
  let plans, roots, node_count =
    copy_records ~first:0 ~base_nodes:0 ~dst_format:`Syntax
      ~put_raw:(fun id s -> put (IF.record_key id) s)
      ~put_value:(fun id v -> put (IF.record_key id) (Value_codec.encode_syntax v))
      sources
  in
  let lengths = ref [] in
  List.iter
    (fun (key, atom) ->
      match merged_payload plans key None with
      | None -> ()
      | Some payload ->
        lengths := (atom, Plist.payload_length payload) :: !lengths;
        put key payload)
    (atoms_of plans);
  if node_table then
    put IF.meta_nodes
      (match merged_payload plans IF.meta_nodes None with
      | Some payload -> payload
      | None -> Plist.to_bytes Plist.empty);
  IF.write_meta store ~roots ~atom_count:(List.length !lengths) ~node_count
    ~lengths:!lengths;
  store.Storage.Kv.sync ();
  (IF.open_store store, List.map (fun p -> p.kept) plans)

let append ~dst ~src =
  let store = IF.store dst in
  if has_node_table dst <> has_node_table src then
    invalid_arg "Merger.append: node tables must be present in both or neither";
  let plans, new_roots, node_count =
    copy_records ~first:(IF.record_count dst) ~base_nodes:(IF.node_count dst)
      ~dst_format:(IF.record_format dst)
      ~put_raw:(fun id s -> store.Storage.Kv.put (IF.record_key id) s)
      ~put_value:(IF.internal_put_record dst) [ source src ]
  in
  (* The destination's lists are the base of every append: only their
     last blocks are decoded. *)
  let touched = Hashtbl.create 256 and added = ref 0 in
  List.iter
    (fun (key, atom) ->
      let base = store.Storage.Kv.get key in
      match merged_payload plans key base with
      | None -> ()
      | Some payload ->
        if Option.is_none base then incr added;
        IF.internal_invalidate_atom dst atom;
        Hashtbl.replace touched atom (Plist.payload_length payload);
        store.Storage.Kv.put key payload)
    (atoms_of plans);
  (match merged_payload plans IF.meta_nodes (store.Storage.Kv.get IF.meta_nodes) with
  | Some payload when has_node_table dst ->
    store.Storage.Kv.put IF.meta_nodes payload;
    IF.internal_reset_node_table dst
  | Some _ | None -> ());
  (* The frequency table over every list of the destination: the touched
     ones by the lengths just written, the others by their stored heads
     (not decoded), so a table left stale by a delete is not carried on. *)
  let lengths =
    List.filter_map
      (fun key ->
        Option.bind (IF.atom_of_key key) (fun atom ->
            match Hashtbl.find_opt touched atom with
            | Some n -> Some (atom, n)
            | None ->
              Option.map
                (fun payload -> (atom, Plist.payload_length payload))
                (store.Storage.Kv.get key)))
      (Storage.Kv.keys store)
  in
  let roots = Array.append (IF.roots dst) new_roots in
  let atom_count = IF.atom_count dst + !added in
  IF.internal_set_counts dst ~roots ~atom_count ~node_count;
  IF.write_meta store ~roots ~atom_count ~node_count ~lengths;
  store.Storage.Kv.sync ()
