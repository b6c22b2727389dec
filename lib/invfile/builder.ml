type t = {
  store : Storage.Kv.t;
  record_format : [ `Syntax | `Binary ];
  dict : Dict.t;
  alloc : Nested.Tree.allocator;
  postings : (string, int list) Hashtbl.t;  (* node-table rows, reverse-ordered *)
  nodes : Plist.Buf.t;  (* every internal node's posting, in id order *)
  mutable roots : int list;  (* reverse-ordered *)
  mutable count : int;
  mutable finished : bool;
}

(* Entries of the persisted frequency table (cache preloading). *)
let top_k = 4096

let create ?(record_format = `Syntax) store =
  store.Storage.Kv.put Inverted_file.meta_recfmt
    (match record_format with `Syntax -> "S" | `Binary -> "B");
  {
    store;
    record_format;
    dict = Dict.create store;
    alloc = Nested.Tree.allocator ();
    postings = Hashtbl.create 4096;
    nodes = Plist.Buf.create 1024;
    roots = [];
    count = 0;
    finished = false;
  }

let record_count t = t.count

let add_value t value =
  if t.finished then invalid_arg "Builder.add_value: builder already finished";
  let record_id = t.count in
  let tree = Nested.Tree.of_value t.alloc ~record_id value in
  (* An atom's postings are rows of the node table: each node's row is
     kept once, in columns, and an atom only collects row indices. Nodes
     come in id order and records in id order, so everything stays
     sorted. *)
  Nested.Tree.iter
    (fun n ->
      let row = Plist.Buf.length t.nodes in
      Plist.Buf.add_node t.nodes n;
      Array.iter
        (fun leaf ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt t.postings leaf) in
          Hashtbl.replace t.postings leaf (row :: prev))
        n.Nested.Tree.leaves)
    tree;
  t.roots <- tree.Nested.Tree.root :: t.roots;
  t.store.Storage.Kv.put
    (Inverted_file.record_key record_id)
    (match t.record_format with
    | `Syntax -> Value_codec.encode_syntax value
    | `Binary -> Value_codec.encode t.dict value);
  t.count <- t.count + 1;
  record_id

let add_string t s = add_value t (Nested.Syntax.of_string s)

let finish t =
  if t.finished then invalid_arg "Builder.finish: builder already finished";
  t.finished <- true;
  let nodes = Plist.Buf.contents t.nodes in
  let freqs = ref [] in
  Hashtbl.iter
    (fun atom rev_rows ->
      let rows = Array.of_list (List.rev rev_rows) in
      freqs := (atom, Array.length rows) :: !freqs;
      t.store.Storage.Kv.put (Inverted_file.atom_key atom) (Plist.to_bytes ~rows nodes))
    t.postings;
  Hashtbl.reset t.postings;
  t.store.Storage.Kv.put Inverted_file.meta_nodes (Plist.to_bytes nodes);
  (* Metadata. *)
  let roots = Array.of_list (List.rev t.roots) in
  t.store.Storage.Kv.put Inverted_file.meta_roots (Storage.Codec.encode_int_array roots);
  let w = Storage.Codec.writer () in
  Storage.Codec.write_varint w (List.length !freqs);
  Storage.Codec.write_varint w (Nested.Tree.next_id t.alloc);
  t.store.Storage.Kv.put Inverted_file.meta_counts (Storage.Codec.contents w);
  (* Top-k frequency table, by descending count then atom. *)
  let by_freq =
    List.sort
      (fun (a1, c1) (a2, c2) ->
        let c = Int.compare c2 c1 in
        if c <> 0 then c else String.compare a1 a2)
      !freqs
  in
  let top = List.filteri (fun i _ -> i < top_k) by_freq in
  let w = Storage.Codec.writer () in
  Storage.Codec.write_varint w (List.length top);
  List.iter
    (fun (a, c) ->
      Storage.Codec.write_string w a;
      Storage.Codec.write_varint w c)
    top;
  t.store.Storage.Kv.put Inverted_file.meta_topk (Storage.Codec.contents w);
  t.store.Storage.Kv.sync ();
  Inverted_file.open_store t.store
