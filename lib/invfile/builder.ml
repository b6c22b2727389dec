(* The index a sequence of records derives: every internal node's posting
   once, in columns, and per atom the rows of that node table holding
   it. Nodes come in id order and records in id order, so everything
   stays sorted. *)
type index = {
  postings : (string, int list) Hashtbl.t;  (* node-table rows, reverse-ordered *)
  nodes : Plist.Buf.t;  (* every internal node's posting, in id order *)
  mutable roots : int list;  (* reverse-ordered *)
  mutable next : int;  (* the next free node id *)
}

let index ?(size = 4096) () =
  {
    postings = Hashtbl.create size;
    nodes = Plist.Buf.create (min size 1024);
    roots = [];
    next = 0;
  }

(* Records occupy contiguous, equal pre and post ranges, so an allocator
   started at [next] numbers a record as one shared allocator would. *)
let index_value ix ~record_id value =
  let tree =
    Nested.Tree.of_value (Nested.Tree.allocator_from ix.next) ~record_id value
  in
  Nested.Tree.iter
    (fun n ->
      let row = Plist.Buf.length ix.nodes in
      Plist.Buf.add_node ix.nodes n;
      Array.iter
        (fun leaf ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt ix.postings leaf) in
          Hashtbl.replace ix.postings leaf (row :: prev))
        n.Nested.Tree.leaves)
    tree;
  ix.roots <- tree.Nested.Tree.root :: ix.roots;
  ix.next <- ix.next + Nested.Tree.node_count tree

let index_value_at ix ~root ~record_id value =
  ix.next <- root;
  index_value ix ~record_id value;
  ix.next

let reserve_slot ix =
  ix.roots <- ix.next :: ix.roots;
  ix.next <- ix.next + 1

let index_nodes ix = Plist.Buf.contents ix.nodes
let index_atoms ix = Hashtbl.fold (fun atom _ acc -> atom :: acc) ix.postings []

let iter_postings ix f =
  Hashtbl.iter (fun atom rev_rows -> f atom (Array.of_list (List.rev rev_rows))) ix.postings

let write_index store ix ~node_table =
  let nodes = index_nodes ix in
  let lengths = ref [] in
  iter_postings ix (fun atom rows ->
      lengths := (atom, Array.length rows) :: !lengths;
      store.Storage.Kv.put (Inverted_file.atom_key atom) (Plist.to_bytes ~rows nodes));
  let atom_count = Hashtbl.length ix.postings in
  (* a cell per posting: freed before the node table is encoded *)
  Hashtbl.reset ix.postings;
  if node_table then store.Storage.Kv.put Inverted_file.meta_nodes (Plist.to_bytes nodes);
  Inverted_file.write_meta store
    ~roots:(Array.of_list (List.rev ix.roots))
    ~atom_count ~node_count:ix.next ~lengths:!lengths

type t = {
  store : Storage.Kv.t;
  record_format : [ `Syntax | `Binary ];
  dict : Dict.t;
  ix : index;
  mutable count : int;
  mutable finished : bool;
}

let create ?(record_format = `Syntax) store =
  store.Storage.Kv.put Inverted_file.meta_recfmt
    (match record_format with `Syntax -> "S" | `Binary -> "B");
  {
    store;
    record_format;
    dict = Dict.create store;
    ix = index ();
    count = 0;
    finished = false;
  }

let record_count t = t.count

let add_value t value =
  if t.finished then invalid_arg "Builder.add_value: builder already finished";
  let record_id = t.count in
  index_value t.ix ~record_id value;
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
  write_index t.store t.ix ~node_table:true;
  t.store.Storage.Kv.sync ();
  Inverted_file.open_store t.store
