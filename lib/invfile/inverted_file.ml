exception Malformed of string

(* Store key layout. Atom keys get prefix 'a'; metadata lives under "m:".
   Record values live under "r:<decimal id>". *)
let atom_key a = "a" ^ a
let record_key id = "r:" ^ string_of_int id

let atom_of_key key =
  if String.length key > 0 && key.[0] = 'a' then
    Some (String.sub key 1 (String.length key - 1))
  else None

let record_id_of_key key =
  if String.length key > 2 && key.[0] = 'r' && key.[1] = ':' then
    int_of_string_opt (String.sub key 2 (String.length key - 2))
  else None

let meta_roots = "m:roots"
let meta_counts = "m:counts"
let meta_topk = "m:topk"
let meta_nodes = "m:nodes"
let meta_recfmt = "m:recfmt"

(* A resolved atom: its decoded list, or its payload left undecoded. *)
type source = Decoded of Plist.t | Payload of string

type t = {
  store : Storage.Kv.t;
  dict : Dict.t;
  mutable roots : int array;
  mutable atom_count : int;
  mutable node_count : int;
  mutable all_nodes : Plist.t option;
  mutable cache : Cache.t option;
  pins : (string, source) Hashtbl.t;
      (* every atom the open scopes resolved, once (with_query) *)
  mutable scopes : int;  (* open with_query scopes *)
  mutable within : Plist_stream.ranges option;
      (* the innermost query's record filter (with_query) *)
  lookup_stats : Storage.Io_stats.t;
}

let store t = t.store
let close t = t.store.Storage.Kv.close ()

let get_meta store key =
  match store.Storage.Kv.get key with
  | Some v -> v
  | None -> raise (Malformed (Printf.sprintf "missing metadata %S" key))

let read_meta store =
  let roots =
    try Storage.Codec.decode_int_array (get_meta store meta_roots)
    with Storage.Codec.Corrupt m -> raise (Malformed ("roots: " ^ m))
  in
  let atom_count, node_count =
    let r = Storage.Codec.reader (get_meta store meta_counts) in
    try
      let a = Storage.Codec.read_varint r in
      let n = Storage.Codec.read_varint r in
      (a, n)
    with Storage.Codec.Corrupt m -> raise (Malformed ("counts: " ^ m))
  in
  (roots, atom_count, node_count)

let open_store ?(lenient = false) store =
  (* roll back any transaction a crash left half-applied *)
  ignore (Journal.recover store);
  let roots, atom_count, node_count =
    if not lenient then read_meta store
    else
      (* damaged-store mode for repair: missing/corrupt metadata reads as
         an empty index; the record slots remain the ground truth *)
      try read_meta store with Malformed _ -> ([||], 0, 0)
  in
  {
    store;
    dict = Dict.create store;
    roots;
    atom_count;
    node_count;
    all_nodes = None;
    cache = None;
    pins = Hashtbl.create 16;
    scopes = 0;
    within = None;
    lookup_stats = Storage.Io_stats.create ();
  }

(* A corrupt or retired payload names its atom and the way out. *)
let malformed_list a m =
  Malformed
    (Printf.sprintf "postings of %S: %s; 'nscq repair' rebuilds the index" a m)

let lookup_from_store t a =
  match t.store.Storage.Kv.get (atom_key a) with
  | None -> Plist.empty
  | Some payload -> (
    try Plist.of_bytes payload
    with Storage.Codec.Corrupt m -> raise (malformed_list a m))

(* The cache probe every lookup starts with: counts one lookup and its
   hit or miss. *)
let cached t a =
  Storage.Io_stats.record_lookup t.lookup_stats;
  match Option.bind t.cache (fun c -> Cache.find c a) with
  | Some _ as hit ->
    Storage.Io_stats.record_hit t.lookup_stats;
    hit
  | None ->
    Storage.Io_stats.record_miss t.lookup_stats;
    None

(* Decode from the store and offer the list to the cache: dynamic
   policies admit it, Static only while it has room. *)
let admit t a =
  let l = lookup_from_store t a in
  Option.iter (fun c -> Cache.insert c a l) t.cache;
  l

let lookup t a = match cached t a with Some l -> l | None -> admit t a

(* Where a cursor reads an atom's list from: the decoded list (cached, or
   decoded now because the cache keeps it) or the undecoded payload. *)
let source t a =
  match cached t a with
  | Some l -> Decoded l
  | None -> (
    match t.cache with
    | Some c when Cache.admits c -> Decoded (admit t a)
    | Some _ | None -> (
      match t.store.Storage.Kv.get (atom_key a) with
      | None -> Decoded Plist.empty
      | Some payload -> Payload payload))

let cursor_of_source ?within a = function
  | Decoded l -> Plist_stream.cursor_of_plist ?within l
  | Payload payload -> (
    try Plist_stream.cursor_of_bytes ?within payload
    with Storage.Codec.Corrupt m -> raise (malformed_list a m))

(* The list length, from the header alone. *)
let length_of_source a = function
  | Decoded l -> Plist.length l
  | Payload payload -> (
    try Plist.payload_length payload
    with Storage.Codec.Corrupt m -> raise (malformed_list a m))

let resolved t a =
  if Hashtbl.length t.pins = 0 then None else Hashtbl.find_opt t.pins a

let source_of t a = match resolved t a with Some s -> s | None -> source t a
let cursor t a = cursor_of_source ?within:t.within a (source_of t a)

(* Scopes nest: the handle's one pin table is filled by every open scope
   and emptied, not replaced, when the outermost one returns (reset
   shrinks it after a scope with many atoms). Each scope restores the
   record filter it found. No Fun.protect: a query's scope allocates
   next to nothing. *)
let with_query t f =
  let within = t.within in
  t.scopes <- t.scopes + 1;
  let restore () =
    t.scopes <- t.scopes - 1;
    if t.scopes = 0 then Hashtbl.reset t.pins;
    t.within <- within
  in
  match f () with
  | v ->
    restore ();
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    restore ();
    Printexc.raise_with_backtrace e bt

let pinned t a = Hashtbl.mem t.pins a

let pin t a =
  if t.scopes = 0 then invalid_arg "Inverted_file.pin: outside with_query";
  let s =
    match Hashtbl.find_opt t.pins a with
    | Some s -> s
    | None ->
      let s = source t a in
      Hashtbl.add t.pins a s;
      s
  in
  length_of_source a s

let mem_atom t a = Storage.Kv.mem t.store (atom_key a)

let atoms_with_prefix t prefix =
  let prefixed key =
    Option.bind (atom_of_key key) (fun a ->
        if String.starts_with ~prefix a then Some a else None)
  in
  let lo = atom_key prefix in
  (* ordered range scan when the backend supports it; '\xff' caps the range
     (atom bytes below 0xff; a pathological 0xff-atom falls back below) *)
  match Storage.Btree_store.range t.store ~lo ~hi:(lo ^ "\xff\xff\xff\xff") with
  | pairs -> List.filter_map (fun (k, _) -> prefixed k) pairs
  | exception Invalid_argument _ ->
    let out = ref [] in
    t.store.Storage.Kv.iter_keys (fun k ->
        Option.iter (fun a -> out := a :: !out) (prefixed k));
    List.sort String.compare !out

let all_nodes t =
  match t.all_nodes with
  | Some l -> l
  | None ->
    let l =
      match t.store.Storage.Kv.get meta_nodes with
      | None -> raise (Malformed "node table not built")
      | Some payload -> Plist.of_bytes payload
    in
    t.all_nodes <- Some l;
    l

let record_count t = Array.length t.roots
let atom_count t = t.atom_count
let node_count t = t.node_count
let roots t = t.roots

(* Index of the last root <= id. *)
let root_index t id =
  let n = Array.length t.roots in
  let rec bsearch lo hi =
    (* invariant: roots.(lo) <= id, roots.(hi) > id (hi may be n) *)
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if t.roots.(mid) <= id then bsearch mid hi else bsearch lo mid
  in
  if n = 0 || id < t.roots.(0) then raise Not_found else bsearch 0 n

let root_of_node t id = t.roots.(root_index t id)

let is_root t id =
  try root_of_node t id = id with Not_found -> false

let record_of_root t id =
  let i = root_index t id in
  if t.roots.(i) = id then i else raise Not_found

(* One seek per record: from a posting's record straight to the next
   record's first id. *)
let records_of t a =
  let c = cursor_of_source a (source_of t a) in
  let n = Array.length t.roots and acc = ref [] in
  let id = ref (Plist_stream.head c) in
  while !id <> Plist_stream.eof do
    if n = 0 || !id < t.roots.(0) then
      (* no record holds it: a damaged index; skip to the first record *)
      id := if n = 0 then Plist_stream.eof else Plist_stream.seek c t.roots.(0)
    else begin
      let r = root_index t !id in
      acc := r :: !acc;
      id := if r + 1 < n then Plist_stream.seek c t.roots.(r + 1) else Plist_stream.eof
    end
  done;
  Array.of_list (List.rev !acc)

(* Record [r] owns the ids [roots.(r), roots.(r + 1)); consecutive
   records share one range. *)
let filter_records t records =
  let n = Array.length t.roots in
  let spans = ref [] in
  Array.iter
    (fun r ->
      let lo = t.roots.(r) and hi = if r + 1 < n then t.roots.(r + 1) else max_int in
      spans :=
        match !spans with
        | (plo, phi) :: rest when phi = lo -> (plo, hi) :: rest
        | l -> (lo, hi) :: l)
    records;
  t.within <- Some (Plist_stream.ranges (Array.of_list (List.rev !spans)))

let deleted_marker = "\x00deleted"

(* Record payloads: tagged 'S' (syntax) or 'B' (binary, dictionary-coded)
   via Value_codec; payloads written by older builds carry no tag and are
   parsed as raw literal syntax. *)
let decode_record t s =
  match Value_codec.decode t.dict s with
  | v -> v
  | exception Storage.Codec.Corrupt _ when String.length s > 0 && (s.[0] = '{' || s.[0] = '"') ->
    Nested.Syntax.of_string s

let record_format t =
  match t.store.Storage.Kv.get meta_recfmt with
  | Some "B" -> `Binary
  | Some _ | None -> `Syntax

let encode_record t v =
  match record_format t with
  | `Binary -> Value_codec.encode t.dict v
  | `Syntax -> Value_codec.encode_syntax v

let internal_put_record t record_id v =
  t.store.Storage.Kv.put (record_key record_id) (encode_record t v)

let dict t = t.dict

let record_value t record_id =
  match t.store.Storage.Kv.get (record_key record_id) with
  | None -> raise (Malformed (Printf.sprintf "record %d not stored" record_id))
  | Some s when s = deleted_marker ->
    raise (Malformed (Printf.sprintf "record %d was deleted" record_id))
  | Some s -> decode_record t s

let record_value_opt t record_id =
  match t.store.Storage.Kv.get (record_key record_id) with
  | None -> raise (Malformed (Printf.sprintf "record %d not stored" record_id))
  | Some s when s = deleted_marker -> None
  | Some s -> Some (decode_record t s)

let iter_records t f =
  for i = 0 to record_count t - 1 do
    match record_value_opt t i with
    | Some v -> f i v
    | None -> ()
  done

let top_atoms t =
  match t.store.Storage.Kv.get meta_topk with
  | None -> []
  | Some payload ->
    let r = Storage.Codec.reader payload in
    let n = Storage.Codec.read_varint r in
    let out = ref [] in
    for _ = 1 to n do
      let a = Storage.Codec.read_string r in
      let c = Storage.Codec.read_varint r in
      out := (a, c) :: !out
    done;
    List.rev !out

let attach_cache t c =
  t.cache <- Some c;
  if Cache.policy c = Cache.Static then begin
    let budget = Cache.capacity c in
    let hot = List.filteri (fun i _ -> i < budget) (top_atoms t) in
    Cache.preload c (List.map (fun (a, _) -> (a, lookup_from_store t a)) hot)
  end

let detach_cache t = t.cache <- None
let cache t = t.cache
let lookup_stats t = t.lookup_stats

let internal_set_counts t ~roots ~atom_count ~node_count =
  t.roots <- roots;
  t.atom_count <- atom_count;
  t.node_count <- node_count

let internal_invalidate_atom t a =
  match t.cache with None -> () | Some c -> Cache.remove c a

let internal_reset_node_table t =
  t.all_nodes <- None

let put_roots_and_counts store ~roots ~atom_count ~node_count =
  store.Storage.Kv.put meta_roots (Storage.Codec.encode_int_array roots);
  let w = Storage.Codec.writer () in
  Storage.Codec.write_varint w atom_count;
  Storage.Codec.write_varint w node_count;
  store.Storage.Kv.put meta_counts (Storage.Codec.contents w)

let internal_write_meta t =
  put_roots_and_counts t.store ~roots:t.roots ~atom_count:t.atom_count
    ~node_count:t.node_count

let top_k = 4096

(* The [top_k] entries of [lengths] by descending length, then atom. *)
let top_of lengths =
  let by_len =
    List.sort
      (fun (a1, c1) (a2, c2) ->
        let c = Int.compare c2 c1 in
        if c <> 0 then c else String.compare a1 a2)
      lengths
  in
  List.filteri (fun i _ -> i < top_k) by_len

let write_meta store ~roots ~atom_count ~node_count ~lengths =
  put_roots_and_counts store ~roots ~atom_count ~node_count;
  let top = top_of lengths in
  let w = Storage.Codec.writer () in
  Storage.Codec.write_varint w (List.length top);
  List.iter
    (fun (a, c) ->
      Storage.Codec.write_string w a;
      Storage.Codec.write_varint w c)
    top;
  store.Storage.Kv.put meta_topk (Storage.Codec.contents w)

let refresh t =
  let roots, atom_count, node_count = read_meta t.store in
  t.roots <- roots;
  t.atom_count <- atom_count;
  t.node_count <- node_count;
  t.all_nodes <- None;
  Dict.reset t.dict;
  match t.cache with None -> () | Some c -> Cache.clear c

let tree_of t record_id value =
  Nested.Tree.of_value (Nested.Tree.allocator_from t.roots.(record_id)) ~record_id value

let record_tree t record_id = tree_of t record_id (record_value t record_id)

let record_tree_opt t record_id =
  Option.map (tree_of t record_id) (record_value_opt t record_id)

let subtree_value t id =
  let root = root_of_node t id in
  let tree = record_tree t (record_of_root t root) in
  Nested.Tree.subtree_value tree id
