let magic = "NSCQBTR1"

type value_ref =
  | Inline of string
  | Overflow of { first_page : int; len : int }

type node =
  | Leaf of { entries : (string * value_ref) array; next : int (* 0 = none *) }
  | Internal of { keys : string array; children : int array }

type t = {
  pager : Pager.t;
  mutable root : int;
  mutable count : int;
  path : string;
}

(* A registry so [range] can recover the B+tree behind a Kv.t handle;
   shared because parallel workers may open handles concurrently. *)
module Reg = Registry.Make (struct
  type nonrec t = t

  let kind = "Btree_store"
end)

(* --- node serialization --- *)

let serialize node =
  let w = Codec.writer () in
  (match node with
  | Leaf { entries; next } ->
    Codec.write_varint w 0;
    Codec.write_varint w next;
    Codec.write_varint w (Array.length entries);
    Array.iter
      (fun (k, v) ->
        Codec.write_string w k;
        match v with
        | Inline s ->
          Codec.write_varint w 0;
          Codec.write_string w s
        | Overflow { first_page; len } ->
          Codec.write_varint w 1;
          Codec.write_varint w first_page;
          Codec.write_varint w len)
      entries
  | Internal { keys; children } ->
    Codec.write_varint w 1;
    Codec.write_varint w (Array.length keys);
    Array.iter (Codec.write_string w) keys;
    Array.iter (fun c -> Codec.write_varint w c) children);
  Codec.contents w

let deserialize s =
  let r = Codec.reader s in
  match Codec.read_varint r with
  | 0 ->
    let next = Codec.read_varint r in
    let n = Codec.read_varint r in
    (* explicit loops: reader side effects must run in sequence *)
    let out = ref [] in
    for _ = 1 to n do
      let k = Codec.read_string r in
      let v =
        match Codec.read_varint r with
        | 0 -> Inline (Codec.read_string r)
        | 1 ->
          let first_page = Codec.read_varint r in
          let len = Codec.read_varint r in
          Overflow { first_page; len }
        | _ -> raise (Codec.Corrupt "bad value tag")
      in
      out := (k, v) :: !out
    done;
    Leaf { entries = Array.of_list (List.rev !out); next }
  | 1 ->
    let n = Codec.read_varint r in
    let keys = Array.make (max n 1) "" in
    for i = 0 to n - 1 do
      keys.(i) <- Codec.read_string r
    done;
    let keys = if n = 0 then [||] else keys in
    let children = Array.make (n + 1) 0 in
    for i = 0 to n do
      children.(i) <- Codec.read_varint r
    done;
    Internal { keys; children }
  | _ -> raise (Codec.Corrupt "bad node tag")

let read_node t page = deserialize (Bytes.to_string (Pager.read_page t.pager page))

let write_node t page node =
  let s = serialize node in
  let ps = Pager.page_size t.pager in
  if String.length s > ps then failwith "Btree_store: node overflows page";
  let buf = Bytes.make ps '\000' in
  Bytes.blit_string s 0 buf 0 (String.length s);
  Pager.write_page t.pager page buf

let append_node t node =
  let page = Pager.page_count t.pager in
  write_node t page node;
  page

let node_fits t node = String.length (serialize node) <= Pager.page_size t.pager

(* --- meta page --- *)

let write_meta t =
  let ps = Pager.page_size t.pager in
  let buf = Bytes.make ps '\000' in
  Bytes.blit_string magic 0 buf 0 8;
  Bytes.set_int64_le buf 8 (Int64.of_int t.root);
  Bytes.set_int64_le buf 16 (Int64.of_int t.count);
  Pager.write_page t.pager 0 buf

let read_meta t =
  let buf = Pager.read_page t.pager 0 in
  if Bytes.sub_string buf 0 8 <> magic then failwith "Btree_store: bad magic";
  t.root <- Int64.to_int (Bytes.get_int64_le buf 8);
  t.count <- Int64.to_int (Bytes.get_int64_le buf 16)

(* --- values --- *)

let inline_threshold t = Pager.page_size t.pager / 4
let max_key_len t = Pager.page_size t.pager / 16

let store_value t s =
  if String.length s <= inline_threshold t then Inline s
  else
    let first_page = Pager.append_blob t.pager s in
    Overflow { first_page; len = String.length s }

let load_value t = function
  | Inline s -> s
  | Overflow { first_page; len } -> Pager.read_blob t.pager ~first_page ~len

(* --- search --- *)

(* Index of the child to descend into for [key]: the first separator
   strictly greater than [key]. *)
let child_index keys key =
  let n = Array.length keys in
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare key keys.(mid) < 0 then bsearch lo mid else bsearch (mid + 1) hi
  in
  bsearch 0 n

let find_entry entries key =
  let n = Array.length entries in
  let rec bsearch lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare key (fst entries.(mid)) in
      if c = 0 then Some mid
      else if c < 0 then bsearch lo mid
      else bsearch (mid + 1) hi
  in
  bsearch 0 n

let rec get_from t page key =
  match read_node t page with
  | Internal { keys; children } -> get_from t children.(child_index keys key) key
  | Leaf { entries; _ } ->
    Option.map (fun i -> load_value t (snd entries.(i))) (find_entry entries key)

(* --- insertion --- *)

type insert_result =
  | Done
  | Split of string * int  (* separator key, page of new right sibling *)

(* Position at which [key] would be inserted to keep [entries] sorted. *)
let insertion_point entries key =
  let n = Array.length entries in
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare key (fst entries.(mid)) <= 0 then bsearch lo mid
      else bsearch (mid + 1) hi
  in
  bsearch 0 n

let array_insert a i x =
  let n = Array.length a in
  Array.init (n + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

let array_remove a i =
  let n = Array.length a in
  Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

let rec insert_into t page key value =
  match read_node t page with
  | Leaf { entries; next } ->
    let entries =
      match find_entry entries key with
      | Some i ->
        t.count <- t.count - 1;
        (* replaced below; old overflow pages, if any, are leaked *)
        Array.mapi (fun j e -> if j = i then (key, value) else e) entries
      | None -> array_insert entries (insertion_point entries key) (key, value)
    in
    t.count <- t.count + 1;
    let node = Leaf { entries; next } in
    if node_fits t node then begin
      write_node t page node;
      Done
    end
    else begin
      let mid = Array.length entries / 2 in
      let left_entries = Array.sub entries 0 mid in
      let right_entries = Array.sub entries mid (Array.length entries - mid) in
      let right_page = append_node t (Leaf { entries = right_entries; next }) in
      write_node t page (Leaf { entries = left_entries; next = right_page });
      Split (fst right_entries.(0), right_page)
    end
  | Internal { keys; children } ->
    let i = child_index keys key in
    (match insert_into t children.(i) key value with
    | Done -> Done
    | Split (sep, right_page) ->
      let keys = array_insert keys i sep in
      let children = array_insert children (i + 1) right_page in
      let node = Internal { keys; children } in
      if node_fits t node then begin
        write_node t page node;
        Done
      end
      else begin
        let nk = Array.length keys in
        let mid = nk / 2 in
        let sep_up = keys.(mid) in
        let left = Internal { keys = Array.sub keys 0 mid; children = Array.sub children 0 (mid + 1) } in
        let right =
          Internal
            { keys = Array.sub keys (mid + 1) (nk - mid - 1);
              children = Array.sub children (mid + 1) (nk - mid) }
        in
        let right_page = append_node t right in
        write_node t page left;
        Split (sep_up, right_page)
      end)

let put t key value =
  if String.length key > max_key_len t then
    invalid_arg "Btree_store.put: key too long";
  let value = store_value t value in
  match insert_into t t.root key value with
  | Done -> ()
  | Split (sep, right_page) ->
    let new_root =
      append_node t (Internal { keys = [| sep |]; children = [| t.root; right_page |] })
    in
    t.root <- new_root

(* --- deletion (lazy: no rebalancing) --- *)

let rec delete_from t page key =
  match read_node t page with
  | Internal { keys; children } -> delete_from t children.(child_index keys key) key
  | Leaf { entries; next } ->
    (match find_entry entries key with
    | None -> false
    | Some i ->
      write_node t page (Leaf { entries = array_remove entries i; next });
      t.count <- t.count - 1;
      true)

(* --- iteration --- *)

let rec leftmost_leaf t page =
  match read_node t page with
  | Leaf _ as l -> (page, l)
  | Internal { children; _ } -> leftmost_leaf t children.(0)

let iter_entries t f =
  let rec walk = function
    | Leaf { entries; next } ->
      Array.iter (fun (k, v) -> f k v) entries;
      if next <> 0 then walk (read_node t next)
    | Internal _ -> failwith "Btree_store.iter: leaf chain reached an internal node"
  in
  let _, leaf = leftmost_leaf t t.root in
  walk leaf

let iter t f = iter_entries t (fun k v -> f k (load_value t v))

(* Leaf containing the first key >= lo, by descent. *)
let rec seek_leaf t page key =
  match read_node t page with
  | Leaf _ as l -> l
  | Internal { keys; children } -> seek_leaf t children.(child_index keys key) key

let range_fold t ~lo ~hi f acc =
  let rec walk acc = function
    | Leaf { entries; next } ->
      let acc = ref acc and stop = ref false in
      Array.iter
        (fun (k, v) ->
          if not !stop then
            if String.compare k hi >= 0 then stop := true
            else if String.compare k lo >= 0 then acc := f !acc k (load_value t v))
        entries;
      if !stop || next = 0 then !acc else walk !acc (read_node t next)
    | Internal _ -> assert false
  in
  walk acc (seek_leaf t t.root lo)

(* --- Kv.t packaging --- *)

let to_kv t =
  let name = "btree:" ^ t.path in
  Reg.put name t;
  {
    Kv.name;
    get = (fun k -> get_from t t.root k);
    put = put t;
    delete = (fun k -> delete_from t t.root k);
    iter = iter t;
    iter_keys = (fun f -> iter_entries t (fun k _ -> f k));
    length = (fun () -> t.count);
    sync =
      (fun () ->
        write_meta t;
        Pager.sync t.pager);
    close =
      (fun () ->
        write_meta t;
        Reg.remove name;
        Pager.close t.pager);
    stats = Pager.stats t.pager;
  }

let create ?page_size ?cache_pages path =
  let pager = Pager.create ?page_size ?cache_pages path in
  let t = { pager; root = 0; count = 0; path } in
  write_meta t;
  let root = append_node t (Leaf { entries = [||]; next = 0 }) in
  t.root <- root;
  write_meta t;
  Io_stats.reset (Pager.stats pager);
  to_kv t

let open_existing ?page_size ?cache_pages path =
  let pager = Pager.open_existing ?page_size ?cache_pages path in
  let t = { pager; root = 0; count = 0; path } in
  read_meta t;
  Io_stats.reset (Pager.stats pager);
  to_kv t

let range kv ~lo ~hi =
  let t = Reg.find kv.Kv.name ~what:"range" in
  List.rev (range_fold t ~lo ~hi (fun acc k v -> (k, v) :: acc) [])
