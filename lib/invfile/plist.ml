type t = Posting.t array

let empty = [||]
let is_empty l = Array.length l = 0
let length = Array.length

let of_list postings =
  let a = Array.of_list (List.sort Posting.compare postings) in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1).Posting.node = a.(i).Posting.node then
      invalid_arg "Plist.of_list: duplicate node id"
  done;
  a

let nodes l = Array.map (fun p -> p.Posting.node) l

(* Index of the first posting with node id >= [id], or [length l]. *)
let lower_bound l id =
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if l.(mid).Posting.node < id then bsearch (mid + 1) hi else bsearch lo mid
  in
  bsearch 0 (Array.length l)

let find l id =
  let i = lower_bound l id in
  if i < Array.length l && l.(i).Posting.node = id then Some l.(i) else None

let mem l id = Option.is_some (find l id)

(* Index of the first posting with node id >= [id], probing exponentially
   from [lo] before binary-searching the bracketed range — O(log gap)
   rather than O(log n), so a scan that advances monotonically through a
   long list pays for the distance it actually covers. *)
let gallop_lower_bound l ~lo id =
  let n = Array.length l in
  if lo >= n || l.(lo).Posting.node >= id then lo
  else begin
    (* invariant: l.(last).node < id *)
    let last = ref lo and step = ref 1 in
    let hi = ref (lo + 1) in
    while !hi < n && l.(!hi).Posting.node < id do
      last := !hi;
      step := !step * 2;
      hi := lo + !step
    done;
    let rec bsearch lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if l.(mid).Posting.node < id then bsearch (mid + 1) hi else bsearch lo mid
    in
    bsearch (!last + 1) (min !hi n)
  end

let filter f l = Array.of_list (List.filter f (Array.to_list l))

let filter_leaf_count_eq n l = filter (fun p -> p.Posting.leaf_count = n) l
let filter_leaf_count_ge n l = filter (fun p -> p.Posting.leaf_count >= n) l

(* --- path lists --- *)

type path = { head : int; cur : Posting.t }
type paths = path array

let paths_of_candidates l = Array.map (fun p -> { head = p.Posting.node; cur = p }) l

let compare_path a b =
  let c = Int.compare a.head b.head in
  if c <> 0 then c else Int.compare a.cur.Posting.node b.cur.Posting.node

let sort_dedup_paths l =
  let a = Array.of_list l in
  Array.sort compare_path a;
  let n = Array.length a in
  if n <= 1 then a
  else begin
    let out = ref [] in
    for i = n - 1 downto 0 do
      if i = 0 || compare_path a.(i - 1) a.(i) <> 0 then out := a.(i) :: !out
    done;
    Array.of_list !out
  end

let heads (p : paths) =
  Array.to_list p
  |> List.map (fun { head; _ } -> head)
  |> List.sort_uniq Int.compare
  |> Array.of_list

let join_child (ps : paths) l : paths =
  let out = ref [] in
  Array.iter
    (fun { head; cur } ->
      Array.iter
        (fun child ->
          match find l child with
          | Some p' -> out := { head; cur = p' } :: !out
          | None -> ())
        cur.Posting.children)
    ps;
  sort_dedup_paths !out

let join_descendant (ps : paths) l : paths =
  let out = ref [] in
  Array.iter
    (fun { head; cur } ->
      let i = ref (lower_bound l (cur.Posting.node + 1)) in
      let continue = ref true in
      while !continue && !i < Array.length l do
        let p' = l.(!i) in
        if p'.Posting.post < cur.Posting.post then begin
          out := { head; cur = p' } :: !out;
          incr i
        end
        else continue := false
        (* first non-descendant with a larger id: everything after is
           outside the subtree too (pre/post discipline) *)
      done)
    ps;
  sort_dedup_paths !out

(* --- head sets --- *)

type idset = (int * int * int) array (* (id, post, parent), sorted by id *)

let idset_empty : idset = [||]

let idset_of_postings l =
  Array.map (fun p -> (p.Posting.node, p.Posting.post, p.Posting.parent)) l

let idset_nodes h = Array.map (fun (id, _, _) -> id) h
let idset_parents h =
  Array.to_list h
  |> List.filter_map (fun (_, _, parent) -> if parent >= 0 then Some parent else None)
  |> List.sort_uniq Int.compare
let idset_is_empty h = Array.length h = 0
let idset_cardinal = Array.length

let idset_id (id, _, _) = id
let idset_post (_, post, _) = post

let idset_lower_bound (h : idset) id =
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if idset_id h.(mid) < id then bsearch (mid + 1) hi else bsearch lo mid
  in
  bsearch 0 (Array.length h)

let idset_mem h id =
  let i = idset_lower_bound h id in
  i < Array.length h && idset_id h.(i) = id

let covers_child p h =
  Array.exists (fun c -> idset_mem h c) p.Posting.children

let covers_descendant p h =
  let i = idset_lower_bound h (p.Posting.node + 1) in
  i < Array.length h && idset_post h.(i) < p.Posting.post

let idset_to_bytes (h : idset) =
  let w = Storage.Codec.writer () in
  Storage.Codec.write_varint w (Array.length h);
  let prev = ref (-1) in
  Array.iter
    (fun (id, post, parent) ->
      Storage.Codec.write_varint w (id - !prev - 1);
      Storage.Codec.write_varint w post;
      Storage.Codec.write_varint w (if parent < 0 then 0 else id - parent);
      prev := id)
    h;
  Storage.Codec.contents w

let idset_of_bytes s : idset =
  let r = Storage.Codec.reader s in
  let n = Storage.Codec.read_varint r in
  let a = Array.make (max n 1) (0, 0, -1) in
  let prev = ref (-1) in
  for i = 0 to n - 1 do
    let id = !prev + 1 + Storage.Codec.read_varint r in
    let post = Storage.Codec.read_varint r in
    let gap = Storage.Codec.read_varint r in
    prev := id;
    a.(i) <- (id, post, if gap = 0 then -1 else id - gap)
  done;
  if n = 0 then [||] else a

let pp ppf l =
  Format.fprintf ppf "⟨%a⟩"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") Posting.pp)
    (Array.to_list l)

let pp_paths ppf ps =
  Format.fprintf ppf "⟨%a⟩"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf { head; cur } -> Format.fprintf ppf "(%d→%a)" head Posting.pp cur))
    (Array.to_list ps)

(* --- serialization ---

   Payloads carry a one-byte format tag: 'V' = varint/delta,
   'C' = block-partitioned compressed (see Plist_blocks; the default).
   'B' belonged to the retired columnar bitpacked codec and is refused
   by name, so an old store points at its migration path. *)

type codec = Varint | Blocked

let encode w l =
  Storage.Codec.write_varint w (Array.length l);
  let prev = ref (-1) in
  Array.iter
    (fun p ->
      Posting.encode w p ~prev_node:!prev;
      prev := p.Posting.node)
    l

let decode r =
  let n = Storage.Codec.read_varint r in
  if n = 0 then [||]
  else begin
    (* explicit loop: the decode order must be sequential *)
    let prev = ref (-1) in
    let first = Posting.decode r ~prev_node:!prev in
    prev := first.Posting.node;
    let a = Array.make n first in
    for i = 1 to n - 1 do
      let p = Posting.decode r ~prev_node:!prev in
      prev := p.Posting.node;
      a.(i) <- p
    done;
    a
  end

let to_bytes ?(codec = Blocked) l =
  match codec with
  | Varint ->
    let w = Storage.Codec.writer () in
    Storage.Codec.write_varint w (Char.code 'V');
    encode w l;
    Storage.Codec.contents w
  | Blocked -> "C" ^ Plist_blocks.encode l

let codec_of_bytes s =
  if String.length s = 0 then raise (Storage.Codec.Corrupt "Plist: empty payload")
  else
    match s.[0] with
    | 'V' -> Varint
    | 'B' -> raise (Storage.Codec.Corrupt "Plist: retired bitpacked codec ('B')")
    | 'C' -> Blocked
    | _ -> raise (Storage.Codec.Corrupt "Plist: unknown payload format")

let of_bytes s =
  match codec_of_bytes s with
  | Varint ->
    let r = Storage.Codec.reader s in
    let tag = Storage.Codec.read_varint r in
    assert (tag = Char.code 'V');
    decode r
  | Blocked -> Plist_blocks.decode (Plist_blocks.directory s ~pos:1)

let restrict l ids =
  let nl = Array.length l and ni = Array.length ids in
  let out = ref [] and i = ref 0 and j = ref 0 in
  while !i < nl && !j < ni do
    let c = Int.compare l.(!i).Posting.node ids.(!j) in
    if c = 0 then begin
      out := l.(!i) :: !out;
      incr i;
      incr j
    end
    else if c < 0 then incr i
    else incr j
  done;
  Array.of_list (List.rev !out)
