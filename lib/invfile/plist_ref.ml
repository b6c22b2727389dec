(* Reference implementations of the inverted-list set operations, kept as
   the oracle for the differential test suite (test/test_kernels.ml).

   This module is a frozen copy of the pre-blocked Plist kernels: plain
   sorted-merge / binary-search algorithms over materialized arrays, with
   no galloping and no block skipping. Plist_stream must agree with it
   byte-for-byte on every input; do not "improve" these — their
   obviousness is the point. *)

type posting = {
  node : int;
  children : int array;
  leaf_count : int;
  post : int;
  parent : int;
}

type t = posting array

let row l i =
  {
    node = Plist.node l i;
    children = Plist.children l i;
    leaf_count = Plist.leaf_count l i;
    post = Plist.post l i;
    parent = Plist.parent l i;
  }

let of_plist l = Array.init (Plist.length l) (row l)

let to_plist (a : t) =
  Plist.build (fun b ->
      Array.iteri
        (fun i p ->
          if i > 0 && a.(i - 1).node >= p.node then
            invalid_arg "Plist_ref.to_plist: node ids not strictly increasing";
          Plist.Buf.add b ~node:p.node ~leaf_count:p.leaf_count ~post:p.post
            ~parent:p.parent;
          Array.iter (Plist.Buf.add_child b) p.children)
        a)

let lower_bound (l : t) id =
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if l.(mid).node < id then bsearch (mid + 1) hi else bsearch lo mid
  in
  bsearch 0 (Array.length l)

let find (l : t) id =
  let i = lower_bound l id in
  if i < Array.length l && l.(i).node = id then Some l.(i) else None

let mem l id = Option.is_some (find l id)

let inter (a : t) (b : t) : t =
  (* Sorted merge; per-element binary search when one side is much smaller. *)
  let la = Array.length a and lb = Array.length b in
  let small, big = if la <= lb then (a, b) else (b, a) in
  if Array.length small * 16 < Array.length big then
    Array.of_list
      (Array.to_list small
      |> List.filter (fun p -> mem big p.node))
  else begin
    let out = ref [] and i = ref 0 and j = ref 0 in
    while !i < la && !j < lb do
      let c = Int.compare a.(!i).node b.(!j).node in
      if c = 0 then begin
        out := a.(!i) :: !out;
        incr i;
        incr j
      end
      else if c < 0 then incr i
      else incr j
    done;
    Array.of_list (List.rev !out)
  end

let union (a : t) (b : t) : t =
  let out = ref [] and i = ref 0 and j = ref 0 in
  let la = Array.length a and lb = Array.length b in
  while !i < la && !j < lb do
    let c = Int.compare a.(!i).node b.(!j).node in
    if c <= 0 then begin
      out := a.(!i) :: !out;
      if c = 0 then incr j;
      incr i
    end
    else begin
      out := b.(!j) :: !out;
      incr j
    end
  done;
  while !i < la do
    out := a.(!i) :: !out;
    incr i
  done;
  while !j < lb do
    out := b.(!j) :: !out;
    incr j
  done;
  Array.of_list (List.rev !out)

let inter_many = function
  | [] -> invalid_arg "inter_many: empty intersection is the node universe"
  | first :: rest ->
    let sorted =
      List.sort
        (fun a b -> Int.compare (Array.length a) (Array.length b))
        (first :: rest)
    in
    (match sorted with
    | [] -> assert false
    | hd :: tl -> List.fold_left inter hd tl)

let union_with_counts (lists : t list) =
  let all = Array.concat lists in
  Array.sort (fun a b -> Int.compare a.node b.node) all;
  let out = ref [] in
  let n = Array.length all in
  let i = ref 0 in
  while !i < n do
    let p = all.(!i) in
    let j = ref (!i + 1) in
    while !j < n && all.(!j).node = p.node do incr j done;
    out := (p, !j - !i) :: !out;
    i := !j
  done;
  Array.of_list (List.rev !out)

let restrict (l : t) ids : t =
  let nl = Array.length l and ni = Array.length ids in
  let out = ref [] and i = ref 0 and j = ref 0 in
  while !i < nl && !j < ni do
    let c = Int.compare l.(!i).node ids.(!j) in
    if c = 0 then begin
      out := l.(!i) :: !out;
      incr i;
      incr j
    end
    else if c < 0 then incr i
    else incr j
  done;
  Array.of_list (List.rev !out)
