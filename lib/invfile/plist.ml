(* Decoded postings lists as int columns.

   Row i of a list is the posting of node [node.(i)]: its leaf count,
   post rank and parent sit at index i of their columns, and its internal
   children are kids.(coff.(i)) .. kids.(coff.(i + 1) - 1). Columns may
   be longer than [len] (a list shares the arrays of the buffer that
   built it); only the first [len] rows count. A list holds no boxed
   value, so building one never moves a young block to the major heap
   and decoding a long list costs no minor collection. *)

type t = {
  len : int;
  node : int array;
  leaf_count : int array;
  post : int array;
  parent : int array;
  coff : int array;  (* len + 1 offsets into [kids]; coff.(0) = 0 *)
  kids : int array;
}

let empty =
  { len = 0; node = [||]; leaf_count = [||]; post = [||]; parent = [||];
    coff = [| 0 |]; kids = [||] }

let length l = l.len
let is_empty l = l.len = 0
let node l i = l.node.(i)
let leaf_count l i = l.leaf_count.(i)
let post l i = l.post.(i)
let parent l i = l.parent.(i)
let n_children l i = l.coff.(i + 1) - l.coff.(i)
let child l i k = l.kids.(l.coff.(i) + k)
let children l i = Array.sub l.kids l.coff.(i) (n_children l i)
let nodes l = Array.sub l.node 0 l.len

(* --- building --- *)

module Buf = struct
  type plist = t

  (* Rows [0, filled) of [cols] are written; [cols.len] is unused until
     [contents] stamps it. Growing replaces [cols] by longer copies. *)
  type t = { mutable filled : int; mutable cols : plist }

  let create cap =
    let cap = max 1 cap in
    {
      filled = 0;
      cols =
        {
          len = 0;
          node = Array.make cap 0;
          leaf_count = Array.make cap 0;
          post = Array.make cap 0;
          parent = Array.make cap 0;
          coff = Array.make (cap + 1) 0;
          kids = Array.make cap 0;
        };
    }

  let clear b = b.filled <- 0
  let length b = b.filled

  let resize a n =
    let a' = Array.make n 0 in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  let grow b =
    let c = b.cols in
    let cap = 2 * Array.length c.node in
    b.cols <-
      {
        c with
        node = resize c.node cap;
        leaf_count = resize c.leaf_count cap;
        post = resize c.post cap;
        parent = resize c.parent cap;
        coff = resize c.coff (cap + 1);
      }

  (* Room for [n] children in total. *)
  let reserve_kids b n =
    let c = b.cols in
    if n > Array.length c.kids then
      b.cols <- { c with kids = resize c.kids (max n (2 * Array.length c.kids)) }

  let add b ~node ~leaf_count ~post ~parent =
    let r = b.filled in
    if r = Array.length b.cols.node then grow b;
    let c = b.cols in
    c.node.(r) <- node;
    c.leaf_count.(r) <- leaf_count;
    c.post.(r) <- post;
    c.parent.(r) <- parent;
    c.coff.(r + 1) <- c.coff.(r);
    b.filled <- r + 1

  let add_child b x =
    let k = b.cols.coff.(b.filled) in
    reserve_kids b (k + 1);
    b.cols.kids.(k) <- x;
    b.cols.coff.(b.filled) <- k + 1

  let add_node b (n : Nested.Tree.node) =
    add b ~node:n.Nested.Tree.id ~leaf_count:(Array.length n.Nested.Tree.leaves)
      ~post:n.Nested.Tree.post ~parent:n.Nested.Tree.parent;
    Array.iter (add_child b) n.Nested.Tree.children

  let add_row b (l : plist) i =
    add b ~node:l.node.(i) ~leaf_count:l.leaf_count.(i) ~post:l.post.(i)
      ~parent:l.parent.(i);
    let c0 = l.coff.(i) in
    let n = l.coff.(i + 1) - c0 in
    if n > 0 then begin
      let k = b.cols.coff.(b.filled) in
      reserve_kids b (k + n);
      let kids = b.cols.kids in
      (* rows have a few children: a loop beats the C call of a blit *)
      for j = 0 to n - 1 do
        kids.(k + j) <- l.kids.(c0 + j)
      done;
      b.cols.coff.(b.filled) <- k + n
    end

  let contents b = { b.cols with len = b.filled }

  let copy_out b : plist =
    let c = b.cols and n = b.filled in
    {
      len = n;
      node = Array.sub c.node 0 n;
      leaf_count = Array.sub c.leaf_count 0 n;
      post = Array.sub c.post 0 n;
      parent = Array.sub c.parent 0 n;
      coff = Array.sub c.coff 0 (n + 1);
      kids = Array.sub c.kids 0 c.coff.(n);
    }
end

(* One spare output buffer per domain: kernels and filters append their
   rows to it and copy exactly those rows out, so an output costs its
   own size rather than every doubling step of a fresh growing buffer.
   A buffer grown past [max_spare_rows] is not kept: its columns become
   the output as they are, without the copy. *)
let max_spare_rows = 1 lsl 12

let spare = Domain.DLS.new_key (fun () -> ref None)

let build f =
  let slot = Domain.DLS.get spare in
  let b =
    match !slot with
    | Some b ->
      (* taken, not shared: a [build] nested in [f] makes its own *)
      slot := None;
      Buf.clear b;
      b
    | None -> Buf.create 256
  in
  f b;
  if Array.length b.Buf.cols.node > max_spare_rows then Buf.contents b
  else begin
    let l = Buf.copy_out b in
    slot := Some b;
    l
  end

(* --- searching --- *)

(* Index of the first row with node id >= [id] in [lo, hi). *)
let bsearch (ids : int array) lo hi id =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if ids.(mid) < id then lo := mid + 1 else hi := mid
  done;
  !lo

let lower_bound l id = bsearch l.node 0 l.len id

let find_row l id =
  let i = lower_bound l id in
  if i < l.len && l.node.(i) = id then i else -1

let mem l id = find_row l id >= 0

(* Index of the first of [ids.(lo) .. ids.(n - 1)] that is >= [id] (or
   [n]), probing exponentially from [lo] before binary-searching the
   bracketed range — O(log gap) rather than O(log n), so a scan that
   advances monotonically through a long array pays for the distance it
   actually covers. *)
let gallop (ids : int array) ~n ~lo id =
  if lo >= n || ids.(lo) >= id then lo
  else begin
    (* invariant: ids.(last) < id *)
    let last = ref lo and step = ref 1 in
    let hi = ref (lo + 1) in
    while !hi < n && ids.(!hi) < id do
      last := !hi;
      step := !step * 2;
      hi := lo + !step
    done;
    bsearch ids (!last + 1) (min !hi n) id
  end

let gallop_lower_bound l ~lo id = gallop l.node ~n:l.len ~lo id

(* --- filters --- *)

let filter f l =
  build (fun b ->
      for i = 0 to l.len - 1 do
        if f i then Buf.add_row b l i
      done)

let filter_leaf_count_eq n l = filter (fun i -> l.leaf_count.(i) = n) l
let filter_leaf_count_ge n l = filter (fun i -> l.leaf_count.(i) >= n) l

(* A merge that gallops whichever side is behind, so it costs
   O(k · log gap) for k matches, whichever of the two is shorter. *)
let restrict l ids =
  build (fun b ->
      let ni = l.len and nj = Array.length ids in
      let i = ref 0 and j = ref 0 in
      while !i < ni && !j < nj do
        let a = l.node.(!i) and c = ids.(!j) in
        if a = c then begin
          Buf.add_row b l !i;
          incr i;
          incr j
        end
        else if a < c then i := gallop l.node ~n:ni ~lo:!i c
        else j := gallop ids ~n:nj ~lo:!j a
      done)

let merge a c =
  build (fun b ->
      let i = ref 0 and j = ref 0 in
      while !i < a.len || !j < c.len do
        if !j >= c.len || (!i < a.len && a.node.(!i) < c.node.(!j)) then begin
          Buf.add_row b a !i;
          incr i
        end
        else if !i >= a.len || c.node.(!j) < a.node.(!i) then begin
          Buf.add_row b c !j;
          incr j
        end
        else invalid_arg "Plist.merge: lists share a node id"
      done)

(* --- growable int columns (paths and parent sets) ---

   They start small and double, so keeping a handful of entries of a
   long input allocates for the handful. *)

let initial_capacity n = min n 16

module Ints = struct
  type t = { mutable a : int array; mutable n : int }

  let create cap = { a = Array.make (max 1 cap) 0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then t.a <- Buf.resize t.a (2 * t.n);
    t.a.(t.n) <- x;
    t.n <- t.n + 1
end

(* --- path lists --- *)

(* Path k is (heads.(k), row rows.(k) of src); every path of a list
   points into the same candidate list, sorted by (head, node). *)
type paths = { src : t; heads : int array; rows : int array; count : int }

let paths_of_candidates l =
  { src = l; heads = nodes l; rows = Array.init l.len Fun.id; count = l.len }

let path_count ps = ps.count
let path_head ps k = ps.heads.(k)
let path_row ps k = ps.rows.(k)
let path_list ps = ps.src
let path_node ps k = ps.src.node.(ps.rows.(k))

(* Paths are sorted by head, so the distinct heads are the run starts. *)
let heads ps =
  let out = Ints.create (initial_capacity ps.count) in
  for k = 0 to ps.count - 1 do
    if k = 0 || ps.heads.(k - 1) <> ps.heads.(k) then Ints.push out ps.heads.(k)
  done;
  Array.sub out.Ints.a 0 out.Ints.n

(* The (head, row) pairs of [hs]/[rs] as a path list over [src]: sorted
   by (head, row) — row order is node order — without duplicates. Join
   output is usually sorted already, which one pass confirms. *)
let paths_of_pairs src (hs : Ints.t) (rs : Ints.t) =
  let n = hs.Ints.n and h = hs.Ints.a and r = rs.Ints.a in
  let cmp a b =
    let c = Int.compare h.(a) h.(b) in
    if c <> 0 then c else Int.compare r.(a) r.(b)
  in
  let sorted = ref true in
  for k = 1 to n - 1 do
    if cmp (k - 1) k >= 0 then sorted := false
  done;
  if !sorted then { src; heads = Array.sub h 0 n; rows = Array.sub r 0 n; count = n }
  else begin
    let idx = Array.init n Fun.id in
    Array.sort cmp idx;
    let heads = Ints.create n and rows = Ints.create n in
    Array.iteri
      (fun k x ->
        if k = 0 || cmp idx.(k - 1) x <> 0 then begin
          Ints.push heads h.(x);
          Ints.push rows r.(x)
        end)
      idx;
    { src; heads = heads.Ints.a; rows = rows.Ints.a; count = heads.Ints.n }
  end

let join_child ps l =
  let hs = Ints.create (initial_capacity ps.count) in
  let rs = Ints.create (initial_capacity ps.count) in
  let src = ps.src in
  for k = 0 to ps.count - 1 do
    let r = ps.rows.(k) in
    for c = src.coff.(r) to src.coff.(r + 1) - 1 do
      let j = find_row l src.kids.(c) in
      if j >= 0 then begin
        Ints.push hs ps.heads.(k);
        Ints.push rs j
      end
    done
  done;
  paths_of_pairs l hs rs

let join_descendant ps l =
  let hs = Ints.create (initial_capacity ps.count) in
  let rs = Ints.create (initial_capacity ps.count) in
  let src = ps.src in
  for k = 0 to ps.count - 1 do
    let r = ps.rows.(k) in
    let i = ref (lower_bound l (src.node.(r) + 1)) in
    (* the first non-descendant with a larger id ends the subtree: all
       later ids are outside it too (pre/post discipline) *)
    while !i < l.len && l.post.(!i) < src.post.(r) do
      Ints.push hs ps.heads.(k);
      Ints.push rs !i;
      incr i
    done
  done;
  paths_of_pairs l hs rs

let filter_paths f ps =
  let hs = Ints.create (initial_capacity ps.count) in
  let rs = Ints.create (initial_capacity ps.count) in
  for k = 0 to ps.count - 1 do
    if f k then begin
      Ints.push hs ps.heads.(k);
      Ints.push rs ps.rows.(k)
    end
  done;
  { src = ps.src; heads = hs.Ints.a; rows = rs.Ints.a; count = hs.Ints.n }

(* --- head sets --- *)

(* Three columns sorted by id. *)
type idset = { size : int; ids : int array; posts : int array; parents : int array }

let idset_empty = { size = 0; ids = [||]; posts = [||]; parents = [||] }

let idset_of_rows l rows =
  {
    size = Array.length rows;
    ids = Array.map (fun r -> l.node.(r)) rows;
    posts = Array.map (fun r -> l.post.(r)) rows;
    parents = Array.map (fun r -> l.parent.(r)) rows;
  }

(* Matching row indices, in a per-domain array kept at the longest list
   filtered so far; taken out of its slot while in use. *)
let spare_rows = Domain.DLS.new_key (fun () -> ref [||])

let idset_filter f l =
  let slot = Domain.DLS.get spare_rows in
  let rows = if Array.length !slot >= l.len then !slot else Array.make l.len 0 in
  slot := [||];
  let n = ref 0 in
  for i = 0 to l.len - 1 do
    if f i then begin
      rows.(!n) <- i;
      incr n
    end
  done;
  slot := rows;
  if !n = 0 then idset_empty
  else begin
    let ids = Array.make !n 0 and posts = Array.make !n 0 and parents = Array.make !n 0 in
    for k = 0 to !n - 1 do
      let r = rows.(k) in
      ids.(k) <- l.node.(r);
      posts.(k) <- l.post.(r);
      parents.(k) <- l.parent.(r)
    done;
    { size = !n; ids; posts; parents }
  end

let idset_nodes h = Array.sub h.ids 0 h.size

let idset_parents h =
  let ps = Ints.create (initial_capacity h.size) in
  for i = 0 to h.size - 1 do
    if h.parents.(i) >= 0 then Ints.push ps h.parents.(i)
  done;
  let a = Array.sub ps.Ints.a 0 ps.Ints.n in
  Array.sort Int.compare a;
  let out = Ints.create (Array.length a) in
  Array.iteri (fun i x -> if i = 0 || a.(i - 1) <> x then Ints.push out x) a;
  Array.sub out.Ints.a 0 out.Ints.n

let idset_is_empty h = h.size = 0
let idset_cardinal h = h.size

let idset_mem h id =
  let i = bsearch h.ids 0 h.size id in
  i < h.size && h.ids.(i) = id

let rec any_child_in l h k stop = k < stop && (idset_mem h l.kids.(k) || any_child_in l h (k + 1) stop)

let covers_child l i h = any_child_in l h l.coff.(i) l.coff.(i + 1)

let covers_descendant l i h =
  let j = bsearch h.ids 0 h.size (l.node.(i) + 1) in
  j < h.size && h.posts.(j) < l.post.(i)

let idset_to_bytes h =
  let w = Storage.Codec.writer () in
  Storage.Codec.write_varint w h.size;
  for i = 0 to h.size - 1 do
    let id = h.ids.(i) and parent = h.parents.(i) in
    Storage.Codec.write_varint w (id - (if i = 0 then -1 else h.ids.(i - 1)) - 1);
    Storage.Codec.write_varint w h.posts.(i);
    Storage.Codec.write_varint w (if parent < 0 then 0 else id - parent)
  done;
  Storage.Codec.contents w

let corrupt msg = raise (Storage.Codec.Corrupt ("Plist: " ^ msg))

let idset_of_bytes s =
  let r = Storage.Codec.reader s in
  let n = Storage.Codec.read_varint r in
  (* three varints of at least one byte each per member *)
  if n > Storage.Codec.remaining r / 3 then corrupt "head set longer than its payload";
  let ids = Array.make n 0 and posts = Array.make n 0 and parents = Array.make n 0 in
  let prev = ref (-1) in
  for i = 0 to n - 1 do
    let id = !prev + 1 + Storage.Codec.read_varint r in
    let post = Storage.Codec.read_varint r in
    let gap = Storage.Codec.read_varint r in
    prev := id;
    ids.(i) <- id;
    posts.(i) <- post;
    parents.(i) <- (if gap = 0 then -1 else id - gap)
  done;
  { size = n; ids; posts; parents }

(* --- serialization ---

   Payloads carry a one-byte format tag: 'V' = varint/delta,
   'C' = block-partitioned compressed (see Plist_blocks). [to_bytes]
   picks the tag from the list's length: a list of at most one block
   gains nothing from a skip directory and is written 'V', a longer one
   'C'. 'B' belonged to the retired columnar bitpacked codec and is refused
   by name, so an old store points at its migration path.

   A row is encoded as: node gap (omitted when the node id is carried
   out of band, as by a bitmap block), leaf count, post rank, parent gap
   (node - parent; 0 at a record root) and the children as a count then
   gaps. Decoders check every count against the bytes left before
   growing a column for it, and accept only what the encoder writes, so
   a payload that decodes re-encodes to its own bytes. *)

type codec = Varint | Blocked

module C = Storage.Codec

let encode_aux w l i =
  C.write_varint w l.leaf_count.(i);
  C.write_varint w l.post.(i);
  (* parents precede their children in pre-order, so node - parent ≥ 1;
     roots (parent = -1) encode as gap 0 *)
  let p = l.parent.(i) in
  C.write_varint w (if p < 0 then 0 else l.node.(i) - p);
  let c0 = l.coff.(i) and c1 = l.coff.(i + 1) in
  C.write_varint w (c1 - c0);
  let prev = ref (-1) in
  for k = c0 to c1 - 1 do
    let x = l.kids.(k) in
    if x <= !prev then invalid_arg "Plist: children not strictly increasing";
    C.write_varint w (x - !prev - 1);
    prev := x
  done

let encode_row w l i ~prev_node =
  C.write_varint w (l.node.(i) - prev_node - 1);
  encode_aux w l i

(* Appends the row of [node] whose other fields [r] holds. *)
let decode_aux r (b : Buf.t) ~node =
  let leaf_count = C.read_varint r in
  let post = C.read_varint r in
  let gap = C.read_varint r in
  if gap > node then corrupt "parent precedes the first node";
  Buf.add b ~node ~leaf_count ~post ~parent:(if gap = 0 then -1 else node - gap);
  let n = C.read_varint r in
  if n > C.remaining r then corrupt "children count exceeds the payload";
  if n > 0 then begin
    let k0 = b.Buf.cols.coff.(b.Buf.filled) in
    Buf.reserve_kids b (k0 + n);
    let kids = b.Buf.cols.kids in
    let prev = ref (-1) in
    for k = k0 to k0 + n - 1 do
      let x = !prev + 1 + C.read_varint r in
      if x <= !prev then corrupt "child id overflows";
      kids.(k) <- x;
      prev := x
    done;
    b.Buf.cols.coff.(b.Buf.filled) <- k0 + n
  end

(* Appends the next delta-coded row; returns its node id. *)
let decode_row r b ~prev_node =
  let node = prev_node + 1 + C.read_varint r in
  if node <= prev_node then corrupt "node id overflows";
  decode_aux r b ~node;
  node

(* Node gap, leaf count, post, parent gap and children count: a row
   takes at least five bytes. *)
let min_row_bytes = 5

let read_varint_count r =
  let n = C.read_varint r in
  if n > C.remaining r / min_row_bytes then corrupt "list longer than its payload";
  n

(* --- 'C' block bodies --- *)

module B = Plist_blocks

(* The block of positions [lo, hi), position k being row [row k]. *)
let encode_block l ~row ~lo ~hi : B.block =
  let count = hi - lo in
  let bmin = l.node.(row lo) and bmax = l.node.(row (hi - 1)) in
  let range = bmax - bmin + 1 in
  let body = C.writer () in
  let as_bitmap = B.dense ~range ~count in
  if as_bitmap then begin
    let bits = Bytes.make ((range + 7) / 8) '\000' in
    for k = lo to hi - 1 do
      let bit = l.node.(row k) - bmin in
      Bytes.set bits (bit / 8)
        (Char.chr (Char.code (Bytes.get bits (bit / 8)) lor (1 lsl (bit mod 8))))
    done;
    C.write_raw body (Bytes.to_string bits);
    for k = lo to hi - 1 do
      encode_aux body l (row k)
    done
  end
  else begin
    let prev = ref (bmin - 1) in
    for k = lo to hi - 1 do
      let i = row k in
      encode_row body l i ~prev_node:!prev;
      prev := l.node.(i)
    done
  end;
  { B.bmin; bmax; count; as_bitmap; body = C.contents body }

(* Appends block [i] of [d] to [b], validating span, count and (for
   bitmap blocks) popcount, and that the body is consumed exactly. *)
let decode_block_into d i (b : Buf.t) =
  let start = b.Buf.filled in
  let count = B.block_count d i in
  let bmin = B.block_min d i and bmax = B.block_max d i in
  let payload = B.payload d and pos = B.body_pos d i and len = B.body_len d i in
  let r =
    if B.is_bitmap d i then begin
      let nbytes = (bmax - bmin + 8) / 8 in
      if nbytes > len then corrupt "bitmap larger than block body";
      let aux = C.reader_sub payload ~pos:(pos + nbytes) ~len:(len - nbytes) in
      for byte_i = 0 to nbytes - 1 do
        let byte = Char.code payload.[pos + byte_i] in
        if byte <> 0 then
          for bit = 0 to 7 do
            if byte land (1 lsl bit) <> 0 then begin
              let node = bmin + (byte_i * 8) + bit in
              if node > bmax then corrupt "bitmap bit outside block span";
              if b.Buf.filled - start >= count then
                corrupt "bitmap popcount exceeds block count";
              decode_aux aux b ~node
            end
          done
      done;
      if b.Buf.filled - start <> count then
        corrupt "bitmap popcount disagrees with block count";
      aux
    end
    else begin
      let r = C.reader_sub payload ~pos ~len in
      let prev = ref (bmin - 1) in
      for _ = 1 to count do
        prev := decode_row r b ~prev_node:!prev
      done;
      r
    end
  in
  if not (C.at_end r) then corrupt "trailing bytes in a block body";
  let nodes = b.Buf.cols.node in
  if nodes.(start) <> bmin || nodes.(start + count - 1) <> bmax then
    corrupt "block span disagrees with contents"

(* Positions [0, n) cut into blocks of [B.block_size]. *)
let encode_blocks l ~row ~n =
  List.init
    ((n + B.block_size - 1) / B.block_size)
    (fun k ->
      let lo = k * B.block_size in
      encode_block l ~row ~lo ~hi:(min n (lo + B.block_size)))

(* The row count and position k's row: all of [l], or [rows]. *)
let rows_of ?rows l =
  match rows with None -> (l.len, Fun.id) | Some rows -> (Array.length rows, Array.get rows)

let to_bytes ?codec ?rows l =
  let n, row = rows_of ?rows l in
  let codec =
    match codec with
    | Some c -> c
    | None -> if n <= B.block_size then Varint else Blocked
  in
  match codec with
  | Varint ->
    let w = C.writer () in
    C.write_varint w (Char.code 'V');
    C.write_varint w n;
    let prev = ref (-1) in
    for k = 0 to n - 1 do
      let i = row k in
      encode_row w l i ~prev_node:!prev;
      prev := l.node.(i)
    done;
    C.contents w
  | Blocked ->
    let w = C.writer () in
    C.write_raw w "C";
    B.encode w ~total:n (encode_blocks l ~row ~n);
    C.contents w

let codec_of_bytes s =
  if String.length s = 0 then corrupt "empty payload"
  else
    match s.[0] with
    | 'V' -> Varint
    | 'B' -> corrupt "retired bitpacked codec ('B')"
    | 'C' -> Blocked
    | _ -> corrupt "unknown payload format"

let decode s =
  match codec_of_bytes s with
  | Varint ->
    let r = C.reader_sub s ~pos:1 ~len:(String.length s - 1) in
    let n = read_varint_count r in
    let b = Buf.create n in
    let prev = ref (-1) in
    for _ = 1 to n do
      prev := decode_row r b ~prev_node:!prev
    done;
    if not (C.at_end r) then corrupt "trailing bytes after the list";
    Buf.contents b
  | Blocked ->
    let d = B.directory s ~pos:1 in
    let b = Buf.create (B.total d) in
    for i = 0 to B.n_blocks d - 1 do
      decode_block_into d i b
    done;
    Buf.contents b

(* The decoded columns are fresh, so they move in place. *)
let of_bytes ?(offset = 0) s =
  let l = decode s in
  if offset <> 0 then begin
    let move a n =
      for i = 0 to n - 1 do
        a.(i) <- a.(i) + offset
      done
    in
    move l.node l.len;
    move l.post l.len;
    move l.kids l.coff.(l.len);
    for i = 0 to l.len - 1 do
      if l.parent.(i) >= 0 then l.parent.(i) <- l.parent.(i) + offset
    done
  end;
  l

(* --- tail appends ---

   Every writer appends: a fresh record's ids exceed every id already
   stored, and a merge shifts each source's ids past the ones before it.
   Blocks are cut at fixed positions from the head of the list, so
   appending to a blocked list changes only its last block: the full
   blocks before it keep their bytes and directory entries. *)

let payload_length s =
  match codec_of_bytes s with
  | Varint -> read_varint_count (C.reader_sub s ~pos:1 ~len:(String.length s - 1))
  | Blocked -> C.read_varint (C.reader_sub s ~pos:1 ~len:(String.length s - 1))

let append ?rows payload l =
  let n, row = rows_of ?rows l in
  let follows last =
    if n > 0 && l.node.(row 0) <= last then
      invalid_arg "Plist.append: rows do not follow the payload"
  in
  let add_rows b =
    for k = 0 to n - 1 do
      Buf.add_row b l (row k)
    done
  in
  let d =
    match codec_of_bytes payload with
    | Blocked -> Some (B.directory payload ~pos:1)
    | Varint -> None
  in
  match d with
  | Some d when B.n_blocks d > 0 && B.total d + n > B.block_size ->
    let last = B.n_blocks d - 1 in
    follows (B.block_max d last);
    (* a full last block stays; a partial one takes the first new rows *)
    let keep = if B.block_count d last = B.block_size then last + 1 else last in
    let tail = Buf.create (B.block_size + n) in
    if keep = last then decode_block_into d last tail;
    add_rows tail;
    let tail = Buf.contents tail in
    (* the kept bodies, and room for the tail, without a regrowth *)
    let w = C.writer ~size:(String.length payload + (16 * n) + 64) () in
    C.write_raw w "C";
    B.extend w d ~keep ~total:(B.total d + n)
      (encode_blocks tail ~row:Fun.id ~n:tail.len);
    C.contents w
  | Some _ | None ->
    (* one block or fewer, or a legacy long 'V' list: the whole list *)
    let head = of_bytes payload in
    if head.len > 0 then follows head.node.(head.len - 1);
    let b = Buf.create (head.len + n) in
    for i = 0 to head.len - 1 do
      Buf.add_row b head i
    done;
    add_rows b;
    to_bytes (Buf.contents b)
