(* Cursors over postings lists, and the candidate kernels over them.

   Three sources: in-memory arrays (Mem), sequential delta-varint
   payloads ('V', Seq) and block-partitioned compressed payloads ('C',
   Blk). Mem cursors gallop, so a skewed intersection over decoded lists
   costs O(small · log gap). Blk cursors exploit the Plist_blocks
   directory: skip_to binary searches the per-block [min, max] spans and
   decodes only the landing block, so an n-way intersection over skewed
   lists never touches the bytes of skipped blocks.

   Every source keeps its own head position, and the kernels work on
   heads and node ids directly: no option is allocated per posting. An
   exhausted cursor's head is [eof], whose node id (max_int) sorts after
   every real one. *)

type cursor =
  | Mem of { arr : Plist.t; mutable mpos : int }
  | Seq of {
      reader : Storage.Codec.reader;
      mutable prev_node : int;
      mutable left : int;  (* postings not yet decoded *)
      mutable cur : Posting.t;  (* decoded head, or [eof] when none is *)
    }
  | Blk of {
      dir : Plist_blocks.t;
      mutable bi : int;  (* next block to decode *)
      mutable buf : Plist.t;  (* current decoded block *)
      mutable bpos : int;  (* head within [buf] *)
    }

let eof = { Posting.node = max_int; children = [||]; leaf_count = 0; post = 0; parent = -1 }
let is_eof (p : Posting.t) = p.Posting.node = max_int

let cursor_of_bytes payload =
  match Plist.codec_of_bytes payload with
  | Plist.Varint ->
    let reader = Storage.Codec.reader payload in
    let tag = Storage.Codec.read_varint reader in
    assert (tag = Char.code 'V');
    let left = Storage.Codec.read_varint reader in
    Seq { reader; prev_node = -1; left; cur = eof }
  | Plist.Blocked ->
    let dir = Plist_blocks.directory payload ~pos:1 in
    Blk { dir; bi = 0; buf = Plist.empty; bpos = 0 }

let cursor_of_plist l = Mem { arr = l; mpos = 0 }

let remaining = function
  | Mem m -> Array.length m.arr - m.mpos
  | Seq s -> s.left + if is_eof s.cur then 0 else 1
  | Blk b -> Array.length b.buf - b.bpos + Plist_blocks.suffix_count b.dir b.bi

(* The first posting not yet consumed, decoding it if needed. *)
let rec head = function
  | Mem m -> if m.mpos < Array.length m.arr then m.arr.(m.mpos) else eof
  | Seq s ->
    if is_eof s.cur && s.left > 0 then begin
      s.left <- s.left - 1;
      let p = Posting.decode s.reader ~prev_node:s.prev_node in
      s.prev_node <- p.Posting.node;
      s.cur <- p
    end;
    s.cur
  | Blk b as c ->
    if b.bpos < Array.length b.buf then b.buf.(b.bpos)
    else if b.bi < Plist_blocks.n_blocks b.dir then begin
      b.buf <- Plist_blocks.decode_block b.dir b.bi;
      b.bi <- b.bi + 1;
      b.bpos <- 0;
      head c
    end
    else eof

(* Consume the head; only after [head] returned a real posting. *)
let advance = function
  | Mem m -> m.mpos <- m.mpos + 1
  | Seq s -> s.cur <- eof
  | Blk b -> b.bpos <- b.bpos + 1

(* Move the head to the first posting with node >= id and return it.
   Mem positions by galloping; Seq decodes sequentially (delta coding
   admits nothing better); Blk gallops within the current block and
   otherwise binary searches the directory, decoding only the landing
   block. *)
let seek c id =
  match c with
  | Mem m ->
    m.mpos <- Plist.gallop_lower_bound m.arr ~lo:m.mpos id;
    head c
  | Seq s ->
    let rec loop () =
      let p = head c in
      if p.Posting.node >= id then p
      else begin
        s.cur <- eof;
        loop ()
      end
    in
    loop ()
  | Blk b ->
    let blen = Array.length b.buf in
    if b.bpos < blen && b.buf.(blen - 1).Posting.node >= id then begin
      b.bpos <- Plist.gallop_lower_bound b.buf ~lo:b.bpos id;
      b.buf.(b.bpos)
    end
    else begin
      let j = Plist_blocks.find_block b.dir ~start:b.bi id in
      if j >= Plist_blocks.n_blocks b.dir then begin
        b.bi <- Plist_blocks.n_blocks b.dir;
        b.buf <- Plist.empty;
        b.bpos <- 0;
        eof
      end
      else begin
        b.buf <- Plist_blocks.decode_block b.dir j;
        b.bi <- j + 1;
        b.bpos <- Plist.gallop_lower_bound b.buf ~lo:0 id;
        b.buf.(b.bpos)
      end
    end

let peek c =
  let p = head c in
  if is_eof p then None else Some p

let next c =
  let p = head c in
  if is_eof p then None
  else begin
    advance c;
    Some p
  end

let skip_to c id =
  let p = seek c id in
  if is_eof p then None else Some p

(* A fresh cursor over a whole decoded list hands the array back as is
   (lists are never mutated); any other cursor is drained. *)
let drain c =
  match c with
  | Mem { arr; mpos = 0 } -> arr
  | _ ->
    let rec loop acc =
      let p = head c in
      if is_eof p then Array.of_list (List.rev acc)
      else begin
        advance c;
        loop (p :: acc)
      end
    in
    loop []

(* n-way intersection: drive from the shortest list and seek the rest
   to each candidate — galloping on in-memory cursors, block-skipping on
   'C' payloads. *)
let inter_many cursors =
  match cursors with
  | [] -> invalid_arg "inter_many: empty intersection is the node universe"
  | [ c ] -> drain c
  | cursors ->
    let cs = Array.of_list cursors in
    Array.sort (fun a b -> Int.compare (remaining a) (remaining b)) cs;
    let n = Array.length cs in
    let out = ref [] in
    (* cs.(0) .. cs.(i - 1) sit on [target] *)
    let rec align target i =
      if i = n then begin
        out := head cs.(0) :: !out;
        advance cs.(0);
        let p = head cs.(0) in
        if not (is_eof p) then align p.Posting.node 1
      end
      else begin
        let p = seek cs.(i) target in
        if p.Posting.node = target then align target (i + 1)
        else if not (is_eof p) then begin
          (* overshoot: the shortest list jumps to the new candidate *)
          let q = seek cs.(0) p.Posting.node in
          if not (is_eof q) then align q.Posting.node 1
        end
      end
    in
    let p = head cs.(0) in
    if not (is_eof p) then align p.Posting.node 1;
    Array.of_list (List.rev !out)

let union_with_counts cursors =
  let cs = Array.of_list cursors in
  let rec loop acc =
    let node = Array.fold_left (fun m c -> Int.min m (head c).Posting.node) max_int cs in
    if node = max_int then Array.of_list (List.rev acc)
    else begin
      let count = ref 0 and posting = ref eof in
      Array.iter
        (fun c ->
          let p = head c in
          if p.Posting.node = node then begin
            incr count;
            posting := p;
            advance c
          end)
        cs;
      loop ((!posting, !count) :: acc)
    end
  in
  loop []
