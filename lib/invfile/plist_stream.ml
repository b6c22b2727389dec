(* Cursors over postings lists, and the candidate kernels over them.

   Three sources: decoded lists (Mem), sequential delta-varint payloads
   ('V', Seq) and block-partitioned compressed payloads ('C', Blk). A
   cursor's head is a row of a columnar list: the decoded list itself for
   Mem, a buffer the cursor owns and refills for the payload sources —
   Blk decodes one block into it at a time, Seq one block-sized chunk.
   Mem cursors gallop, so a skewed intersection over decoded lists costs
   O(small · log gap). Blk cursors exploit the Plist_blocks directory:
   seek binary searches the per-block [min, max] spans and decodes only
   the landing block, so an n-way intersection over skewed lists never
   touches the bytes of skipped blocks.

   The kernels read node ids at the heads and copy matching rows into
   columnar output: no record, option or list cell is allocated per
   posting. An exhausted cursor's head node is [max_int], which sorts
   after every real one.

   A restricted cursor sees only the postings inside a set of sorted,
   disjoint [lo, hi) id ranges: its head and seek jump from range to
   range through the unrestricted seek, so on a 'C' payload the blocks
   between ranges are never decoded. *)

type seq = {
  reader : Storage.Codec.reader;
  mutable prev_node : int;
  mutable left : int;  (* postings not yet decoded *)
  sbuf : Plist.Buf.t;
}

type blk = {
  dir : Plist_blocks.t;
  mutable bi : int;  (* next block to decode *)
  bbuf : Plist.Buf.t;
}

type source = Mem | Seq of seq | Blk of blk

(* Range [i] is [lo.(i), hi.(i)). *)
type ranges = { lo : int array; hi : int array }

let ranges spans =
  let n = Array.length spans in
  Array.iteri
    (fun i (lo, hi) ->
      if lo >= hi || (i > 0 && lo < snd spans.(i - 1)) then
        invalid_arg "Plist_stream.ranges: not sorted, disjoint and non-empty")
    spans;
  { lo = Array.init n (fun i -> fst spans.(i)); hi = Array.init n (fun i -> snd spans.(i)) }

let eof = max_int

(* The head is row [row] of [cols] while [row < length cols]. A
   restricted cursor has passed every range before [ri]; it is exhausted
   once [ri] reaches the range count. A buffered head below [lim] needs
   no range check: [lim] is [eof] on an unrestricted cursor, and on a
   restricted one the end of the range its head was last settled in
   (-1 before that), since heads only grow. *)
type cursor = {
  src : source;
  mutable cols : Plist.t;
  mutable row : int;
  within : ranges option;
  mutable ri : int;
  mutable lim : int;
}

let initial_lim = function None -> eof | Some _ -> -1

(* A 'V' payload ends with its last posting. *)
let check_end reader ~left =
  if left = 0 && not (Storage.Codec.at_end reader) then
    raise (Storage.Codec.Corrupt "Plist: trailing bytes after the list")

let cursor_of_bytes ?within payload =
  match Plist.codec_of_bytes payload with
  | Plist.Varint ->
    let reader =
      Storage.Codec.reader_sub payload ~pos:1 ~len:(String.length payload - 1)
    in
    let left = Plist.read_varint_count reader in
    check_end reader ~left;
    let sbuf = Plist.Buf.create (min left Plist_blocks.block_size) in
    {
      src = Seq { reader; prev_node = -1; left; sbuf };
      cols = Plist.empty;
      row = 0;
      within;
      ri = 0;
      lim = initial_lim within;
    }
  | Plist.Blocked ->
    let dir = Plist_blocks.directory payload ~pos:1 in
    let bbuf = Plist.Buf.create (min (Plist_blocks.total dir) Plist_blocks.block_size) in
    {
      src = Blk { dir; bi = 0; bbuf };
      cols = Plist.empty;
      row = 0;
      within;
      ri = 0;
      lim = initial_lim within;
    }

let cursor_of_plist ?within l =
  { src = Mem; cols = l; row = 0; within; ri = 0; lim = initial_lim within }

let exhausted c =
  match c.within with Some r -> c.ri >= Array.length r.hi | None -> false

let remaining c =
  let buffered = Plist.length c.cols - c.row in
  if exhausted c then 0
  else
    match c.src with
    | Mem -> buffered
    | Seq s -> buffered + s.left
    | Blk b -> buffered + Plist_blocks.suffix_count b.dir b.bi

(* Replace the exhausted buffer with the next chunk: up to a block of
   'V' postings, or block [i] of a 'C' payload. *)
let fill_seq c s =
  Plist.Buf.clear s.sbuf;
  let n = min s.left Plist_blocks.block_size in
  for _ = 1 to n do
    s.prev_node <- Plist.decode_row s.reader s.sbuf ~prev_node:s.prev_node
  done;
  s.left <- s.left - n;
  check_end s.reader ~left:s.left;
  c.cols <- Plist.Buf.contents s.sbuf;
  c.row <- 0

let fill_blk c b i =
  Plist.Buf.clear b.bbuf;
  Plist.decode_block_into b.dir i b.bbuf;
  b.bi <- i + 1;
  c.cols <- Plist.Buf.contents b.bbuf;
  c.row <- 0

(* The node id of the first posting not yet consumed, decoding the next
   chunk if needed; [eof] once exhausted. Ranges are ignored. *)
let rec raw_head c =
  if c.row < Plist.length c.cols then Plist.node c.cols c.row
  else
    match c.src with
    | Mem -> eof
    | Seq s ->
      if s.left = 0 then eof
      else begin
        fill_seq c s;
        raw_head c
      end
    | Blk b ->
      if b.bi >= Plist_blocks.n_blocks b.dir then eof
      else begin
        fill_blk c b b.bi;
        raw_head c
      end

let head_list c = c.cols
let head_row c = c.row

(* Consume the head; only after [head] returned a real node id. *)
let advance c = c.row <- c.row + 1

(* Move the head to the first posting with node >= id and return its
   node id, ignoring ranges. Gallops within the buffered rows when they
   reach [id]; otherwise Mem is exhausted, Seq decodes chunk after chunk
   (delta coding admits nothing better) and Blk binary searches the
   directory, decoding only the landing block. *)
let rec raw_seek c id =
  let len = Plist.length c.cols in
  if c.row < len && Plist.node c.cols (len - 1) >= id then begin
    c.row <- Plist.gallop_lower_bound c.cols ~lo:c.row id;
    Plist.node c.cols c.row
  end
  else begin
    c.row <- len;
    match c.src with
    | Mem -> eof
    | Seq s ->
      if s.left = 0 then eof
      else begin
        fill_seq c s;
        raw_seek c id
      end
    | Blk b ->
      let j = Plist_blocks.find_block b.dir ~start:b.bi id in
      if j >= Plist_blocks.n_blocks b.dir then begin
        b.bi <- j;
        eof
      end
      else begin
        fill_blk c b j;
        c.row <- Plist.gallop_lower_bound c.cols ~lo:0 id;
        Plist.node c.cols c.row
      end
  end

(* The first range at or after [from] that ends above [id] (or the
   range count): a gallop, since a cursor's ranges are passed in order. *)
let next_range r ~from id =
  let n = Array.length r.hi in
  if from >= n || r.hi.(from) > id then from
  else begin
    (* invariant: hi.(lo) <= id, and hi.(up) > id unless up = n *)
    let lo = ref from and step = ref 1 in
    while !lo + !step < n && r.hi.(!lo + !step) <= id do
      lo := !lo + !step;
      step := 2 * !step
    done;
    let up = ref (min (!lo + !step) n) in
    while !up - !lo > 1 do
      let mid = (!lo + !up) / 2 in
      if r.hi.(mid) <= id then lo := mid else up := mid
    done;
    !up
  end

let exhaust c =
  c.lim <- -1;
  eof

(* A restricted cursor whose unrestricted head is [id]: move on to the
   first posting inside a range. *)
let rec settle c r id =
  if id = eof then eof
  else begin
    let i = next_range r ~from:c.ri id in
    c.ri <- i;
    if i = Array.length r.hi then exhaust c
    else if id >= r.lo.(i) then begin
      c.lim <- r.hi.(i);
      id
    end
    else settle c r (raw_seek c r.lo.(i))
  end

let slow_head c =
  match c.within with
  | None -> raw_head c
  | Some r -> if c.ri >= Array.length r.hi then eof else settle c r (raw_head c)

(* The common case first: a buffered head, in range. *)
let head c =
  if c.row < Plist.length c.cols then
    let id = Plist.node c.cols c.row in
    if id < c.lim then id else slow_head c
  else slow_head c

(* A restricted seek lands on the target's range first, so a block
   between ranges is never decoded. *)
let restricted_seek c r id =
  let i = next_range r ~from:c.ri id in
  c.ri <- i;
  if i = Array.length r.hi then exhaust c
  else settle c r (raw_seek c (Int.max id r.lo.(i)))

(* The common case first: the target is buffered, and the row it lands
   on is in range. *)
let seek c id =
  let len = Plist.length c.cols in
  if c.row < len && Plist.node c.cols (len - 1) >= id then begin
    c.row <- Plist.gallop_lower_bound c.cols ~lo:c.row id;
    let h = Plist.node c.cols c.row in
    if h < c.lim then h
    else match c.within with None -> h | Some r -> restricted_seek c r id
  end
  else match c.within with None -> raw_seek c id | Some r -> restricted_seek c r id

(* Appends the head row of [c] to [out]. *)
let emit out c = Plist.Buf.add_row out c.cols c.row

(* A fresh unrestricted cursor over a whole decoded list hands the list
   back as is (lists are never mutated); any other cursor is copied out. *)
let drain c =
  match c.src, c.within with
  | Mem, None when c.row = 0 -> c.cols
  | _ ->
    Plist.build (fun out ->
        while head c <> eof do
          emit out c;
          advance c
        done)

(* The intersection's rows among [ids]: every id seeks every cursor, so
   only the blocks the ids land on are decoded. *)
let inter_among cs ids =
  Plist.build (fun out ->
      let n = Array.length cs and k = ref 0 in
      while !k < Array.length ids do
        let id = ids.(!k) in
        let i = ref 0 and got = ref id in
        while !i < n && !got = id do
          got := seek cs.(!i) id;
          if !got = id then incr i
        done;
        if !i = n then emit out cs.(0);
        (* an exhausted cursor ends the intersection *)
        k := if !got = eof then Array.length ids else !k + 1
      done)

(* n-way intersection: drive from the shortest list and seek the rest
   to each candidate — galloping on in-memory cursors, block-skipping on
   'C' payloads. *)
let inter_many ?among cursors =
  match cursors, among with
  | [], _ -> invalid_arg "inter_many: empty intersection is the node universe"
  | cursors, Some ids -> inter_among (Array.of_list cursors) ids
  | [ c ], None -> drain c
  | cursors, None ->
    let cs = Array.of_list cursors in
    Array.sort (fun a b -> Int.compare (remaining a) (remaining b)) cs;
    let n = Array.length cs in
    let lead = cs.(0) in
    Plist.build (fun out ->
        (* cs.(0) .. cs.(i - 1) sit on [target] *)
        let target = ref (head lead) and i = ref 1 in
        while !target <> eof do
          if !i = n then begin
            emit out lead;
            advance lead;
            target := head lead;
            i := 1
          end
          else begin
            let id = seek cs.(!i) !target in
            if id = !target then incr i
            else if id = eof then target := eof
            else begin
              (* overshoot: the shortest list jumps to the new candidate *)
              target := seek lead id;
              i := 1
            end
          end
        done)

let union_with_counts cursors =
  let cs = Array.of_list cursors in
  let counts = ref (Array.make 16 0) in
  let min_head () =
    let m = ref eof in
    for j = 0 to Array.length cs - 1 do
      m := Int.min !m (head cs.(j))
    done;
    !m
  in
  let union out =
    let node = ref (min_head ()) in
    while !node <> eof do
      let count = ref 0 in
      for j = 0 to Array.length cs - 1 do
        let c = cs.(j) in
        if head c = !node then begin
          if !count = 0 then emit out c;
          incr count;
          advance c
        end
      done;
      let k = Plist.Buf.length out - 1 in
      if k = Array.length !counts then begin
        let a = Array.make (2 * k) 0 in
        Array.blit !counts 0 a 0 k;
        counts := a
      end;
      !counts.(k) <- !count;
      node := min_head ()
    done
  in
  let l = Plist.build union in
  (l, Array.sub !counts 0 (Plist.length l))
