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
   after every real one. *)

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

(* The head is row [row] of [cols] while [row < length cols]. *)
type cursor = { src : source; mutable cols : Plist.t; mutable row : int }

let eof = max_int

(* A 'V' payload ends with its last posting. *)
let check_end reader ~left =
  if left = 0 && not (Storage.Codec.at_end reader) then
    raise (Storage.Codec.Corrupt "Plist: trailing bytes after the list")

let cursor_of_bytes payload =
  match Plist.codec_of_bytes payload with
  | Plist.Varint ->
    let reader =
      Storage.Codec.reader_sub payload ~pos:1 ~len:(String.length payload - 1)
    in
    let left = Plist.read_varint_count reader in
    check_end reader ~left;
    let sbuf = Plist.Buf.create (min left Plist_blocks.block_size) in
    { src = Seq { reader; prev_node = -1; left; sbuf }; cols = Plist.empty; row = 0 }
  | Plist.Blocked ->
    let dir = Plist_blocks.directory payload ~pos:1 in
    let bbuf = Plist.Buf.create (min (Plist_blocks.total dir) Plist_blocks.block_size) in
    { src = Blk { dir; bi = 0; bbuf }; cols = Plist.empty; row = 0 }

let cursor_of_plist l = { src = Mem; cols = l; row = 0 }

let remaining c =
  let buffered = Plist.length c.cols - c.row in
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
   chunk if needed; [eof] once exhausted. *)
let rec head c =
  if c.row < Plist.length c.cols then Plist.node c.cols c.row
  else
    match c.src with
    | Mem -> eof
    | Seq s ->
      if s.left = 0 then eof
      else begin
        fill_seq c s;
        head c
      end
    | Blk b ->
      if b.bi >= Plist_blocks.n_blocks b.dir then eof
      else begin
        fill_blk c b b.bi;
        head c
      end

let head_list c = c.cols
let head_row c = c.row

(* Consume the head; only after [head] returned a real node id. *)
let advance c = c.row <- c.row + 1

(* Move the head to the first posting with node >= id and return its
   node id. Gallops within the buffered rows when they reach [id];
   otherwise Mem is exhausted, Seq decodes chunk after chunk (delta
   coding admits nothing better) and Blk binary searches the directory,
   decoding only the landing block. *)
let rec seek c id =
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
        seek c id
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

(* Appends the head row of [c] to [out]. *)
let emit out c = Plist.Buf.add_row out c.cols c.row

(* A fresh cursor over a whole decoded list hands the list back as is
   (lists are never mutated); any other cursor is copied out. *)
let drain c =
  match c.src with
  | Mem when c.row = 0 -> c.cols
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
