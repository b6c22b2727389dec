(* Block directory of the 'C' postings payload (see Plist.to_bytes).

   A list is cut into fixed-size blocks of [block_size] postings. A
   directory up front records, per block, the node-id span [min, max],
   the posting count, the representation and the body length, so readers
   can skip whole blocks by id without touching their bytes — the basis
   of the skewed-intersection kernels in Plist_stream.

   Body layout (the 'C' tag byte is owned by Plist and not part of it):

     varint  total            postings in the list
     varint  nblocks
     per block (directory):
       varint  min - prev_max - 1     (prev_max starts at -1)
       varint  max - min
       varint  count
       byte    repr                   0 = delta varint, 1 = bitmap
       varint  body_len               bytes of this block's body
     bodies, concatenated in block order

   This module writes and parses the directory; Plist encodes and decodes
   the block bodies into its columns. Sparse blocks store postings
   exactly as the 'V' format does (delta varint, with the delta base reset
   to min - 1), so a sparse block costs the same bytes as its slice of a
   'V' payload. Dense blocks — id range close to the count — store a
   bitmap over [min, max] followed by the non-id posting fields of each
   member in ascending order; the ids come from the bitmap, for free.

   The encoder's choices are functions of the list, so a payload it wrote
   is the only encoding of its list. The parser insists on exactly that
   form (full blocks before the last, the representation the heuristic
   picks, bodies ending at the payload's end), so a payload that parses
   re-encodes to its own bytes. *)

let block_size = 128

(* A block is dense when its id span is within 4x its population: the
   bitmap then costs at most ceil(4/8) = half a byte per posting for the
   ids, always beating per-posting gap varints (>= 1 byte each). *)
let dense ~range ~count = range <= 4 * count

type t = {
  payload : string;  (* the enclosing (tagged) payload *)
  total : int;
  mins : int array;
  maxs : int array;
  counts : int array;
  bitmap : bool array;  (* per-block: body is a bitmap block *)
  offs : int array;  (* absolute body offset within [payload] *)
  lens : int array;
  suffix : int array;  (* suffix.(i) = postings in blocks i..; length n+1 *)
}

let n_blocks d = Array.length d.mins
let total d = d.total
let payload d = d.payload
let block_min d i = d.mins.(i)
let block_max d i = d.maxs.(i)
let block_count d i = d.counts.(i)
let is_bitmap d i = d.bitmap.(i)
let body_pos d i = d.offs.(i)
let body_len d i = d.lens.(i)
let suffix_count d i = d.suffix.(i)

(* --- encoding --- *)

type block = { bmin : int; bmax : int; count : int; as_bitmap : bool; body : string }

let write_entry w ~prev_max ~bmin ~bmax ~count ~as_bitmap ~len =
  Storage.Codec.write_varint w (bmin - prev_max - 1);
  Storage.Codec.write_varint w (bmax - bmin);
  Storage.Codec.write_varint w count;
  Storage.Codec.write_varint w (if as_bitmap then 1 else 0);
  Storage.Codec.write_varint w len

(* Directory entries and bodies of blocks [0, keep) of [d], copied as they
   are, followed by [blocks]. *)
let write_extended w ?d ~keep ~total blocks =
  Storage.Codec.write_varint w total;
  Storage.Codec.write_varint w (keep + List.length blocks);
  let prev_max = ref (-1) in
  Option.iter
    (fun d ->
      for i = 0 to keep - 1 do
        write_entry w ~prev_max:!prev_max ~bmin:d.mins.(i) ~bmax:d.maxs.(i)
          ~count:d.counts.(i) ~as_bitmap:d.bitmap.(i) ~len:d.lens.(i);
        prev_max := d.maxs.(i)
      done)
    d;
  List.iter
    (fun b ->
      write_entry w ~prev_max:!prev_max ~bmin:b.bmin ~bmax:b.bmax ~count:b.count
        ~as_bitmap:b.as_bitmap ~len:(String.length b.body);
      prev_max := b.bmax)
    blocks;
  Option.iter
    (fun d ->
      if keep > 0 then
        let lo = d.offs.(0) in
        Storage.Codec.write_raw_sub w d.payload ~pos:lo
          ~len:(d.offs.(keep - 1) + d.lens.(keep - 1) - lo))
    d;
  List.iter (fun b -> Storage.Codec.write_raw w b.body) blocks

let encode w ~total blocks = write_extended w ~keep:0 ~total blocks

let extend w d ~keep ~total blocks =
  if keep < 0 || keep > n_blocks d then invalid_arg "Plist_blocks.extend: keep";
  write_extended w ~d ~keep ~total blocks

(* --- directory parsing --- *)

let corrupt msg = raise (Storage.Codec.Corrupt ("Plist_blocks: " ^ msg))

(* Five varints of at least one byte each per directory entry. *)
let min_entry_bytes = 5

let directory payload ~pos =
  let r = Storage.Codec.reader_sub payload ~pos ~len:(String.length payload - pos) in
  let total = Storage.Codec.read_varint r in
  let nblocks = Storage.Codec.read_varint r in
  (* checked before anything is allocated for the entries *)
  if nblocks > Storage.Codec.remaining r / min_entry_bytes then
    corrupt "block count exceeds the payload";
  let mins = Array.make nblocks 0 in
  let maxs = Array.make nblocks 0 in
  let counts = Array.make nblocks 0 in
  let bitmap = Array.make nblocks false in
  let offs = Array.make nblocks 0 in
  let lens = Array.make nblocks 0 in
  let prev_max = ref (-1) in
  for i = 0 to nblocks - 1 do
    let bmin = !prev_max + 1 + Storage.Codec.read_varint r in
    let bmax = bmin + Storage.Codec.read_varint r in
    let count = Storage.Codec.read_varint r in
    let repr = Storage.Codec.read_varint r in
    let len = Storage.Codec.read_varint r in
    if bmin <= !prev_max || bmax < bmin then corrupt "block span overflows";
    if count = 0 then corrupt "empty block";
    if count > block_size then corrupt "block count exceeds block size";
    if count < block_size && i < nblocks - 1 then corrupt "short block before the last";
    if count > bmax - bmin + 1 then corrupt "block count exceeds id span";
    let as_bitmap =
      match repr with
      | 0 -> false
      | 1 -> true
      | _ -> corrupt "unknown block representation"
    in
    if as_bitmap <> dense ~range:(bmax - bmin + 1) ~count then
      corrupt "block representation disagrees with its span";
    mins.(i) <- bmin;
    maxs.(i) <- bmax;
    counts.(i) <- count;
    bitmap.(i) <- as_bitmap;
    lens.(i) <- len;
    prev_max := bmax
  done;
  (* Bodies start where the directory ends and fill the payload. *)
  let off = ref (Storage.Codec.pos r) in
  for i = 0 to nblocks - 1 do
    offs.(i) <- !off;
    if lens.(i) > String.length payload - !off then corrupt "truncated bodies";
    off := !off + lens.(i)
  done;
  if !off <> String.length payload then corrupt "trailing bytes after the bodies";
  let suffix = Array.make (nblocks + 1) 0 in
  for i = nblocks - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) + counts.(i)
  done;
  if suffix.(0) <> total then corrupt "block counts disagree with total";
  { payload; total; mins; maxs; counts; bitmap; offs; lens; suffix }

(* First block index in [start, n_blocks) whose max >= id (binary search
   over the directory — the block-skip primitive), or n_blocks. *)
let find_block d ~start id =
  let n = n_blocks d in
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if d.maxs.(mid) < id then bsearch (mid + 1) hi else bsearch lo mid
  in
  bsearch (max start 0) n
