let magic = "NSCQHSH1"
let header_size = 32

(* Header: magic(8) | buckets(8) | count(8) | reserved(8).
   Bucket directory: buckets * 8 bytes of chain-head offsets (0 = empty).
   Record: next(8) | key_len(4) | val_len(4) | key | value. *)

type handle = {
  mutable fd : Unix.file_descr;
  buckets : int;
  mutable count : int;
  mutable file_end : int;
  stats : Io_stats.t;
  path : string;
  mutable closed : bool;
}

(* registry so [optimize]/[file_size] can recover the handle behind Kv.t;
   shared because parallel workers may open handles concurrently *)
module Reg = Registry.Make (struct
  type t = handle

  let kind = "Hash_store"
end)

let record_header_size = 16

let fnv1a s =
  (* FNV-1a offset basis, truncated to OCaml's 63-bit int. *)
  let h = ref 0x3bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

let bucket_of_key t key = fnv1a key land (t.buckets - 1)
let bucket_offset b = header_size + (8 * b)

(* A record or bucket read past the end of the file: the heap was cut
   short, so the store is corrupt rather than the call wrong. *)
let truncated () =
  raise (Codec.Corrupt "hash store: unexpected end of file (try 'nscq repair')")

let pread t ~off buf =
  let len = Bytes.length buf in
  if Pio.read_upto t.stats t.fd ~off buf 0 len < len then truncated ()

let pwrite t ~off buf = Pio.write_all t.stats t.fd ~off buf 0 (Bytes.length buf)

let read_u64 buf pos = Int64.to_int (Bytes.get_int64_le buf pos)
let write_u64 buf pos v = Bytes.set_int64_le buf pos (Int64.of_int v)
let read_u32 buf pos = Int32.to_int (Bytes.get_int32_le buf pos)
let write_u32 buf pos v = Bytes.set_int32_le buf pos (Int32.of_int v)

let read_offset t ~off =
  let buf = Bytes.create 8 in
  pread t ~off buf;
  read_u64 buf 0

let write_offset t ~off v =
  let buf = Bytes.create 8 in
  write_u64 buf 0 v;
  pwrite t ~off buf

let read_string t ~off len =
  let buf = Bytes.create len in
  pread t ~off buf;
  Bytes.unsafe_to_string buf

let write_header t =
  let buf = Bytes.make header_size '\000' in
  Bytes.blit_string magic 0 buf 0 8;
  write_u64 buf 8 t.buckets;
  write_u64 buf 16 t.count;
  pwrite t ~off:0 buf

let append_record t ~next ~key ~value =
  let key_len = String.length key and val_len = String.length value in
  let buf = Bytes.create (record_header_size + key_len + val_len) in
  write_u64 buf 0 next;
  write_u32 buf 8 key_len;
  write_u32 buf 12 val_len;
  Bytes.blit_string key 0 buf record_header_size key_len;
  Bytes.blit_string value 0 buf (record_header_size + key_len) val_len;
  let off = t.file_end in
  pwrite t ~off buf;
  t.file_end <- off + Bytes.length buf;
  off

type found = { ptr_off : int; rec_off : int; next : int; val_len : int }

(* Walks the chain of [key]'s bucket with one read per record, covering
   its header and a key-sized prefix of its body (shorter at the end of
   the file). Returns the bucket's slot offset, its chain head, and the
   matching record, if any: [ptr_off] holds the pointer to it (the slot
   or the predecessor's next field). *)
let find_in_chain t key =
  let klen = String.length key in
  let buf = Bytes.create (record_header_size + klen) in
  let rec walk ptr_off rec_off =
    if rec_off = 0 then None
    else begin
      let n = Pio.read_upto t.stats t.fd ~off:rec_off buf 0 (Bytes.length buf) in
      if n < record_header_size then truncated ();
      let next = read_u64 buf 0 and same_len = read_u32 buf 8 = klen in
      if same_len && n < Bytes.length buf then truncated ();
      if same_len && String.equal key (Bytes.sub_string buf record_header_size klen)
      then Some { ptr_off; rec_off; next; val_len = read_u32 buf 12 }
      else walk rec_off next (* the record's next field is at [rec_off] *)
    end
  in
  let slot = bucket_offset (bucket_of_key t key) in
  let head = read_offset t ~off:slot in
  (slot, head, walk slot head)

let check_open t = if t.closed then failwith "Hash_store: store is closed"

let get t key =
  check_open t;
  match find_in_chain t key with
  | _, _, None -> None
  | _, _, Some r ->
    Some
      (read_string t ~off:(r.rec_off + record_header_size + String.length key)
         r.val_len)

let put t key value =
  check_open t;
  let slot, head, found = find_in_chain t key in
  let head =
    match found with
    | None -> head
    | Some r ->
      (* Unlink the stale record; it may have been the head. *)
      write_offset t ~off:r.ptr_off r.next;
      t.count <- t.count - 1;
      if r.ptr_off = slot then r.next else head
  in
  let rec_off = append_record t ~next:head ~key ~value in
  write_offset t ~off:slot rec_off;
  t.count <- t.count + 1

let delete t key =
  check_open t;
  match find_in_chain t key with
  | _, _, None -> false
  | _, _, Some r ->
    write_offset t ~off:r.ptr_off r.next;
    t.count <- t.count - 1;
    true

let iter t f =
  check_open t;
  for b = 0 to t.buckets - 1 do
    let rec walk off =
      if off <> 0 then begin
        let hdr = Bytes.create record_header_size in
        pread t ~off hdr;
        let key_len = read_u32 hdr 8 and val_len = read_u32 hdr 12 in
        let body = Bytes.create (key_len + val_len) in
        pread t ~off:(off + record_header_size) body;
        f (Bytes.sub_string body 0 key_len) (Bytes.sub_string body key_len val_len);
        walk (read_u64 hdr 0)
      end
    in
    walk (read_offset t ~off:(bucket_offset b))
  done

let sync t =
  check_open t;
  write_header t;
  Unix.fsync t.fd

let close t =
  if not t.closed then begin
    write_header t;
    t.closed <- true;
    Reg.remove ("hash:" ^ t.path);
    Unix.close t.fd
  end

let round_up_pow2 n =
  let rec loop p = if p >= n then p else loop (p * 2) in
  loop 1

(* A fresh file: the header and an empty bucket directory. *)
let create_file ~buckets ~stats path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let file_end = header_size + (8 * buckets) in
  let t = { fd; buckets; count = 0; file_end; stats; path; closed = false } in
  write_header t;
  pwrite t ~off:header_size (Bytes.make (8 * buckets) '\000');
  t

let to_kv t =
  Reg.put ("hash:" ^ t.path) t;
  {
    Kv.name = "hash:" ^ t.path;
    get = get t;
    put = put t;
    delete = delete t;
    iter = iter t;
    iter_keys = (fun f -> iter t (fun k _ -> f k));
    length = (fun () -> t.count);
    sync = (fun () -> sync t);
    close = (fun () -> close t);
    stats = t.stats;
  }

let create ?(buckets = 65536) path =
  if buckets <= 0 then invalid_arg "Hash_store.create: buckets must be positive";
  let stats = Io_stats.create () in
  let t = create_file ~buckets:(round_up_pow2 buckets) ~stats path in
  Io_stats.reset t.stats;
  to_kv t

let open_existing path =
  let fd =
    try Unix.openfile path [ Unix.O_RDWR ] 0o644
    with Unix.Unix_error (e, _, _) ->
      failwith (Printf.sprintf "Hash_store.open_existing %s: %s" path (Unix.error_message e))
  in
  let size = (Unix.fstat fd).Unix.st_size in
  if size < header_size then failwith "Hash_store.open_existing: file too small";
  let t =
    { fd; buckets = 0; count = 0; file_end = size; stats = Io_stats.create ();
      path; closed = false }
  in
  let buf = Bytes.create header_size in
  pread t ~off:0 buf;
  if Bytes.sub_string buf 0 8 <> magic then
    failwith "Hash_store.open_existing: bad magic";
  let buckets = read_u64 buf 8 and count = read_u64 buf 16 in
  Io_stats.reset t.stats;
  let t = { t with buckets; count } in
  to_kv t


let find_handle kv what =
  match Reg.find_opt kv.Kv.name with
  | Some t when not t.closed -> t
  | _ -> invalid_arg ("Hash_store." ^ what ^ ": not an open hash store handle")

let file_size kv =
  let t = find_handle kv "file_size" in
  (Unix.fstat t.fd).Unix.st_size

let optimize kv =
  let t = find_handle kv "optimize" in
  let tmp_path = t.path ^ ".optimize" in
  let fresh = create_file ~buckets:t.buckets ~stats:t.stats tmp_path in
  iter t (fun key value -> put fresh key value);
  write_header fresh;
  Unix.fsync fresh.fd;
  Unix.rename tmp_path t.path;
  Unix.close t.fd;
  t.fd <- fresh.fd;
  t.count <- fresh.count;
  t.file_end <- fresh.file_end
