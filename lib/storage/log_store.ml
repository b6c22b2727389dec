let magic = "NSCQLOG1"
let header_size = 8

(* Record: crc32(4, over everything after it) | flags(1) | key_len(4) |
   val_len(4) | key | value. flags bit 0 = tombstone; bit 1 = commit
   marker (an empty record fencing a batch: recovery can roll the log
   back to the last marker instead of merely dropping a torn tail). *)
let record_header_size = 13

let flag_tombstone = 0x01
let flag_commit = 0x02

(* The key directory: each live key's record offset and value length,
   packed into one immediate int (the value length in the low [len_bits]),
   so a key costs its table cell and its string and no boxed entry — the
   directory is most of what an open store keeps in memory. A record past
   either range (a value of 16 MiB or more, or an offset past 2^38) keeps
   its pair in [big]. *)
module Dir = struct
  type t = { packed : (string, int) Hashtbl.t; big : (string, int * int) Hashtbl.t }

  let len_bits = 24
  let len_mask = (1 lsl len_bits) - 1
  let create n = { packed = Hashtbl.create n; big = Hashtbl.create 1 }

  let remove_big d key = if Hashtbl.length d.big > 0 then Hashtbl.remove d.big key

  let set d key ~offset ~val_len =
    if val_len <= len_mask && offset <= max_int lsr len_bits then begin
      Hashtbl.replace d.packed key ((offset lsl len_bits) lor val_len);
      remove_big d key
    end
    else begin
      Hashtbl.replace d.packed key (-1);
      Hashtbl.replace d.big key (offset, val_len)
    end

  (* (offset, value length) *)
  let find d key =
    match Hashtbl.find_opt d.packed key with
    | None -> None
    | Some -1 -> Hashtbl.find_opt d.big key
    | Some v -> Some (v lsr len_bits, v land len_mask)

  let remove d key =
    Hashtbl.remove d.packed key;
    remove_big d key

  let length d = Hashtbl.length d.packed
  let iter_keys f d = Hashtbl.iter (fun key _ -> f key) d.packed
end

let total_len key val_len = record_header_size + String.length key + val_len

type t = {
  mutable fd : Unix.file_descr;
  path : string;
  mutable dir : Dir.t;
  mutable file_end : int;
  mutable dead : int;  (* bytes of superseded/tombstoned records *)
  mutable last_commit : int;  (* file offset just past the last commit marker *)
  stats : Io_stats.t;
  mutable closed : bool;
}

(* The registry is shared by every domain that opens a log store (e.g.
   Parallel workers each opening their own handle on one path). *)
module Reg = Registry.Make (struct
  type nonrec t = t

  let kind = "Log_store"
end)

let pread t ~off buf pos len = Pio.read_exact t.stats t.fd ~off buf pos len

(* Appends at the end of the log. *)
let write_end t buf = Pio.write_all t.stats t.fd ~off:t.file_end buf 0 (Bytes.length buf)

let encode_record ?(flags = 0) ~key ~value () =
  let klen = String.length key and vlen = String.length value in
  let buf = Bytes.create (record_header_size + klen + vlen) in
  Bytes.set buf 4 (Char.chr flags);
  Bytes.set_int32_le buf 5 (Int32.of_int klen);
  Bytes.set_int32_le buf 9 (Int32.of_int vlen);
  Bytes.blit_string key 0 buf record_header_size klen;
  Bytes.blit_string value 0 buf (record_header_size + klen) vlen;
  let crc =
    Checksum.crc32_bytes buf ~pos:4 ~len:(Bytes.length buf - 4)
  in
  Bytes.set_int32_le buf 0 crc;
  buf

let check_open t = if t.closed then failwith "Log_store: store is closed"

let append t ~flags key value =
  let buf = encode_record ~flags ~key ~value () in
  write_end t buf;
  let offset = t.file_end in
  t.file_end <- offset + Bytes.length buf;
  (offset, Bytes.length buf)

let supersede t key =
  match Dir.find t.dir key with
  | Some (_, val_len) ->
    t.dead <- t.dead + total_len key val_len;
    Dir.remove t.dir key
  | None -> ()

let put t key value =
  check_open t;
  supersede t key;
  let offset, _ = append t ~flags:0 key value in
  Dir.set t.dir key ~offset ~val_len:(String.length value)

let get t key =
  check_open t;
  match Dir.find t.dir key with
  | None -> None
  | Some (offset, val_len) ->
    let buf = Bytes.create val_len in
    pread t ~off:(offset + record_header_size + String.length key) buf 0 val_len;
    Some (Bytes.unsafe_to_string buf)

let delete t key =
  check_open t;
  match Dir.find t.dir key with
  | None -> false
  | Some _ ->
    supersede t key;
    let _, total_len = append t ~flags:flag_tombstone key "" in
    (* the tombstone itself is dead weight for the next compaction *)
    t.dead <- t.dead + total_len;
    true

let iter t f =
  check_open t;
  Dir.iter_keys (fun key -> f key (Option.get (get t key))) t.dir

(* Bytes read per [pread] while scanning: a scan reads the log in chunks
   into one reused buffer, not a record (or the whole file) at a time. *)
let scan_chunk = 65536

(* Scans the log from the header, rebuilding the directory; returns the
   offset of the first invalid record (= consistent prefix length). *)
let scan t ~file_size =
  let buf = ref (Bytes.create (min scan_chunk file_size)) in
  let buf_off = ref 0 and buf_len = ref 0 in
  (* Bytes [off, off + n) of the file, which must exist, are in [!buf]
     from the returned index. A refill starts at [off]; a record longer
     than the buffer gets a buffer of its own size. *)
  let window off n =
    if off < !buf_off || off + n > !buf_off + !buf_len then begin
      if n > Bytes.length !buf then buf := Bytes.create n;
      let len = min (Bytes.length !buf) (file_size - off) in
      pread t ~off !buf 0 len;
      buf_off := off;
      buf_len := len
    end;
    off - !buf_off
  in
  let pos = ref header_size in
  let ok = ref true in
  while !ok && !pos + record_header_size <= file_size do
    let h = window !pos record_header_size in
    let klen = Int32.to_int (Bytes.get_int32_le !buf (h + 5)) in
    let vlen = Int32.to_int (Bytes.get_int32_le !buf (h + 9)) in
    if
      klen < 0 || vlen < 0
      || !pos + record_header_size + klen + vlen > file_size
    then ok := false
    else begin
      let total_len = record_header_size + klen + vlen in
      let h = window !pos total_len in
      let b = !buf in
      let stored_crc = Bytes.get_int32_le b h in
      let crc = Checksum.crc32_bytes b ~pos:(h + 4) ~len:(total_len - 4) in
      if crc <> stored_crc then ok := false
      else begin
        let flags = Char.code (Bytes.get b (h + 4)) in
        if flags land flag_commit <> 0 then begin
          (* a batch fence: everything before it is committed *)
          t.dead <- t.dead + total_len;
          t.last_commit <- !pos + total_len
        end
        else begin
          let key = Bytes.sub_string b (h + record_header_size) klen in
          supersede t key;
          if flags land flag_tombstone <> 0 then t.dead <- t.dead + total_len
          else
            Dir.set t.dir key ~offset:!pos ~val_len:vlen
        end;
        pos := !pos + total_len
      end
    end
  done;
  !pos

let to_kv t =
  let name = "log:" ^ t.path in
  Reg.put name t;
  {
    Kv.name;
    get = get t;
    put = put t;
    delete = delete t;
    iter = iter t;
    iter_keys =
      (fun f ->
        check_open t;
        Dir.iter_keys f t.dir);
    length = (fun () -> Dir.length t.dir);
    sync =
      (fun () ->
        check_open t;
        Unix.fsync t.fd);
    close =
      (fun () ->
        if not t.closed then begin
          t.closed <- true;
          Reg.remove name;
          Unix.close t.fd
        end);
    stats = t.stats;
  }

let create path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t =
    {
      fd;
      path;
      dir = Dir.create 1024;
      file_end = 0;
      dead = 0;
      last_commit = header_size;
      stats = Io_stats.create ();
      closed = false;
    }
  in
  write_end t (Bytes.of_string magic);
  t.file_end <- header_size;
  Io_stats.reset t.stats;
  to_kv t

let open_existing ?(to_last_commit = false) path =
  let fd =
    try Unix.openfile path [ Unix.O_RDWR ] 0o644
    with Unix.Unix_error (e, _, _) ->
      failwith (Printf.sprintf "Log_store.open_existing %s: %s" path (Unix.error_message e))
  in
  let size = (Unix.fstat fd).Unix.st_size in
  if size < header_size then failwith "Log_store.open_existing: file too small";
  let t =
    {
      fd;
      path;
      dir = Dir.create 1024;
      file_end = 0;
      dead = 0;
      last_commit = header_size;
      stats = Io_stats.create ();
      closed = false;
    }
  in
  let hdr = Bytes.create header_size in
  pread t ~off:0 hdr 0 header_size;
  if Bytes.to_string hdr <> magic then failwith "Log_store.open_existing: bad magic";
  let consistent = scan t ~file_size:size in
  (* Torn tail (crash during the final append): truncate it away. Under
     [to_last_commit], roll further back to the last commit fence so a
     half-written batch disappears entirely. *)
  let keep = if to_last_commit then min consistent t.last_commit else consistent in
  if keep < consistent then begin
    (* drop the uncommitted records from the directory by rescanning *)
    t.dir <- Dir.create 1024;
    t.dead <- 0;
    t.last_commit <- header_size;
    ignore (scan t ~file_size:keep)
  end;
  if keep < size then Unix.ftruncate fd keep;
  t.file_end <- keep;
  Io_stats.reset t.stats;
  if keep < size then Io_stats.record_recovery t.stats;
  to_kv t

let find_handle kv what = Reg.find kv.Kv.name ~what

let mark_commit kv =
  let t = find_handle kv "mark_commit" in
  check_open t;
  let _, total_len = append t ~flags:flag_commit "" "" in
  t.dead <- t.dead + total_len;
  t.last_commit <- t.file_end;
  Unix.fsync t.fd

let last_commit kv = (find_handle kv "last_commit").last_commit

let dead_bytes kv = (find_handle kv "dead_bytes").dead

let compact kv =
  let t = find_handle kv "compact" in
  check_open t;
  let tmp_path = t.path ^ ".compact" in
  let live = ref [] in
  Dir.iter_keys (fun key -> live := key :: !live) t.dir;
  let live = List.sort String.compare !live in
  let tmp_fd = Unix.openfile tmp_path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fresh =
    {
      fd = tmp_fd;
      path = tmp_path;
      dir = Dir.create (Dir.length t.dir);
      file_end = 0;
      dead = 0;
      last_commit = header_size;
      stats = t.stats;
      closed = false;
    }
  in
  write_end fresh (Bytes.of_string magic);
  fresh.file_end <- header_size;
  List.iter (fun key -> put fresh key (Option.get (get t key))) live;
  Unix.fsync tmp_fd;
  Unix.rename tmp_path t.path;
  Unix.close t.fd;
  t.fd <- fresh.fd;
  t.file_end <- fresh.file_end;
  t.dead <- 0;
  t.dir <- fresh.dir
