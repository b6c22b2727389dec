let magic = "NSCQLOG1"
let header_size = 8

(* Record: crc32(4, over everything after it) | flags(1) | key_len(4) |
   val_len(4) | key | value. flags bit 0 = tombstone; bit 1 = commit
   marker (an empty record fencing a batch: recovery can roll the log
   back to the last marker instead of merely dropping a torn tail). *)
let record_header_size = 13

let flag_tombstone = 0x01
let flag_commit = 0x02

type entry = { offset : int; val_len : int; total_len : int }

type t = {
  mutable fd : Unix.file_descr;
  path : string;
  dir : (string, entry) Hashtbl.t;
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
  match Hashtbl.find_opt t.dir key with
  | Some old ->
    t.dead <- t.dead + old.total_len;
    Hashtbl.remove t.dir key
  | None -> ()

let put t key value =
  check_open t;
  supersede t key;
  let offset, total_len = append t ~flags:0 key value in
  Hashtbl.replace t.dir key { offset; val_len = String.length value; total_len }

let get t key =
  check_open t;
  match Hashtbl.find_opt t.dir key with
  | None -> None
  | Some e ->
    let buf = Bytes.create e.val_len in
    pread t
      ~off:(e.offset + record_header_size + String.length key)
      buf 0 e.val_len;
    Some (Bytes.unsafe_to_string buf)

let delete t key =
  check_open t;
  match Hashtbl.find_opt t.dir key with
  | None -> false
  | Some _ ->
    supersede t key;
    let _, total_len = append t ~flags:flag_tombstone key "" in
    (* the tombstone itself is dead weight for the next compaction *)
    t.dead <- t.dead + total_len;
    true

let iter t f =
  check_open t;
  Hashtbl.iter (fun key _ -> f key (Option.get (get t key))) t.dir

(* Scans the log from the header, rebuilding the directory; returns the
   offset of the first invalid record (= consistent prefix length). *)
let scan t ~file_size =
  let pos = ref header_size in
  let ok = ref true in
  while !ok && !pos + record_header_size <= file_size do
    let hdr = Bytes.create record_header_size in
    pread t ~off:!pos hdr 0 record_header_size;
    let stored_crc = Bytes.get_int32_le hdr 0 in
    let flags = Char.code (Bytes.get hdr 4) in
    let klen = Int32.to_int (Bytes.get_int32_le hdr 5) in
    let vlen = Int32.to_int (Bytes.get_int32_le hdr 9) in
    if
      klen < 0 || vlen < 0
      || !pos + record_header_size + klen + vlen > file_size
    then ok := false
    else begin
      let body = Bytes.create (9 + klen + vlen) in
      Bytes.blit hdr 4 body 0 9;
      pread t ~off:(!pos + record_header_size) body 9 (klen + vlen);
      let crc = Checksum.crc32_bytes body ~pos:0 ~len:(Bytes.length body) in
      if crc <> stored_crc then ok := false
      else begin
        let key = Bytes.sub_string body 9 klen in
        let total_len = record_header_size + klen + vlen in
        if flags land flag_commit <> 0 then begin
          (* a batch fence: everything before it is committed *)
          t.dead <- t.dead + total_len;
          t.last_commit <- !pos + total_len
        end
        else begin
          supersede t key;
          if flags land flag_tombstone <> 0 then t.dead <- t.dead + total_len
          else
            Hashtbl.replace t.dir key { offset = !pos; val_len = vlen; total_len }
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
    length = (fun () -> Hashtbl.length t.dir);
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
      dir = Hashtbl.create 1024;
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
      dir = Hashtbl.create 1024;
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
    Hashtbl.reset t.dir;
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
  let live =
    Hashtbl.fold (fun key _ acc -> key :: acc) t.dir []
    |> List.sort String.compare
  in
  let tmp_fd = Unix.openfile tmp_path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fresh =
    {
      fd = tmp_fd;
      path = tmp_path;
      dir = Hashtbl.create (Hashtbl.length t.dir);
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
  Hashtbl.reset t.dir;
  Hashtbl.iter (fun k e -> Hashtbl.replace t.dir k e) fresh.dir
