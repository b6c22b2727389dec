type t = {
  fd : Unix.file_descr;
  page_size : int;
  mutable pages : int;
  stats : Io_stats.t;
  cache : (int, bytes) Hashtbl.t option;
  cache_order : int Queue.t;
  cache_capacity : int;
  mutable closed : bool;
}

let page_size t = t.page_size
let page_count t = t.pages
let stats t = t.stats

let check_open t = if t.closed then failwith "Pager: file is closed"

(* A read past the end of the file zero-fills the rest (a sparse tail). *)
let pread t ~off buf =
  let len = Bytes.length buf in
  let n = Pio.read_upto t.stats t.fd ~off buf 0 len in
  if n < len then Bytes.fill buf n (len - n) '\000'

let pwrite t ~off buf = Pio.write_all t.stats t.fd ~off buf 0 (Bytes.length buf)

(* Second-chance (clock-ish) bounded cache: on overflow, evict the oldest
   inserted page. The insertion queue carries page numbers; stale queue
   entries (already evicted/overwritten) are skipped. *)
let cache_insert t page buf =
  match t.cache with
  | None -> ()
  | Some c ->
    if not (Hashtbl.mem c page) then begin
      Queue.push page t.cache_order;
      while Hashtbl.length c >= t.cache_capacity do
        match Queue.take_opt t.cache_order with
        | Some victim -> Hashtbl.remove c victim
        | None -> Hashtbl.reset c
      done
    end;
    Hashtbl.replace c page (Bytes.copy buf)

let read_page t page =
  check_open t;
  if page < 0 || page >= t.pages then
    invalid_arg (Printf.sprintf "Pager.read_page: page %d of %d" page t.pages);
  match t.cache with
  | Some c when Hashtbl.mem c page ->
    Io_stats.record_hit t.stats;
    Bytes.copy (Hashtbl.find c page)
  | _ ->
    Io_stats.record_miss t.stats;
    let buf = Bytes.create t.page_size in
    pread t ~off:(page * t.page_size) buf;
    cache_insert t page buf;
    buf

let write_page t page buf =
  check_open t;
  if Bytes.length buf <> t.page_size then
    invalid_arg "Pager.write_page: buffer size mismatch";
  if page < 0 then invalid_arg "Pager.write_page: negative page";
  pwrite t ~off:(page * t.page_size) buf;
  if page >= t.pages then t.pages <- page + 1;
  cache_insert t page buf

let append_page t buf =
  let page = t.pages in
  write_page t page buf;
  page

let append_blob t s =
  check_open t;
  let len = String.length s in
  let n_pages = max 1 ((len + t.page_size - 1) / t.page_size) in
  let first = t.pages in
  let buf = Bytes.make (n_pages * t.page_size) '\000' in
  Bytes.blit_string s 0 buf 0 len;
  pwrite t ~off:(first * t.page_size) buf;
  t.pages <- first + n_pages;
  first

let read_blob t ~first_page ~len =
  check_open t;
  if len = 0 then ""
  else begin
    let n_pages = (len + t.page_size - 1) / t.page_size in
    if first_page < 0 || first_page + n_pages > t.pages then
      invalid_arg "Pager.read_blob: out of bounds";
    let buf = Bytes.create (n_pages * t.page_size) in
    pread t ~off:(first_page * t.page_size) buf;
    Bytes.sub_string buf 0 len
  end

let sync t =
  check_open t;
  Unix.fsync t.fd

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end

let make fd ~page_size ~cache_pages ~pages =
  {
    fd;
    page_size;
    pages;
    stats = Io_stats.create ();
    cache = (if cache_pages > 0 then Some (Hashtbl.create cache_pages) else None);
    cache_order = Queue.create ();
    cache_capacity = cache_pages;
    closed = false;
  }

let create ?(page_size = 4096) ?(cache_pages = 0) path =
  if page_size < 64 then invalid_arg "Pager.create: page size too small";
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  make fd ~page_size ~cache_pages ~pages:0

let open_existing ?(page_size = 4096) ?(cache_pages = 0) path =
  let fd =
    try Unix.openfile path [ Unix.O_RDWR ] 0o644
    with Unix.Unix_error (e, _, _) ->
      failwith (Printf.sprintf "Pager.open_existing %s: %s" path (Unix.error_message e))
  in
  let size = (Unix.fstat fd).Unix.st_size in
  if size mod page_size <> 0 then
    failwith "Pager.open_existing: file size is not a multiple of the page size";
  make fd ~page_size ~cache_pages ~pages:(size / page_size)
