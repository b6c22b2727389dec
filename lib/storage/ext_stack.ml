(* Layout: the backing file is a sequence of records [len(4) | bytes],
   oldest (deepest) first; [frames] records each spilled record's offset so
   pops can read them back. The in-memory buffer holds the newest entries. *)

type t = {
  fd : Unix.file_descr;
  path : string;
  buffer : string Stack.t;  (* top of the logical stack *)
  buffer_items : int;
  mutable frames : (int * int) list;  (* (offset, len) of spilled, newest first *)
  mutable file_end : int;
  stats : Io_stats.t;
  mutable closed : bool;
}

let create ?(buffer_items = 1024) path =
  if buffer_items < 1 then invalid_arg "Ext_stack.create: buffer_items must be ≥ 1";
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  {
    fd;
    path;
    buffer = Stack.create ();
    buffer_items;
    frames = [];
    file_end = 0;
    stats = Io_stats.create ();
    closed = false;
  }

let check_open t = if t.closed then failwith "Ext_stack: closed"

let length t = Stack.length t.buffer + List.length t.frames
let is_empty t = length t = 0
let spilled_items t = List.length t.frames
let stats t = t.stats

(* Spills the *bottom* half of the buffer to disk, keeping the newest
   entries in memory. *)
let spill t =
  let items = ref [] in
  Stack.iter (fun s -> items := s :: !items) t.buffer;
  (* !items is now oldest-first *)
  let oldest_first = !items in
  let keep = t.buffer_items / 2 in
  let to_spill_count = Stack.length t.buffer - keep in
  let rec split i acc = function
    | rest when i = to_spill_count -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> split (i + 1) (x :: acc) rest
  in
  let spill_list, keep_list = split 0 [] oldest_first in
  List.iter
    (fun s ->
      let len = String.length s in
      let buf = Bytes.create (4 + len) in
      Bytes.set_int32_le buf 0 (Int32.of_int len);
      Bytes.blit_string s 0 buf 4 len;
      Pio.write_all t.stats t.fd ~off:t.file_end buf 0 (4 + len);
      t.frames <- (t.file_end + 4, len) :: t.frames;
      t.file_end <- t.file_end + 4 + len)
    spill_list;
  Stack.clear t.buffer;
  List.iter (fun s -> Stack.push s t.buffer) keep_list

(* Refills the buffer with the newest spilled entries when memory drains. *)
let refill t =
  let count = min (max 1 (t.buffer_items / 2)) (List.length t.frames) in
  let rec take i acc frames =
    if i = count then (List.rev acc, frames)
    else
      match frames with
      | [] -> (List.rev acc, [])
      | f :: rest -> take (i + 1) (f :: acc) rest
  in
  let newest, rest = take 0 [] t.frames in
  t.frames <- rest;
  (* newest is newest-first; push oldest of them first *)
  List.iter
    (fun (off, len) ->
      let buf = Bytes.create len in
      Pio.read_exact t.stats t.fd ~off buf 0 len;
      Stack.push (Bytes.unsafe_to_string buf) t.buffer)
    (List.rev newest);
  (* reclaim the file tail when everything spilled has been consumed *)
  if t.frames = [] then begin
    Unix.ftruncate t.fd 0;
    t.file_end <- 0
  end

let push t s =
  check_open t;
  if Stack.length t.buffer >= t.buffer_items then spill t;
  Stack.push s t.buffer

let pop t =
  check_open t;
  if Stack.is_empty t.buffer && t.frames <> [] then refill t;
  match Stack.pop_opt t.buffer with
  | Some s -> Some s
  | None -> None

let top t =
  check_open t;
  if Stack.is_empty t.buffer && t.frames <> [] then refill t;
  Stack.top_opt t.buffer

let clear t =
  check_open t;
  Stack.clear t.buffer;
  t.frames <- [];
  Unix.ftruncate t.fd 0;
  t.file_end <- 0

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd;
    try Sys.remove t.path with Sys_error _ -> ()
  end
