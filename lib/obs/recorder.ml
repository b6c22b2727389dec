(* A flight recorder: per-domain fixed-size binary rings of compact
   events, cheap enough to leave on in production. Each event is one
   16-byte slot claimed with a fetch-and-add, so recording never takes a
   lock; the rings are merged into one time-sorted timeline at dump
   time. Readers tolerate the races inherent in a lock-free ring — a
   slot being overwritten while a dump reads it decodes as garbage at
   the timeline's oldest edge, never as a crash. *)

type kind =
  | Query_begin
  | Query_end
  | Phase_begin
  | Phase_end
  | Wal_fsync
  | Flush_begin
  | Flush_end
  | Compact_begin
  | Compact_end
  | Batch
  | Lock_wait
  | Race_suspect

let kind_code = function
  | Query_begin -> 1
  | Query_end -> 2
  | Phase_begin -> 3
  | Phase_end -> 4
  | Wal_fsync -> 5
  | Flush_begin -> 6
  | Flush_end -> 7
  | Compact_begin -> 8
  | Compact_end -> 9
  | Batch -> 10
  | Lock_wait -> 11
  | Race_suspect -> 12

let kind_of_code = function
  | 1 -> Some Query_begin
  | 2 -> Some Query_end
  | 3 -> Some Phase_begin
  | 4 -> Some Phase_end
  | 5 -> Some Wal_fsync
  | 6 -> Some Flush_begin
  | 7 -> Some Flush_end
  | 8 -> Some Compact_begin
  | 9 -> Some Compact_end
  | 10 -> Some Batch
  | 11 -> Some Lock_wait
  | 12 -> Some Race_suspect
  | _ -> None

let kind_name = function
  | Query_begin -> "query.begin"
  | Query_end -> "query.end"
  | Phase_begin -> "phase.begin"
  | Phase_end -> "phase.end"
  | Wal_fsync -> "wal.fsync"
  | Flush_begin -> "flush.begin"
  | Flush_end -> "flush.end"
  | Compact_begin -> "compact.begin"
  | Compact_end -> "compact.end"
  | Batch -> "batch"
  | Lock_wait -> "lock.wait"
  | Race_suspect -> "race.suspect"

(* Slot layout, little-endian:
   [0..7] timestamp µs  [8] kind  [9] a8  [10..11] a16  [12..15] a32 *)
let slot_bytes = 16

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* ---- the name table ----

   Event slots carry small integer codes, not strings; [intern] maps a
   name (phase, lock class) to a stable u8 code. Instrumentation sites
   intern once at module init, so the emit path never touches this
   table. A plain [Mutex] (not {!Lockdep}) guards it: the lock-wait
   hook below fires on contended Lockdep acquires, and routing its own
   bookkeeping through Lockdep would recurse. *)

let names_mu = Mutex.create ()
let name_table : (string, int) Hashtbl.t = Hashtbl.create 32
  [@@lint.guarded_by names_mu]
let name_by_code : string array ref = ref (Array.make 256 "")
  [@@lint.guarded_by names_mu]
let next_code = ref 1 [@@lint.guarded_by names_mu]

let intern name =
  Mutex.protect names_mu (fun () ->
      match Hashtbl.find_opt name_table name with
      | Some c -> c
      | None ->
        if !next_code > 255 then 0 (* table full: decode as "?" *)
        else begin
          let c = !next_code in
          incr next_code;
          Hashtbl.add name_table name c;
          !name_by_code.(c) <- name;
          c
        end)

let name_of code =
  Mutex.protect names_mu (fun () ->
      if code > 0 && code < 256 && !name_by_code.(code) <> "" then
        Some !name_by_code.(code)
      else None)

let name_snapshot () =
  Mutex.protect names_mu (fun () ->
      let out = ref [] in
      Array.iteri
        (fun i n -> if n <> "" then out := (i, n) :: !out)
        !name_by_code;
      List.rev !out)

(* ---- per-domain rings ---- *)

type ring = {
  buf : Bytes.t;
  slots : int; (* power of two *)
  cursor : int Atomic.t; (* total events ever claimed on this ring *)
  domain : int;
}

let default_slots = Atomic.make 4096

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let configure ~slots =
  Atomic.set default_slots (pow2_at_least (max 16 slots) 16)

let rings_mu = Mutex.create ()
let rings : ring list ref = ref [] [@@lint.guarded_by rings_mu]

let make_ring () =
  let slots = Atomic.get default_slots in
  let r =
    {
      buf = Bytes.make (slots * slot_bytes) '\000';
      slots;
      cursor = Atomic.make 0;
      domain = (Domain.self () :> int);
    }
  in
  Mutex.protect rings_mu (fun () -> rings := r :: !rings);
  r

let ring_key = Domain.DLS.new_key make_ring

let now_us () = Int64.of_float (Unix.gettimeofday () *. 1e6)

let emit ?(a8 = 0) ?(a16 = 0) ?(a32 = 0) kind =
  if Atomic.get enabled_flag then begin
    let r = Domain.DLS.get ring_key in
    let slot = Atomic.fetch_and_add r.cursor 1 in
    let off = slot land (r.slots - 1) * slot_bytes in
    Bytes.set_int64_le r.buf off (now_us ());
    Bytes.unsafe_set r.buf (off + 8) (Char.unsafe_chr (kind_code kind));
    Bytes.unsafe_set r.buf (off + 9) (Char.unsafe_chr (a8 land 0xff));
    Bytes.set_uint16_le r.buf (off + 10) (a16 land 0xffff);
    Bytes.set_int32_le r.buf (off + 12) (Int32.of_int a32)
  end

(* ---- convenience emitters ---- *)

let query_seq = Atomic.make 1

let begin_query () =
  if Atomic.get enabled_flag then begin
    let id = Atomic.fetch_and_add query_seq 1 land 0x3FFFFFFF in
    emit ~a32:id Query_begin;
    id
  end
  else 0

let end_query id ~results =
  if id <> 0 then emit ~a16:(min results 0xffff) ~a32:id Query_end

let phase_begin code ~qid = emit ~a8:code ~a32:qid Phase_begin
let phase_end code ~qid = emit ~a8:code ~a32:qid Phase_end
let wal_fsync ~dur_us = emit ~a32:dur_us Wal_fsync
let flush_begin ~records = emit ~a32:records Flush_begin
let flush_end ~records = emit ~a32:records Flush_end
let compact_begin ~segments = emit ~a32:segments Compact_begin
let compact_end ~segments = emit ~a32:segments Compact_end
let batch ~size = emit ~a16:(min size 0xffff) Batch

(* ---- lifecycle ---- *)

let lock_wait_hook name wait_us =
  emit ~a8:(intern name) ~a32:wait_us Lock_wait

(* Racesan findings land on the timeline too: a p99 outlier that
   coincides with a race.suspect event is a corruption candidate, not a
   performance mystery. a8 carries the interned cell name, a16 the
   violating domain. *)
let race_suspect_hook name domain =
  emit ~a8:(intern name) ~a16:(domain land 0xffff) Race_suspect

let enable () =
  Atomic.set enabled_flag true;
  Lockdep.set_wait_hook (Some lock_wait_hook);
  Racesan.set_report_hook (Some race_suspect_hook)

let disable () =
  Atomic.set enabled_flag false;
  Lockdep.set_wait_hook None;
  Racesan.set_report_hook None

let reset () =
  Mutex.protect rings_mu (fun () ->
      List.iter
        (fun r ->
          Atomic.set r.cursor 0;
          Bytes.fill r.buf 0 (Bytes.length r.buf) '\000')
        !rings)

let stats () =
  Mutex.protect rings_mu (fun () ->
      List.fold_left
        (fun (total, dropped) r ->
          let c = Atomic.get r.cursor in
          (total + c, dropped + max 0 (c - r.slots)))
        (0, 0) !rings)

(* ---- decoding ---- *)

type event = {
  time_us : int64;
  domain : int;
  kind : kind;
  a8 : int;
  a16 : int;
  a32 : int;
}

let decode_slot buf off domain =
  match kind_of_code (Char.code (Bytes.get buf (off + 8))) with
  | None -> None (* never written, or torn by a concurrent writer *)
  | Some kind ->
    Some
      {
        time_us = Bytes.get_int64_le buf off;
        domain;
        kind;
        a8 = Char.code (Bytes.get buf (off + 9));
        a16 = Bytes.get_uint16_le buf (off + 10);
        a32 = Int32.to_int (Bytes.get_int32_le buf (off + 12)) land 0x7FFFFFFF;
      }

let ring_events r =
  let c = Atomic.get r.cursor in
  let valid = min c r.slots in
  let out = ref [] in
  for i = c - valid to c - 1 do
    match decode_slot r.buf (i land (r.slots - 1) * slot_bytes) r.domain with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  List.rev !out

let events () =
  let rs = Mutex.protect rings_mu (fun () -> !rings) in
  List.concat_map ring_events rs
  |> List.stable_sort (fun a b -> Int64.compare a.time_us b.time_us)

(* ---- binary dump ---- *)

let magic = "NSCQFR1\n"

let write_dump path =
  let evs = events () in
  let names = name_snapshot () in
  let oc = open_out_bin (path ^ ".tmp") in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (* dump time, not the emit path — file writes are the point here *)
      (output_string [@lint.allow io]) oc magic;
      let b = Buffer.create 4096 in
      Buffer.add_uint16_le b (List.length names);
      List.iter
        (fun (code, n) ->
          Buffer.add_uint8 b code;
          Buffer.add_uint16_le b (String.length n);
          Buffer.add_string b n)
        names;
      Buffer.add_int32_le b (Int32.of_int (List.length evs));
      List.iter
        (fun e ->
          Buffer.add_int64_le b e.time_us;
          Buffer.add_uint8 b (kind_code e.kind);
          Buffer.add_uint8 b e.a8;
          Buffer.add_uint16_le b e.a16;
          Buffer.add_int32_le b (Int32.of_int e.a32);
          Buffer.add_uint16_le b (e.domain land 0xffff))
        evs;
      Buffer.output_buffer oc b);
  Sys.rename (path ^ ".tmp") path;
  List.length evs

exception Corrupt of string

let read_dump path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let contents = really_input_string ic (in_channel_length ic) in
      let n = String.length contents in
      if n < String.length magic + 6
         || String.sub contents 0 (String.length magic) <> magic
      then raise (Corrupt "not a flight-recorder dump");
      let pos = ref (String.length magic) in
      let need k =
        if !pos + k > n then raise (Corrupt "truncated dump");
        let p = !pos in
        pos := p + k;
        p
      in
      let u8 () = Char.code contents.[need 1] in
      let u16 () = String.get_uint16_le contents (need 2) in
      let i32 () = Int32.to_int (String.get_int32_le contents (need 4)) in
      let i64 () = String.get_int64_le contents (need 8) in
      let n_names = u16 () in
      let names =
        List.init n_names (fun _ ->
            let code = u8 () in
            let len = u16 () in
            (code, String.sub contents (need len) len))
      in
      let n_events = i32 () in
      if n_events < 0 || n_events > (n / 18) + 1 then
        raise (Corrupt "implausible event count");
      let evs =
        List.init n_events (fun _ ->
            let time_us = i64 () in
            let kc = u8 () in
            let a8 = u8 () in
            let a16 = u16 () in
            let a32 = i32 () land 0x7FFFFFFF in
            let domain = u16 () in
            match kind_of_code kc with
            | Some kind -> Some { time_us; domain; kind; a8; a16; a32 }
            | None -> None)
        |> List.filter_map Fun.id
      in
      (names, evs))

(* ---- rendering ---- *)

let begin_of = function
  | Query_end -> Some Query_begin
  | Phase_end -> Some Phase_begin
  | Flush_end -> Some Flush_begin
  | Compact_end -> Some Compact_begin
  | _ -> None

let describe names e =
  let named code =
    match List.assoc_opt code names with
    | Some n -> n
    | None -> Printf.sprintf "name:%d" code
  in
  match e.kind with
  | Query_begin -> Printf.sprintf "q%d" e.a32
  | Query_end -> Printf.sprintf "q%d results=%d" e.a32 e.a16
  | Phase_begin | Phase_end -> Printf.sprintf "q%d %s" e.a32 (named e.a8)
  | Wal_fsync -> Printf.sprintf "%dus" e.a32
  | Flush_begin | Flush_end -> Printf.sprintf "records=%d" e.a32
  | Compact_begin | Compact_end -> Printf.sprintf "segments=%d" e.a32
  | Batch -> Printf.sprintf "size=%d" e.a16
  | Lock_wait -> Printf.sprintf "%s %dus" (named e.a8) e.a32
  | Race_suspect -> Printf.sprintf "%s d%d" (named e.a8) e.a16

(* Pair an end event with the most recent matching begin on the same
   domain (same name code and query id / payload) to print the elapsed
   time inline. The code and the id stay separate key fields: folded
   into one int they would collide once query ids pass 2^24. *)
let render ?(names = []) evs =
  let buf = Buffer.create 1024 in
  let t0 = match evs with [] -> 0L | e :: _ -> e.time_us in
  let opens : (int * int * int * int, int64) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let rel = Int64.to_float (Int64.sub e.time_us t0) /. 1000. in
      let dur =
        match begin_of e.kind with
        | None ->
          (match e.kind with
          | Query_begin | Phase_begin | Flush_begin | Compact_begin ->
            Hashtbl.replace opens
              (e.domain, kind_code e.kind, e.a8, e.a32)
              e.time_us
          | _ -> ());
          ""
        | Some b -> (
          let key = (e.domain, kind_code b, e.a8, e.a32) in
          match Hashtbl.find_opt opens key with
          | None -> ""
          | Some t ->
            Hashtbl.remove opens key;
            Printf.sprintf "  (%.3f ms)"
              (Int64.to_float (Int64.sub e.time_us t) /. 1000.))
      in
      Buffer.add_string buf
        (Printf.sprintf "%+12.3f ms  d%-2d %-13s %s%s\n" rel e.domain
           (kind_name e.kind) (describe names e) dur))
    evs;
  Buffer.contents buf

let render_json ?(names = []) evs =
  let module J = Textformats.Json in
  let int n = J.Number (float_of_int n) in
  let entry e =
    let name =
      match e.kind with
      | Phase_begin | Phase_end | Lock_wait | Race_suspect -> (
        match List.assoc_opt e.a8 names with
        | Some n -> [ ("name", J.String n) ]
        | None -> [])
      | _ -> []
    in
    J.Object
      ([ ("t_us", J.Number (Int64.to_float e.time_us)); ("domain", int e.domain);
         ("kind", J.String (kind_name e.kind)); ("a8", int e.a8); ("a16", int e.a16);
         ("a32", int e.a32) ]
      @ name)
  in
  J.to_string (J.Array (List.map entry evs))
