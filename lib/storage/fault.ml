exception Crashed of string
exception Injected of string

type crash_mode = Clean | Torn

type config = {
  seed : int;
  crash_after : int option;
  crash_mode : crash_mode;
  read_error_every : int option;
  write_error_every : int option;
  drop_syncs : bool;
}

let default =
  {
    seed = 0;
    crash_after = None;
    crash_mode = Clean;
    read_error_every = None;
    write_error_every = None;
    drop_syncs = false;
  }

type op = Get of string | Put of string | Delete of string | Sync

let pp_op ppf = function
  | Get k -> Format.fprintf ppf "get %S" k
  | Put k -> Format.fprintf ppf "put %S" k
  | Delete k -> Format.fprintf ppf "delete %S" k
  | Sync -> Format.fprintf ppf "sync"

type state = {
  inner : Kv.t;
  cfg : config;
  mutable wops : int;
  mutable rops : int;
  mutable dead : bool;
  mutable log : (int * op) list;  (* newest first *)
}

type t = { state : state; handle : Kv.t }

let kv t = t.handle
let config t = t.state.cfg
let write_ops t = t.state.wops
let read_ops t = t.state.rops
let crashed t = t.state.dead
let trace t = List.rev t.state.log

(* Deterministic cut point for a torn value: depends only on the seed and
   the op number, so a failing sweep iteration replays exactly. *)
let torn_cut s len =
  if len <= 1 then 0
  else
    let h = Hashtbl.hash (s.cfg.seed, s.wops, len) in
    1 + (h mod (len - 1))

let check_alive s what =
  if s.dead then
    raise (Crashed (Printf.sprintf "%s after simulated crash" what))

let wrap ?(config = default) inner =
  let s =
    { inner; cfg = config; wops = 0; rops = 0; dead = false; log = [] }
  in
  let fault () = Io_stats.record_fault inner.Kv.stats in
  let read_op op =
    check_alive s "read";
    s.rops <- s.rops + 1;
    s.log <- (s.rops, op) :: s.log;
    match s.cfg.read_error_every with
    | Some n when n > 0 && s.rops mod n = 0 ->
      fault ();
      raise
        (Injected
           (Format.asprintf "injected read error on op %d (%a)" s.rops pp_op op))
    | _ -> ()
  in
  (* Returns [true] when the op should reach the backend; raises on an
     injected error; marks the process dead at the crash boundary. A torn
     crash lets the caller write a mangled value first. *)
  let write_op op =
    check_alive s "write";
    s.wops <- s.wops + 1;
    s.log <- (s.wops, op) :: s.log;
    (match s.cfg.write_error_every with
    | Some n when n > 0 && s.wops mod n = 0 ->
      fault ();
      raise
        (Injected
           (Format.asprintf "injected write error on op %d (%a)" s.wops pp_op op))
    | _ -> ());
    match s.cfg.crash_after with
    | Some n when s.wops >= n ->
      s.dead <- true;
      fault ();
      `Crash
    | _ -> `Apply
  in
  let crashed_exn op =
    Crashed (Format.asprintf "simulated crash on op %d (%a)" s.wops pp_op op)
  in
  let get k =
    read_op (Get k);
    inner.Kv.get k
  in
  let put k v =
    match write_op (Put k) with
    | `Apply -> inner.Kv.put k v
    | `Crash ->
      (match s.cfg.crash_mode with
      | Clean -> ()
      | Torn -> inner.Kv.put k (String.sub v 0 (torn_cut s (String.length v))));
      raise (crashed_exn (Put k))
  in
  let delete k =
    match write_op (Delete k) with
    | `Apply -> inner.Kv.delete k
    | `Crash ->
      (* a torn delete is one the backend applied before the process died *)
      (match s.cfg.crash_mode with
      | Clean -> ()
      | Torn -> ignore (inner.Kv.delete k));
      raise (crashed_exn (Delete k))
  in
  let sync () =
    match write_op Sync with
    | `Apply -> if s.cfg.drop_syncs then fault () else inner.Kv.sync ()
    | `Crash -> raise (crashed_exn Sync)
  in
  let iter f =
    check_alive s "iter";
    inner.Kv.iter f
  in
  let iter_keys f =
    check_alive s "iter";
    inner.Kv.iter_keys f
  in
  let length () =
    check_alive s "length";
    inner.Kv.length ()
  in
  let handle =
    {
      Kv.name = "fault:" ^ inner.Kv.name;
      get;
      put;
      delete;
      iter;
      iter_keys;
      length;
      sync;
      close = inner.Kv.close;
      stats = inner.Kv.stats;
    }
  in
  { state = s; handle }
