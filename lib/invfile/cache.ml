type policy = Static | Lru | Lfu

(* Lru uses an intrusive doubly-linked recency list (O(1) touch/evict);
   Lfu evicts in amortized batches (scanning is O(n), so a tenth of the
   capacity is dropped per scan); Static never changes after preloading. *)

type node = {
  key : string;
  list : Plist.t;
  mutable uses : int;
  mutable prev : node option;  (* towards MRU *)
  mutable next : node option;  (* towards LRU *)
}

type t = {
  pol : policy;
  cap : int;
  table : (string, node) Hashtbl.t;
  mutable mru : node option;
  mutable lru : node option;
}

let create pol ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  { pol; cap = capacity; table = Hashtbl.create (max 16 capacity); mru = None; lru = None }

let policy t = t.pol
let capacity t = t.cap
let size t = Hashtbl.length t.table

(* --- recency list maintenance (only exercised under Lru) --- *)

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.mru <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.mru;
  (match t.mru with Some m -> m.prev <- Some n | None -> ());
  t.mru <- Some n;
  if t.lru = None then t.lru <- Some n

let touch t n =
  match t.pol, t.mru with
  | Lru, Some m when m == n -> ()
  | Lru, _ ->
    unlink t n;
    push_front t n
  | (Static | Lfu), _ -> ()

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some n ->
    n.uses <- n.uses + 1;
    touch t n;
    Some n.list

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some n ->
    if t.pol = Lru then unlink t n;
    Hashtbl.remove t.table key

let evict t =
  match t.pol with
  | Static -> ()
  | Lru -> (
    match t.lru with
    | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key
    | None -> ())
  | Lfu ->
    (* batch-evict the ~10% least used to amortize the scan *)
    let batch = max 1 (t.cap / 10) in
    let nodes = Hashtbl.fold (fun _ n acc -> n :: acc) t.table [] in
    let by_uses = List.sort (fun a b -> Int.compare a.uses b.uses) nodes in
    List.iteri (fun i n -> if i < batch then Hashtbl.remove t.table n.key) by_uses

let add_entry t key list =
  let n = { key; list; uses = 1; prev = None; next = None } in
  Hashtbl.replace t.table key n;
  if t.pol = Lru then push_front t n

let admits t =
  t.cap > 0 && match t.pol with Static -> size t < t.cap | Lru | Lfu -> true

let insert t key list =
  if t.cap > 0 && not (Hashtbl.mem t.table key) then
    match t.pol with
    | Static -> if size t < t.cap then add_entry t key list
    | Lru | Lfu ->
      if size t >= t.cap then evict t;
      add_entry t key list

let preload t entries =
  List.iter (fun (key, list) -> if size t < t.cap then add_entry t key list) entries

let clear t =
  Hashtbl.reset t.table;
  t.mru <- None;
  t.lru <- None

let cached_atoms t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort String.compare
