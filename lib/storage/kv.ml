type t = {
  name : string;
  get : string -> string option;
  put : string -> string -> unit;
  delete : string -> bool;
  iter : (string -> string -> unit) -> unit;
  iter_keys : (string -> unit) -> unit;
  length : unit -> int;
  sync : unit -> unit;
  close : unit -> unit;
  stats : Io_stats.t;
}

let mem t k = Option.is_some (t.get k)

let find_exn t k =
  match t.get k with
  | Some v -> v
  | None -> raise Not_found

let update t k f = t.put k (f (t.get k))

let keys t =
  let acc = ref [] in
  t.iter_keys (fun k -> acc := k :: !acc);
  List.sort String.compare !acc

let to_alist t =
  let acc = ref [] in
  t.iter (fun k v -> acc := (k, v) :: !acc);
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc
