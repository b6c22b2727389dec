type kind = Hash | Btree | Log

exception Not_a_store of string * string

let formats =
  [ (Hash_store.magic, Hash); (Btree_store.magic, Btree); (Log_store.magic, Log) ]

let kind path =
  let refuse reason = raise (Not_a_store (path, reason)) in
  if not (Sys.file_exists path) then refuse "does not exist";
  if Sys.is_directory path then refuse "is a directory, not a store file";
  let header =
    In_channel.with_open_bin path (fun ic -> In_channel.really_input_string ic 8)
  in
  match Option.bind header (fun h -> List.assoc_opt h formats) with
  | Some k -> k
  | None -> refuse "not an nscq store file (unrecognized header)"

let open_existing path =
  match kind path with
  | Hash -> Hash_store.open_existing path
  | Btree -> Btree_store.open_existing path
  | Log -> Log_store.open_existing path
