let create ?(initial_size = 1024) () =
  let table : (string, string) Hashtbl.t = Hashtbl.create initial_size in
  let stats = Io_stats.create () in
  let get k =
    match Hashtbl.find_opt table k with
    | Some v as r ->
      Io_stats.record_read stats ~bytes:(String.length v);
      r
    | None -> None
  in
  let put k v =
    Io_stats.record_write stats ~bytes:(String.length k + String.length v);
    Hashtbl.replace table k v
  in
  let delete k =
    let present = Hashtbl.mem table k in
    if present then Hashtbl.remove table k;
    present
  in
  {
    Kv.name = "mem";
    get;
    put;
    delete;
    iter = (fun f -> Hashtbl.iter f table);
    iter_keys = (fun f -> Hashtbl.iter (fun k _ -> f k) table);
    length = (fun () -> Hashtbl.length table);
    sync = (fun () -> ());
    close = (fun () -> Hashtbl.reset table);
    stats;
  }
