module IF = Invfile.Inverted_file
module E = Containment.Engine
module M = Live_manifest
module P = Containment.Partitioned

type config = {
  flush_records : int;
  max_segments : int;
  auto_compact : bool;
  wal_sync : bool;
  wrap : string -> Storage.Kv.t -> Storage.Kv.t;
}

let default =
  {
    flush_records = 4096;
    max_segments = 8;
    auto_compact = false;
    wal_sync = true;
    wrap = (fun _ kv -> kv);
  }

type t = {
  dir : string;
  config : config;
  mutex : Lockdep.t;
  race : Racesan.cell;
      (* guards the mutable store state below (segments, memtable,
         tombstones, counters that queries read): every locked section
         asserts the contract under NSCQ_TSAN=1 *)
  compact_wake : Condition.t;
  mutable segments : Segment.t list;  (* oldest first; gid ranges ascending *)
  mutable mem : IF.t;
  mutable mem_gids : int array;  (* memtable local id -> global id *)
  mutable mem_len : int;
  mutable mem_live : int;
  tombstones : (int, unit) Hashtbl.t;  (* deleted sealed records *)
  mutable live : int;  (* live records across segments + memtable *)
  mutable next_id : int;
  mutable next_seq : int;
  mutable wal_gen : int;
  mutable wal : Wal.t;
  mutable closed : bool;
  mutable compacting : bool;
  mutable compact_failed : bool;
  mutable compact_error : string option;
  mutable stop_compactor : bool;
  mutable compactor : unit Domain.t option;
  (* counters; read without the lock by metrics callbacks (plain int
     loads — same sampling discipline as Io_stats) *)
  mutable inserts : int;
  mutable deletes : int;
  mutable flushes : int;
  mutable compactions : int;
  mutable flush_hist : Obs.Metrics.histogram option;
  mutable compact_hist : Obs.Metrics.histogram option;
  mutable on_step : string -> unit;
}

let locked t f = Lockdep.protect t.mutex f
let is_live_dir = M.is_live_dir
let dir t = t.dir

(* Every mutating or reading path calls this first while holding
   [t.mutex]; the sanitizer check here covers them all. *)
let ensure_open t =
  Racesan.check t.race;
  if t.closed then invalid_arg "Live_store: store is closed"

let fresh_memtable () =
  Invfile.Builder.finish (Invfile.Builder.create (Storage.Mem_store.create ()))

let push_gid t gid =
  if t.mem_len = Array.length t.mem_gids then begin
    let a = Array.make (max 64 (2 * Array.length t.mem_gids)) 0 in
    Array.blit t.mem_gids 0 a 0 t.mem_len;
    t.mem_gids <- a
  end;
  t.mem_gids.(t.mem_len) <- gid;
  t.mem_len <- t.mem_len + 1

let mem_local_of_gid t gid =
  let lo = ref 0 and hi = ref (t.mem_len - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = t.mem_gids.(mid) in
    if v = gid then found := mid
    else if v < gid then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then None else Some !found

let find_sealed t gid =
  List.find_map
    (fun seg ->
      if gid >= Segment.min_gid seg && gid <= Segment.max_gid seg then
        Option.map (fun local -> (seg, local)) (Segment.local_of_global seg gid)
      else None)
    t.segments

let sorted_tombstones t =
  let a = Array.make (Hashtbl.length t.tombstones) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun gid () ->
      a.(!i) <- gid;
      incr i)
    t.tombstones;
  Array.sort Int.compare a;
  a

(* --- the write paths shared by live calls and WAL replay --- *)

let apply_insert t gid v =
  let local = Invfile.Updater.add_value ~journal:false t.mem v in
  if local <> t.mem_len then
    invalid_arg "Live_store: memtable record ids out of step";
  push_gid t gid;
  if gid >= t.next_id then t.next_id <- gid + 1;
  t.live <- t.live + 1;
  t.mem_live <- t.mem_live + 1

let apply_delete t gid =
  if gid < 0 || gid >= t.next_id then false
  else if t.mem_len > 0 && gid >= t.mem_gids.(0) then (
    match mem_local_of_gid t gid with
    | Some local when not (Invfile.Updater.is_deleted t.mem local) ->
      ignore (Invfile.Updater.delete_record ~journal:false t.mem local);
      t.live <- t.live - 1;
      t.mem_live <- t.mem_live - 1;
      true
    | Some _ | None -> false)
  else
    match find_sealed t gid with
    | Some (seg, local) ->
      if
        Hashtbl.mem t.tombstones gid
        || Invfile.Updater.is_deleted seg.Segment.inv local
      then false
      else begin
        Hashtbl.replace t.tombstones gid ();
        t.live <- t.live - 1;
        true
      end
    | None -> false

(* --- flush --- *)

let signal_compactor t =
  if t.config.auto_compact then begin
    t.compact_failed <- false;
    Condition.broadcast t.compact_wake
  end

(* Seal point. Ordering is the whole crash-safety argument:
   1. build the new segment store and sync it (an orphan file until the
      manifest references it);
   2. create the next WAL generation (also an orphan until then);
   3. write the manifest via temp + atomic rename — the commit point:
      before the rename a reopen replays the old WAL against the old
      segment list, after it the sealed records are in the segment and
      the old WAL is dead;
   4. only then mutate in-memory state and delete the old WAL. *)
let do_flush_locked ?trace t =
  Racesan.check t.race;
  let t0 = Unix.gettimeofday () in
  Obs.Recorder.flush_begin ~records:t.mem_live;
  let run () =
    let new_seg =
      if t.mem_live = 0 then None
      else begin
        let seq = t.next_seq in
        t.next_seq <- t.next_seq + 1;
        let file = M.segment_name seq in
        let seg_path = Filename.concat t.dir file in
        let kv = t.config.wrap seg_path (Storage.Log_store.create seg_path) in
        (* the memtable's ids do not move, so its lists are copied as
           bytes; its deleted records hold no postings and are left out *)
        let inv, kept = Invfile.Merger.merge kv [ Invfile.Merger.source t.mem ] in
        t.on_step "flush:segment-built";
        Some
          {
            Segment.file;
            seg_path;
            inv;
            ids = Array.map (fun local -> t.mem_gids.(local)) (List.hd kept);
          }
      end
    in
    let sealed = t.mem_live in
    let new_gen = t.wal_gen + 1 in
    let new_wal =
      Wal.create ~wrap:t.config.wrap ~sync:t.config.wal_sync
        (M.wal_path t.dir new_gen)
    in
    t.on_step "flush:wal-rotated";
    let segments' =
      t.segments @ (match new_seg with None -> [] | Some s -> [ s ])
    in
    M.save
      {
        M.next_id = t.next_id;
        next_seq = t.next_seq;
        wal_gen = new_gen;
        tombstones = sorted_tombstones t;
        segments = List.map Segment.to_manifest segments';
      }
      (M.path t.dir);
    t.on_step "flush:manifest-swapped";
    let old_wal = t.wal and old_gen = t.wal_gen in
    t.segments <- segments';
    IF.close t.mem;
    t.mem <- fresh_memtable ();
    t.mem_gids <- [||];
    t.mem_len <- 0;
    t.mem_live <- 0;
    t.wal <- new_wal;
    t.wal_gen <- new_gen;
    Wal.close old_wal;
    (try Sys.remove (M.wal_path t.dir old_gen) with Sys_error _ -> ());
    t.flushes <- t.flushes + 1;
    (match t.flush_hist with
    | Some h -> Obs.Metrics.observe h ((Unix.gettimeofday () -. t0) *. 1000.)
    | None -> ());
    signal_compactor t;
    Obs.Recorder.flush_end ~records:sealed;
    sealed
  in
  Obs.Trace.opt_span trace "flush" (fun () ->
      let sealed = run () in
      Obs.Trace.opt_attr trace "records_sealed" (string_of_int sealed);
      Obs.Trace.opt_attr trace "segments" (string_of_int (List.length t.segments));
      sealed)

let flush ?trace t = locked t (fun () -> ensure_open t; do_flush_locked ?trace t)

(* --- writes --- *)

let insert t v =
  if not (Nested.Value.is_set v) then
    invalid_arg "Live_store.insert: value must be a set, not a bare atom";
  locked t (fun () ->
      ensure_open t;
      let gid = t.next_id in
      Wal.append t.wal (Wal.Insert { id = gid; value = v });
      apply_insert t gid v;
      t.inserts <- t.inserts + 1;
      if t.config.flush_records > 0 && t.mem_len >= t.config.flush_records then
        ignore (do_flush_locked t);
      gid)

let delete t gid =
  locked t (fun () ->
      ensure_open t;
      if gid < 0 || gid >= t.next_id then false
      else begin
        (* resolve first so unknown/already-dead ids never reach the WAL *)
        let target =
          if t.mem_len > 0 && gid >= t.mem_gids.(0) then
            match mem_local_of_gid t gid with
            | Some local -> not (Invfile.Updater.is_deleted t.mem local)
            | None -> false
          else
            match find_sealed t gid with
            | Some (seg, local) ->
              (not (Hashtbl.mem t.tombstones gid))
              && not (Invfile.Updater.is_deleted seg.Segment.inv local)
            | None -> false
        in
        if not target then false
        else begin
          Wal.append t.wal (Wal.Delete gid);
          let ok = apply_delete t gid in
          if ok then t.deletes <- t.deletes + 1;
          ok
        end
      end)

(* --- queries ---

   A containment query is a per-record semi-join, so every path below
   evaluates each part — the sealed segments oldest first, then the
   memtable — through the one fan-out, in the calling domain under the
   lock. Segment gid ranges are disjoint and ascending, memtable last, so
   concatenating the translated answers in part order is already the
   sorted merge. *)

let check_engine_config (config : E.config) =
  match config.E.filter_index with
  | Some _ ->
    invalid_arg
      "Live_store: filter_index is per-store and cannot span segments"
  | None -> ()

let parts t =
  List.map
    (fun seg ->
      {
        P.label = "segment:" ^ seg.Segment.file;
        src = seg.Segment.inv;
        translate =
          (fun local ->
            let gid = Segment.global seg local in
            if Hashtbl.mem t.tombstones gid then None else Some gid);
      })
    t.segments
  @ [
      {
        P.label = "memtable";
        src = t.mem;
        translate = (fun local -> Some t.mem_gids.(local));
      };
    ]

let over_parts t config f =
  check_engine_config config;
  locked t (fun () ->
      ensure_open t;
      f (parts t))

let query ?(config = E.default) ?trace t v =
  over_parts t config @@ fun parts ->
  List.concat
    (P.answers ?trace ~translate:P.ids parts ~run:(fun ?trace p ->
         (E.query ~config ?trace p.P.src v).E.records))

let query_batch ?(config = E.default) t values =
  over_parts t config @@ fun parts ->
  let per_part =
    P.answers parts
      ~translate:(fun tr -> List.map (P.ids tr))
      ~run:(fun ?trace:_ p ->
        List.map
          (fun (r : E.result) -> r.E.records)
          (E.query_batch ~config p.P.src values))
  in
  List.fold_right (List.map2 ( @ )) per_part (List.map (fun _ -> []) values)

(* One evaluation per part: each part runs under its own trace, the
   profile is derived from that same trace ([E.profile_of_trace]), and
   the reported record counts are the post-tombstone global ids — so the
   top-level total equals what {!query} returns and the per-part phase
   counts reconcile with a traced {!query}'s per-part spans. *)
let explain ?(config = E.default) ?(target = "live") t v =
  over_parts t config @@ fun parts ->
  let subs =
    P.answers parts
      ~translate:(fun tr (plan, locals) -> (plan, List.length (P.ids tr locals)))
      ~run:(fun ?trace:_ p ->
        let trace = Obs.Trace.create "explain" in
        let locals = (E.query ~config ~trace p.P.src v).E.records in
        ( E.profile_of_trace ~config ~target:p.P.label p.P.src v
            (Obs.Trace.finish trace) (List.length locals),
          locals ))
  in
  Obs.Explain.make ~target
    ~query:(Nested.Syntax.to_string v)
    ~config:
      [
        ("segments", string_of_int (List.length t.segments));
        ("memtable_records", string_of_int t.mem_live);
        ("tombstones", string_of_int (Hashtbl.length t.tombstones));
      ]
    ~records:(List.fold_left (fun n (_, k) -> n + k) 0 subs)
    ~subs:(List.map fst subs) ()

(* Per-part pairs ascend by outer index then gid and the parts' gid
   ranges ascend, so a stable sort on the outer index alone merges. *)
let join ?(config = Join.Engine.default) ?trace t values =
  over_parts t config.Join.Engine.engine @@ fun parts ->
  P.answers ?trace ~translate:P.pairs parts ~run:(fun ?trace p ->
      (Join.Engine.join ~config ?trace p.P.src values).Join.Engine.pairs)
  |> List.concat
  |> List.stable_sort (fun (o1, _) (o2, _) -> Int.compare o1 o2)

let record_value t gid =
  locked t (fun () ->
      ensure_open t;
      if t.mem_len > 0 && gid >= t.mem_gids.(0) then
        Option.bind (mem_local_of_gid t gid) (fun local ->
            IF.record_value_opt t.mem local)
      else
        match find_sealed t gid with
        | Some (seg, local) when not (Hashtbl.mem t.tombstones gid) ->
          IF.record_value_opt seg.Segment.inv local
        | Some _ | None -> None)

let fold_live t ~init ~f =
  locked t (fun () ->
      ensure_open t;
      let acc = ref init in
      List.iter
        (fun seg ->
          let n = IF.record_count seg.Segment.inv in
          for local = 0 to n - 1 do
            let gid = Segment.global seg local in
            if not (Hashtbl.mem t.tombstones gid) then
              match IF.record_value_opt seg.Segment.inv local with
              | Some v -> acc := f !acc gid v
              | None -> ()
          done)
        t.segments;
      for local = 0 to t.mem_len - 1 do
        match IF.record_value_opt t.mem local with
        | Some v -> acc := f !acc t.mem_gids.(local) v
        | None -> ()
      done;
      !acc)

(* --- compaction --- *)

(* The adjacent run to merge: every segment under [~all]; otherwise the
   neighbouring pair with the smallest combined id-map length (a cheap,
   deterministic stand-in for live size — the leveled heuristic). *)
let pick_plan t ~all =
  let segs = Array.of_list t.segments in
  let n = Array.length segs in
  let tombstoned_range () =
    Array.exists
      (fun seg ->
        Array.exists (fun gid -> Hashtbl.mem t.tombstones gid) seg.Segment.ids)
      segs
  in
  if all then
    if n >= 2 || (n = 1 && tombstoned_range ()) then Some (0, n) else None
  else if n < 2 then None
  else begin
    let best = ref 0 and best_cost = ref max_int in
    for i = 0 to n - 2 do
      let cost =
        Array.length segs.(i).Segment.ids
        + Array.length segs.(i + 1).Segment.ids
      in
      if cost < !best_cost then begin
        best := i;
        best_cost := cost
      end
    done;
    Some (!best, 2)
  end

type compact_plan = {
  dst_seq : int;
  src_files : string list;  (* manifest file names, adjacent, in order *)
  src_paths : string list;
  src_ids : int array list;
  tomb_snapshot : (int, unit) Hashtbl.t;
}

let compact ?trace ?(all = false) t =
  let plan =
    locked t (fun () ->
        if t.closed || t.compacting then None
        else
          match pick_plan t ~all with
          | None -> None
          | Some (start, count) ->
            t.compacting <- true;
            let dst_seq = t.next_seq in
            t.next_seq <- t.next_seq + 1;
            let srcs =
              List.filteri
                (fun i _ -> i >= start && i < start + count)
                t.segments
            in
            Some
              {
                dst_seq;
                src_files = List.map (fun s -> s.Segment.file) srcs;
                src_paths = List.map (fun s -> s.Segment.seg_path) srcs;
                src_ids = List.map (fun s -> s.Segment.ids) srcs;
                tomb_snapshot = Hashtbl.copy t.tombstones;
              })
  in
  match plan with
  | None -> None
  | Some plan ->
    let reset_compacting () = locked t (fun () -> t.compacting <- false) in
    Obs.Recorder.compact_begin ~segments:(List.length plan.src_files);
    (try
       let t0 = Unix.gettimeofday () in
       let run () =
         (* heavy phase, off the lock: merge through private handles on
            the immutable sources — the owner keeps serving queries from
            its own handles meanwhile *)
         let dst_file = M.segment_name plan.dst_seq in
         let dst_path = Filename.concat t.dir dst_file in
         let dst_kv =
           t.config.wrap dst_path (Storage.Log_store.create dst_path)
         in
         (* tombstoned records are purged inside the merge: their
            manifest tombstones are dropped at the swap *)
         let srcs =
           List.map2
             (fun src_path ids ->
               let src = IF.open_store (Storage.Log_store.open_existing src_path) in
               ( Invfile.Merger.source src
                   ~keep:(fun local -> not (Hashtbl.mem plan.tomb_snapshot ids.(local))),
                 ids ))
             plan.src_paths plan.src_ids
         in
         let dst, kept =
           Fun.protect
             ~finally:(fun () ->
               List.iter (fun (s, _) -> IF.close s.Invfile.Merger.inv) srcs)
             (fun () -> Invfile.Merger.merge dst_kv (List.map fst srcs))
         in
         let new_ids =
           Array.concat
             (List.map2 (fun (_, ids) kept -> Array.map (Array.get ids) kept) srcs kept)
         in
         let purged = Hashtbl.create 16 in
         List.iter
           (fun ids ->
             Array.iter
               (fun gid ->
                 if Hashtbl.mem plan.tomb_snapshot gid then Hashtbl.replace purged gid ())
               ids)
           plan.src_ids;
         (try t.on_step "compact:dst-built"
          with e ->
            IF.close dst;
            raise e);
         (* the handle that built the segment serves it: taking the lock
            for the swap hands it to the owner *)
         let merged =
           locked t (fun () ->
               Racesan.check t.race;
               if t.closed then begin
                 IF.close dst;
                 (try Sys.remove dst_path with Sys_error _ -> ());
                 None
               end
               else begin
                 let dst_seg =
                   { Segment.file = dst_file; seg_path = dst_path; inv = dst; ids = new_ids }
                 in
                 let in_srcs s =
                   List.exists (String.equal s.Segment.file) plan.src_files
                 in
                 let replaced = ref false in
                 let segments' =
                   List.concat_map
                     (fun s ->
                       if in_srcs s then
                         if !replaced then []
                         else begin
                           replaced := true;
                           [ dst_seg ]
                         end
                       else [ s ])
                     t.segments
                 in
                 Hashtbl.iter
                   (fun gid () -> Hashtbl.remove t.tombstones gid)
                   purged;
                 M.save
                   {
                     M.next_id = t.next_id;
                     next_seq = t.next_seq;
                     wal_gen = t.wal_gen;
                     tombstones = sorted_tombstones t;
                     segments = List.map Segment.to_manifest segments';
                   }
                   (M.path t.dir);
                 t.on_step "compact:manifest-swapped";
                 let old =
                   List.filter (fun s -> in_srcs s) t.segments
                 in
                 t.segments <- segments';
                 List.iter
                   (fun s ->
                     (try Segment.close s with _ -> ());
                     try Sys.remove s.Segment.seg_path with Sys_error _ -> ())
                   old;
                 t.compactions <- t.compactions + 1;
                 (match t.compact_hist with
                 | Some h ->
                   Obs.Metrics.observe h
                     ((Unix.gettimeofday () -. t0) *. 1000.)
                 | None -> ());
                 Some (List.length plan.src_files)
               end)
         in
         merged
       in
       let result =
         Obs.Trace.opt_span trace "compact" (fun () ->
             let r = run () in
             Obs.Trace.opt_attr trace "segments_merged"
               (string_of_int (List.length plan.src_files));
             Obs.Trace.opt_attr trace "merged"
               (match r with Some _ -> "true" | None -> "false");
             r)
       in
       reset_compacting ();
       Obs.Recorder.compact_end
         ~segments:(match result with Some n -> n | None -> 0);
       result
     with exn ->
       reset_compacting ();
       Obs.Recorder.compact_end ~segments:0;
       raise exn)

(* --- background compaction domain --- *)

let need_compact t =
  t.config.max_segments > 0
  && List.length t.segments > t.config.max_segments
  && not t.compacting && not t.compact_failed

let compactor_loop t () =
  let rec loop () =
    let go =
      locked t (fun () ->
          while not t.stop_compactor && not (need_compact t) do
            Lockdep.wait t.compact_wake t.mutex
          done;
          not t.stop_compactor)
    in
    if go then begin
      (try ignore (compact t)
       with exn ->
         (* record and pause until the next flush signals; retrying in a
            tight loop against a persistent error would spin *)
         locked t (fun () ->
             t.compact_failed <- true;
             t.compact_error <- Some (Printexc.to_string exn)));
      loop ()
    end
  in
  loop ()

(* --- lifecycle --- *)

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let make ~config ~dir ~manifest:(m : M.t) ~wal ~segments ~replay =
  let mutex = Lockdep.create "live.store" in
  let t =
    {
      dir;
      config;
      mutex;
      race = Racesan.register ~name:"live.store.state" ~lock:mutex;
      compact_wake = Condition.create ();
      segments;
      mem = fresh_memtable ();
      mem_gids = [||];
      mem_len = 0;
      mem_live = 0;
      tombstones = Hashtbl.create 64;
      live = 0;
      next_id = m.M.next_id;
      next_seq = m.M.next_seq;
      wal_gen = m.M.wal_gen;
      wal;
      closed = false;
      compacting = false;
      compact_failed = false;
      compact_error = None;
      stop_compactor = false;
      compactor = None;
      inserts = 0;
      deletes = 0;
      flushes = 0;
      compactions = 0;
      flush_hist = None;
      compact_hist = None;
      on_step = (fun _ -> ());
    }
  in
  Array.iter (fun gid -> Hashtbl.replace t.tombstones gid ()) m.M.tombstones;
  t.live <-
    List.fold_left (fun acc seg -> acc + Segment.live_count seg) 0 segments
    - Hashtbl.length t.tombstones;
  List.iter
    (function
      | Wal.Insert { id; value } -> apply_insert t id value
      | Wal.Delete gid -> ignore (apply_delete t gid))
    replay;
  if config.auto_compact then
    t.compactor <- Some (Domain.spawn (compactor_loop t));
  t

let create ?(config = default) dir =
  if M.is_live_dir dir then
    invalid_arg (Printf.sprintf "Live_store.create: %s is already a live store" dir);
  mkdir_p dir;
  let wal =
    Wal.create ~wrap:config.wrap ~sync:config.wal_sync (M.wal_path dir 0)
  in
  M.save M.empty (M.path dir);
  make ~config ~dir ~manifest:M.empty ~wal ~segments:[] ~replay:[]

(* Files a crash can orphan: a sealed-but-uncommitted segment, a rotated-
   but-uncommitted WAL generation, a manifest temp file. Anything in the
   directory the manifest does not reference is one of those — delete it
   before opening, so segment sequence numbers can be reused safely. *)
let clean_orphans dir (m : M.t) =
  let referenced = M.wal_name m.M.wal_gen :: List.map (fun s -> s.M.file) m.M.segments in
  Array.iter
    (fun entry ->
      let orphan_kind =
        (String.length entry >= 4 && String.sub entry 0 4 = "seg-")
        || (String.length entry >= 4 && String.sub entry 0 4 = "wal-")
        || Filename.check_suffix entry ".tmp"
      in
      if orphan_kind && not (List.exists (String.equal entry) referenced) then
        try Sys.remove (Filename.concat dir entry) with Sys_error _ -> ())
    (Sys.readdir dir)

let open_store ?(config = default) dir =
  let m = M.load (M.path dir) in
  clean_orphans dir m;
  let segments =
    List.map (Segment.open_seg ~wrap:config.wrap ~dir) m.M.segments
  in
  let wal_file = M.wal_path dir m.M.wal_gen in
  let wal, replay =
    if Sys.file_exists wal_file then
      Wal.open_existing ~wrap:config.wrap ~sync:config.wal_sync wal_file
    else (Wal.create ~wrap:config.wrap ~sync:config.wal_sync wal_file, [])
  in
  make ~config ~dir ~manifest:m ~wal ~segments ~replay

let close t =
  let proceed =
    locked t (fun () ->
        if t.closed then false
        else begin
          t.closed <- true;
          t.stop_compactor <- true;
          Condition.broadcast t.compact_wake;
          true
        end)
  in
  if proceed then begin
    (match t.compactor with
    | Some d ->
      Domain.join d;
      t.compactor <- None
    | None -> ());
    locked t (fun () ->
        List.iter (fun s -> try Segment.close s with _ -> ()) t.segments;
        (try IF.close t.mem with _ -> ());
        try Wal.close t.wal with _ -> ())
  end

(* --- introspection --- *)

let segment_count t = locked t (fun () -> List.length t.segments)
let memtable_records t = locked t (fun () -> t.mem_live)
let live_records t = locked t (fun () -> t.live)
let tombstone_count t = locked t (fun () -> Hashtbl.length t.tombstones)
let next_id t = locked t (fun () -> t.next_id)

let totals t =
  locked t (fun () ->
      [
        ("records_live", t.live);
        ("memtable_records", t.mem_live);
        ("segments", List.length t.segments);
        ("tombstones", Hashtbl.length t.tombstones);
        ("next_id", t.next_id);
        ("wal_ops", Wal.length t.wal);
        ("inserts_total", t.inserts);
        ("deletes_total", t.deletes);
        ("flushes_total", t.flushes);
        ("compactions_total", t.compactions);
      ])

let register reg ?(labels = []) t =
  let cb ?help kind name f =
    Obs.Metrics.register_callback reg ?help ~labels ~kind name f
  in
  cb `Gauge "nscq_live_memtable_records"
    ~help:"Live records currently in the memtable"
    (fun () -> float_of_int t.mem_live);
  cb `Gauge "nscq_live_segments" ~help:"Sealed segments" (fun () ->
      float_of_int (List.length t.segments));
  cb `Gauge "nscq_live_records" ~help:"Live records (segments + memtable)"
    (fun () -> float_of_int t.live);
  cb `Gauge "nscq_live_tombstones" ~help:"Deleted sealed records not yet purged"
    (fun () -> float_of_int (Hashtbl.length t.tombstones));
  cb `Counter "nscq_live_inserts_total" ~help:"Accepted inserts" (fun () ->
      float_of_int t.inserts);
  cb `Counter "nscq_live_deletes_total" ~help:"Accepted deletes" (fun () ->
      float_of_int t.deletes);
  cb `Counter "nscq_live_flushes_total" ~help:"Memtable flushes" (fun () ->
      float_of_int t.flushes);
  cb `Counter "nscq_live_compactions_total" ~help:"Compactions completed"
    (fun () -> float_of_int t.compactions);
  t.flush_hist <-
    Some
      (Obs.Metrics.histogram reg ~labels ~help:"Flush duration (ms)"
         "nscq_live_flush_ms");
  t.compact_hist <-
    Some
      (Obs.Metrics.histogram reg ~labels ~help:"Compaction duration (ms)"
         "nscq_live_compact_ms")

(* --- verification & repair --- *)

let verify t =
  locked t (fun () ->
      ensure_open t;
      let problems = ref [] in
      let add what detail = problems := (what, detail) :: !problems in
      let prev_max = ref (-1) in
      List.iter
        (fun seg ->
          let what = "segment " ^ seg.Segment.file in
          List.iter
            (fun (p : Invfile.Integrity.problem) ->
              add what (p.Invfile.Integrity.what ^ ": " ^ p.Invfile.Integrity.detail))
            (Invfile.Integrity.check seg.Segment.inv);
          let ids = seg.Segment.ids in
          if Array.length ids <> IF.record_count seg.Segment.inv then
            add what "id map length disagrees with record count";
          Array.iteri
            (fun i gid ->
              if i > 0 && gid <= ids.(i - 1) then
                add what "id map not strictly ascending")
            ids;
          if Array.length ids > 0 then begin
            if ids.(0) <= !prev_max then
              add what "global id range overlaps the previous segment";
            prev_max := max !prev_max ids.(Array.length ids - 1)
          end)
        t.segments;
      Hashtbl.iter
        (fun gid () ->
          match find_sealed t gid with
          | Some _ -> ()
          | None ->
            add "tombstones"
              (Printf.sprintf "tombstone %d resolves to no sealed record" gid))
        t.tombstones;
      List.iter (fun m -> add "wal" m) (Wal.verify t.wal);
      List.iter
        (fun (p : Invfile.Integrity.problem) ->
          add "memtable" (p.Invfile.Integrity.what ^ ": " ^ p.Invfile.Integrity.detail))
        (Invfile.Integrity.check t.mem);
      List.rev !problems)

let repair t =
  locked t (fun () ->
      ensure_open t;
      let parts =
        List.map (fun seg -> ("segment " ^ seg.Segment.file, seg.Segment.inv)) t.segments
        @ [ ("memtable", t.mem) ]
      in
      List.filter_map
        (fun (part, inv) ->
          let report = E.repair inv in
          if report.E.rolled_back > 0 || Option.is_some report.E.rebuilt then
            Some (Format.asprintf "%s: %a" part E.pp_repair_report report)
          else None)
        parts)

let set_step_hook t hook = t.on_step <- hook
let internal_memtable t = locked t (fun () -> t.mem)
