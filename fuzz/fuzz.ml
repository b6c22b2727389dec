(* Differential fuzzer.

   Long-running randomized cross-checking of the whole stack, beyond what
   the qcheck properties cover per-module: each scenario builds a random
   collection on a random backend, interleaves incremental updates, and
   compares every algorithm/join/semantics combination against the
   value-level oracle and a model of the live records.

     dune exec fuzz/fuzz.exe                  -- 200 scenarios
     dune exec fuzz/fuzz.exe -- 10000         -- more
     dune exec fuzz/fuzz.exe -- 500 99        -- scenarios, seed
     dune exec fuzz/fuzz.exe -- crash 500 99  -- crash-recovery mode
     dune exec fuzz/fuzz.exe -- codec 500 99  -- payload-codec mode
     dune exec fuzz/fuzz.exe -- join 500 99   -- containment-join mode

   Crash mode is the long-running companion to test/test_faults.ml: each
   scenario runs a random update workload behind Storage.Fault with a
   random kill point (clean or torn), reopens, and checks that recovery
   leaves the store consistent, that queries agree with the value-level
   oracle, and that the surviving records are exactly a prefix of the
   updates (update atomicity).

   Codec mode is the companion to test/test_kernels.ml: random postings
   lists with lengths biased to the Plist_blocks block boundaries are
   round-tripped through every payload codec and driven through the
   cursor kernels — over random mixes of in-memory, 'C' and 'V' cursors,
   as a query with some cached and some uncached atoms reads them —
   against the Plist_ref oracle. Every payload is then mutated (bits
   flipped, tails cut, bytes overwritten): a mutant must either decode,
   to a list that re-encodes to the mutant's own bytes and that a cursor
   drains identically, or raise Storage.Codec.Corrupt.

   The differential and live modes sometimes draw a skewed collection:
   150 to 200 records all holding the stopword "a", one of them the rare
   atom "z", and queries that name "z" half the time. The stopword's list
   is then over 128 times the rare one's, so the engine narrows its
   cursors to the rare atom's records (its record filter); each mode
   prints how many queries ran with the filter.

   Exits non-zero on the first divergence, printing a reproducer. *)

module E = Containment.Engine
module S = Containment.Semantics
module V = Nested.Value
module IF = Invfile.Inverted_file

let atoms = [| "a"; "b"; "c"; "d"; "e" |]

let rec random_set rng depth =
  let n_leaves = Random.State.int rng 4 in
  let leaves =
    List.init n_leaves (fun _ -> V.atom atoms.(Random.State.int rng (Array.length atoms)))
  in
  let n_children = if depth >= 3 then 0 else Random.State.int rng 3 in
  let children = List.init n_children (fun _ -> random_set rng (depth + 1)) in
  V.set (leaves @ children)

(* Adds atom [a] to [v] or, at random, to one of its set elements, at
   any depth. *)
let rec plant rng a v =
  let kids = List.filter V.is_set (V.elements v) in
  if kids = [] || Random.State.bool rng then V.add (V.atom a) v
  else
    let k = List.nth kids (Random.State.int rng (List.length kids)) in
    V.set (plant rng a k :: List.filter (fun e -> e != k) (V.elements v))

(* A skewed collection: "a" in every record, "z" in one. *)
let skewed_records rng =
  let n = 150 + Random.State.int rng 51 in
  let rare = Random.State.int rng n in
  List.init n (fun i ->
      let v = plant rng "a" (V.add (V.atom "a") (random_set rng 0)) in
      if i = rare then plant rng "z" v else v)

(* A query over a skewed collection names the rare atom half the time. *)
let random_query rng ~skewed =
  let q = random_set rng 1 in
  if skewed && Random.State.bool rng then plant rng "z" q else q

(* Queries whose trace shows the engine's record filter applied. *)
let filtered = ref 0

let rec filter_applied (s : Obs.Trace.span) =
  (s.Obs.Trace.name = "eval"
  && List.assoc_opt "filter" s.Obs.Trace.attrs = Some "true")
  || List.exists filter_applied s.Obs.Trace.children

let count_filtered f =
  let trace = Obs.Trace.create "query" in
  let r = f trace in
  if filter_applied (Obs.Trace.finish trace) then incr filtered;
  r

let joins rng =
  match Random.State.int rng 5 with
  | 0 -> S.Containment
  | 1 -> S.Equality
  | 2 -> S.Superset
  | 3 -> S.Overlap (1 + Random.State.int rng 3)
  | _ -> S.Similarity (0.25 +. Random.State.float rng 0.75)

let embeddings rng =
  match Random.State.int rng 4 with
  | 0 -> S.Hom
  | 1 -> S.Iso
  | 2 -> S.Homeo
  | _ -> S.Homeo_full

let algorithms = [ ("bu", E.Bottom_up); ("td", E.Top_down); ("naive", E.Naive_scan) ]

let scenario rng i =
  let backend, cleanup =
    match Random.State.int rng 3 with
    | 0 -> (Containment.Collection.Mem, fun () -> ())
    | 1 ->
      let path = Filename.temp_file "fuzz" ".tch" in
      (Containment.Collection.Hash path, fun () -> try Sys.remove path with _ -> ())
    | _ ->
      let path = Filename.temp_file "fuzz" ".log" in
      (Containment.Collection.Log path, fun () -> try Sys.remove path with _ -> ())
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let skewed = Random.State.int rng 4 = 0 in
  let initial =
    if skewed then skewed_records rng
    else List.init (3 + Random.State.int rng 8) (fun _ -> random_set rng 0)
  in
  let inv = Containment.Collection.of_values ~backend initial in
  (* model: live record id -> value *)
  let model : (int, V.t) Hashtbl.t = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace model i v) initial;
  (* a few random updates *)
  for _ = 1 to Random.State.int rng 6 do
    if Random.State.bool rng then begin
      let v = random_set rng 0 in
      let id = Invfile.Updater.add_value inv v in
      Hashtbl.replace model id v
    end
    else begin
      let id = Random.State.int rng (IF.record_count inv) in
      if Invfile.Updater.delete_record inv id then Hashtbl.remove model id
    end
  done;
  (* random queries under random configurations *)
  for _ = 1 to 8 do
    let q = random_query rng ~skewed in
    let join = joins rng and embedding = embeddings rng in
    match S.mode_of join embedding with
    | exception S.Unsupported _ -> ()
    | exception Invalid_argument _ -> ()
    | _ ->
      let expected =
        Hashtbl.fold
          (fun id s acc ->
            if Containment.Embed.check join embedding ~q ~s then id :: acc else acc)
          model []
        |> List.sort Int.compare
      in
      List.iter
        (fun (name, algorithm) ->
          (* the naive scan handles every combination the oracle does *)
          let config = { E.default with E.algorithm; E.join; E.embedding } in
          let got =
            count_filtered (fun trace -> (E.query ~config ~trace inv q).E.records)
          in
          if got <> expected then begin
            Printf.printf "\nDIVERGENCE in scenario %d (%s, %s):\n" i name
              (Format.asprintf "%a × %a" S.pp_join join S.pp_embedding embedding);
            Printf.printf "  query: %s\n" (V.to_string q);
            Hashtbl.iter
              (fun id s -> Printf.printf "  record %d: %s\n" id (V.to_string s))
              model;
            Printf.printf "  got      [%s]\n"
              (String.concat ";" (List.map string_of_int got));
            Printf.printf "  expected [%s]\n"
              (String.concat ";" (List.map string_of_int expected));
            exit 1
          end)
        algorithms
  done;
  (* the collection must remain internally consistent after the updates *)
  (match Invfile.Integrity.check inv with
  | [] -> ()
  | problems ->
    Printf.printf "\nINTEGRITY FAILURE in scenario %d:\n" i;
    List.iter
      (fun p -> Format.printf "  %a@." Invfile.Integrity.pp_problem p)
      problems;
    Hashtbl.iter
      (fun id s -> Printf.printf "  record %d: %s\n" id (V.to_string s))
      model;
    exit 1);
  IF.close inv

(* --- join mode ---

   The prefix-tree join engine against the naive per-query loop: random
   inner collections (random backend, sometimes behind a static cache),
   random outer collections mixing subqueries of records (dense
   positives) with fresh sets, under a random embedding and random
   LIMIT+ cut thresholds — every cut point must stay exact. *)

let join_scenario rng i =
  let backend, cleanup =
    match Random.State.int rng 2 with
    | 0 -> (Containment.Collection.Mem, fun () -> ())
    | _ ->
      let path = Filename.temp_file "fuzz" ".tch" in
      (Containment.Collection.Hash path, fun () -> try Sys.remove path with _ -> ())
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let n0 = Random.State.int rng 12 in
  let inner = List.init n0 (fun _ -> random_set rng 0) in
  let inv = Containment.Collection.of_values ~backend inner in
  Fun.protect ~finally:(fun () -> IF.close inv) @@ fun () ->
  let cache = if Random.State.bool rng then Random.State.int rng 4 else 0 in
  if cache > 0 then Containment.Collection.with_static_cache inv ~budget:cache;
  let inner_arr = Array.of_list inner in
  let rec subquery v =
    if V.is_atom v then v
    else
      V.set
        (List.filter_map
           (fun e ->
             if Random.State.bool rng then None
             else Some (if V.is_set e then subquery e else e))
           (V.elements v))
  in
  let outer =
    List.init
      (Random.State.int rng 8)
      (fun _ ->
        if n0 > 0 && Random.State.bool rng then
          subquery inner_arr.(Random.State.int rng n0)
        else random_set rng 1)
    |> List.filter V.is_set
  in
  let embedding = embeddings rng in
  let config =
    {
      Join.Engine.engine = { E.default with E.embedding };
      max_depth = Random.State.int rng 4;
      cut_candidates = Random.State.int rng 4;
      cut_fanout = 1 + Random.State.int rng 3;
    }
  in
  let got = (Join.Engine.join ~config inv outer).Join.Engine.pairs in
  let expected = Join.Engine.naive ~config:config.Join.Engine.engine inv outer in
  if got <> expected then begin
    Printf.printf "\nJOIN DIVERGENCE in scenario %d:\n" i;
    Printf.printf
      "  config: %s, static cache %d, max_depth=%d cut_candidates=%d \
       cut_fanout=%d\n"
      (Format.asprintf "%a" S.pp_embedding embedding)
      cache config.Join.Engine.max_depth config.Join.Engine.cut_candidates
      config.Join.Engine.cut_fanout;
    List.iteri
      (fun id s -> Printf.printf "  record %d: %s\n" id (V.to_string s))
      inner;
    List.iteri
      (fun qi q -> Printf.printf "  outer %d: %s\n" qi (V.to_string q))
      outer;
    let show ps =
      String.concat ";"
        (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) ps)
    in
    Printf.printf "  got      [%s]\n" (show got);
    Printf.printf "  expected [%s]\n" (show expected);
    exit 1
  end

(* --- crash-recovery mode --- *)

module F = Storage.Fault

let sorted_bindings tbl =
  Hashtbl.fold (fun id v acc -> (id, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let crash_scenario rng i =
  let path = Filename.temp_file "fuzz_crash" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  let n0 = 3 + Random.State.int rng 6 in
  let initial = List.init n0 (fun _ -> random_set rng 0) in
  IF.close
    (Containment.Collection.of_values
       ~backend:(Containment.Collection.Log path) initial);
  (* script the updates up front so every intermediate model state is
     known: after an atomic crash, the store must equal one of them *)
  let n_updates = 2 + Random.State.int rng 8 in
  let slots = ref n0 in
  let updates =
    List.init n_updates (fun _ ->
        if Random.State.int rng 3 > 0 then begin
          incr slots;
          `Add (random_set rng 0)
        end
        else `Delete (Random.State.int rng !slots))
  in
  let states =
    (* model after 0, 1, ..., n updates *)
    let model = Hashtbl.create 16 in
    List.iteri (fun id v -> Hashtbl.replace model id v) initial;
    let next = ref n0 in
    (* bind the initial snapshot before List.map mutates the model —
       [::] gives no evaluation-order guarantee *)
    let s0 = sorted_bindings model in
    s0
    :: List.map
         (fun u ->
           (match u with
           | `Add v ->
             Hashtbl.replace model !next v;
             incr next
           | `Delete id -> Hashtbl.remove model id);
           sorted_bindings model)
         updates
  in
  let config =
    {
      F.default with
      F.seed = i;
      crash_after = Some (1 + Random.State.int rng 80);
      crash_mode = (if Random.State.bool rng then F.Clean else F.Torn);
    }
  in
  let wrapper = F.wrap ~config (Storage.Log_store.open_existing path) in
  (try
     let inv = IF.open_store (F.kv wrapper) in
     List.iter
       (function
         | `Add v -> ignore (Invfile.Updater.add_value inv v)
         | `Delete id -> ignore (Invfile.Updater.delete_record inv id))
       updates
   with F.Crashed _ -> ());
  (F.kv wrapper).Storage.Kv.close ();
  (* reopen: recovery runs in open_store *)
  let inv = IF.open_store (Storage.Log_store.open_existing path) in
  Fun.protect ~finally:(fun () -> IF.close inv) @@ fun () ->
  (match Invfile.Integrity.check inv with
  | [] -> ()
  | problems ->
    Printf.printf "\nCRASH-RECOVERY INTEGRITY FAILURE in scenario %d:\n" i;
    List.iter (fun p -> Format.printf "  %a@." Invfile.Integrity.pp_problem p) problems;
    exit 1);
  let live =
    List.filter_map
      (fun id -> Option.map (fun v -> (id, v)) (IF.record_value_opt inv id))
      (List.init (IF.record_count inv) Fun.id)
  in
  let state_equal a b =
    List.length a = List.length b
    && List.for_all2 (fun (i1, v1) (i2, v2) -> i1 = i2 && V.equal v1 v2) a b
  in
  if not (List.exists (fun st -> state_equal st live) states) then begin
    Printf.printf "\nATOMICITY FAILURE in scenario %d: recovered state is not a\n" i;
    Printf.printf "prefix of the scripted updates.\n";
    List.iter (fun (id, v) -> Printf.printf "  live %d: %s\n" id (V.to_string v)) live;
    List.iteri
      (fun k st ->
        Printf.printf "  state %d: {%s}\n" k
          (String.concat "," (List.map (fun (id, _) -> string_of_int id) st)))
      states;
    List.iteri
      (fun k st ->
        if List.map fst st = List.map fst live then
          List.iter2
            (fun (id, mv) (_, lv) ->
              if not (V.equal mv lv) then
                Printf.printf "  state %d id %d differs:\n    model %s\n    live  %s\n"
                  k id (V.to_string mv) (V.to_string lv))
            st live)
      states;
    exit 1
  end;
  for _ = 1 to 4 do
    let q = random_set rng 1 in
    let expected =
      List.filter_map
        (fun (id, s) ->
          if Containment.Embed.check S.Containment S.Hom ~q ~s then Some id
          else None)
        live
    in
    let got = (E.query inv q).E.records in
    if got <> expected then begin
      Printf.printf "\nCRASH-RECOVERY DIVERGENCE in scenario %d:\n" i;
      Printf.printf "  query: %s\n" (V.to_string q);
      List.iter (fun (id, v) -> Printf.printf "  live %d: %s\n" id (V.to_string v)) live;
      Printf.printf "  got      [%s]\n" (String.concat ";" (List.map string_of_int got));
      Printf.printf "  expected [%s]\n"
        (String.concat ";" (List.map string_of_int expected));
      exit 1
    end
  done

(* --- live mode ---

   The LSM-style live store against a model of the acknowledged records:
   random insert/delete/flush/compact/reopen interleavings under a random
   flush threshold, then random queries under random join × embedding
   configurations checked against the value-level oracle — the
   long-running companion to test/test_live.ml's qcheck differential. *)

module LS = Live.Live_store

let live_scenario rng i =
  let dir = Filename.temp_file "fuzz_live" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
  @@ fun () ->
  let skewed = Random.State.int rng 4 = 0 in
  let config =
    { LS.default with
      (* a skewed collection is inserted in bulk into one part *)
      LS.flush_records = (if skewed then 0 else Random.State.int rng 6);
      max_segments = 0;
      auto_compact = false }
  in
  let store = ref (LS.create ~config dir) in
  let model : (int, V.t) Hashtbl.t = Hashtbl.create 16 in
  if skewed then
    List.iter
      (fun v -> Hashtbl.replace model (LS.insert !store v) v)
      (skewed_records rng);
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "\nLIVE DIVERGENCE in scenario %d: %s\n" i msg;
        Hashtbl.iter
          (fun id s -> Printf.printf "  record %d: %s\n" id (V.to_string s))
          model;
        exit 1)
      fmt
  in
  let ops = 5 + Random.State.int rng 30 in
  for _ = 1 to ops do
    match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 ->
      let v = random_set rng 0 in
      let id = LS.insert !store v in
      if Hashtbl.mem model id then fail "id %d reused" id;
      Hashtbl.replace model id v
    | 5 | 6 ->
      (* a random id: sometimes live, sometimes already gone or bogus *)
      let id = Random.State.int rng (LS.next_id !store + 1) in
      let deleted = LS.delete !store id in
      if deleted <> Hashtbl.mem model id then
        fail "delete %d answered %b against the model" id deleted;
      Hashtbl.remove model id
    | 7 -> ignore (LS.flush !store)
    | 8 -> ignore (LS.compact ~all:(Random.State.bool rng) !store)
    | _ ->
      LS.close !store;
      store := LS.open_store ~config dir
  done;
  Fun.protect ~finally:(fun () -> LS.close !store) @@ fun () ->
  (* the live records are exactly the model *)
  let live =
    List.rev
      (LS.fold_live !store ~init:[] ~f:(fun acc id v -> (id, v) :: acc))
  in
  let wanted =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (Hashtbl.fold (fun id v acc -> (id, v) :: acc) model [])
  in
  if live <> wanted then fail "live records differ from the model";
  (* random queries under random configurations *)
  for _ = 1 to 8 do
    let q = random_query rng ~skewed in
    let join = joins rng and embedding = embeddings rng in
    match S.mode_of join embedding with
    | exception S.Unsupported _ -> ()
    | exception Invalid_argument _ -> ()
    | _ ->
      let expected =
        Hashtbl.fold
          (fun id s acc ->
            if Containment.Embed.check join embedding ~q ~s then id :: acc
            else acc)
          model []
        |> List.sort Int.compare
      in
      let config = { E.default with E.join; E.embedding } in
      let got = count_filtered (fun trace -> LS.query ~config ~trace !store q) in
      if got <> expected then
        fail "query %s under %s: got [%s], expected [%s]" (V.to_string q)
          (Format.asprintf "%a × %a" S.pp_join join S.pp_embedding embedding)
          (String.concat ";" (List.map string_of_int got))
          (String.concat ";" (List.map string_of_int expected))
  done;
  (* and the store must still pass its own fsck *)
  match LS.verify !store with
  | [] -> ()
  | problems ->
    fail "verify: %s"
      (String.concat "; "
         (List.map (fun (what, detail) -> what ^ ": " ^ detail) problems))

(* --- payload-codec mode --- *)

module L = Invfile.Plist
module R = Invfile.Plist_ref
module St = Invfile.Plist_stream

(* Deterministic posting per node id — equal ids carry identical payloads
   across lists, the invariant the intersection kernels assume. *)
let posting_of_id node =
  let h = (node * 2654435761) land 0x3FFFFFFF in
  let n_children = h land 3 in
  let step = 1 + ((h lsr 2) land 7) in
  let children = Array.init n_children (fun k -> node + 1 + ((k + 1) * step)) in
  let parent = if node = 0 || h land 16 = 0 then -1 else (h lsr 5) mod node in
  {
    R.node;
    children;
    leaf_count = (h lsr 8) land 15;
    post = node + ((h lsr 12) land 255);
    parent;
  }

(* Lengths straddling the 128-posting block boundary, half the time. *)
let boundary_lengths = [| 0; 1; 2; 127; 128; 129; 255; 256; 257; 383; 384; 385 |]

let random_plist ?n rng =
  let n =
    match n with
    | Some n -> n
    | None ->
      if Random.State.bool rng then
        boundary_lengths.(Random.State.int rng (Array.length boundary_lengths))
      else Random.State.int rng 600
  in
  let id = ref (Random.State.int rng 1000) in
  let out = ref [] in
  for _ = 1 to n do
    out := posting_of_id !id :: !out;
    (* per-posting stride: runs of 1 produce bitmap blocks, large jumps
       varint blocks — most lists end up mixing both representations *)
    let stride =
      match Random.State.int rng 3 with
      | 0 -> 1
      | 1 -> 1 + Random.State.int rng 8
      | _ -> 1 + Random.State.int rng 5000
    in
    id := !id + stride
  done;
  Array.of_list (List.rev !out)

(* A random mutation of a payload: one flipped bit, a cut tail, or one
   to four bytes overwritten. *)
let mutate rng s =
  let n = String.length s in
  match Random.State.int rng 3 with
  | 0 ->
    let b = Bytes.of_string s in
    let i = Random.State.int rng n in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl Random.State.int rng 8)));
    Bytes.to_string b
  | 1 -> String.sub s 0 (Random.State.int rng n)
  | _ ->
    let b = Bytes.of_string s in
    for _ = 1 to 1 + Random.State.int rng 4 do
      Bytes.set b (Random.State.int rng n) (Char.chr (Random.State.int rng 256))
    done;
    Bytes.to_string b

let codec_scenario rng i =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "\nCODEC FAILURE in scenario %d: %s\n" i m;
        exit 1)
      fmt
  in
  let lists = List.init (1 + Random.State.int rng 4) (fun _ -> random_plist rng) in
  let cols = List.map R.to_plist lists in
  (* a mutant decodes canonically (and a cursor drains the same rows) or
     is refused with Corrupt; nothing else may escape *)
  let check_mutant m =
    let decoded = try Some (L.of_bytes m) with Storage.Codec.Corrupt _ -> None in
    let drained =
      try Some (St.inter_many [ St.cursor_of_bytes m ])
      with Storage.Codec.Corrupt _ -> None
    in
    match decoded, drained with
    | Some back, Some streamed ->
      if not (String.equal (L.to_bytes ~codec:(L.codec_of_bytes m) back) m) then
        fail "mutant of %d bytes decoded but does not re-encode" (String.length m);
      if R.of_plist streamed <> R.of_plist back then
        fail "cursor and decoder disagree on a mutant"
    | None, None -> ()
    | Some _, None | None, Some _ ->
      fail "cursor and decoder disagree on whether a mutant is corrupt"
  in
  List.iter2
    (fun l c ->
      List.iter
        (fun codec ->
          let payload = L.to_bytes ~codec c in
          (match L.of_bytes payload with
          | back ->
            if R.of_plist back <> l then
              fail "round trip diverged (%d postings)" (Array.length l);
            (* canonical: decode-then-encode reproduces the payload *)
            if not (String.equal (L.to_bytes ~codec back) payload) then
              fail "payload not canonical (%d postings)" (Array.length l)
          | exception e -> fail "decode raised %s" (Printexc.to_string e));
          for _ = 1 to 4 do
            match check_mutant (mutate rng payload) with
            | () -> ()
            | exception e -> fail "mutant raised %s" (Printexc.to_string e)
          done)
        [ L.Varint; L.Blocked ])
    lists cols;
  (* the kernels over a random mix of cursor sources vs the oracle *)
  let sources = List.map (fun _ -> Random.State.int rng 3) lists in
  let cursors () =
    List.map2
      (fun source l ->
        match source with
        | 0 -> St.cursor_of_plist l
        | 1 -> St.cursor_of_bytes (L.to_bytes ~codec:L.Blocked l)
        | _ -> St.cursor_of_bytes (L.to_bytes ~codec:L.Varint l))
      sources cols
  in
  if R.of_plist (St.inter_many (cursors ())) <> R.inter_many lists then
    fail "inter_many diverged";
  let u, counts = St.union_with_counts (cursors ()) in
  if Array.mapi (fun k p -> (p, counts.(k))) (R.of_plist u) <> R.union_with_counts lists
  then fail "union_with_counts diverged";
  (* ascending seeks on a cursor vs the oracle's lower_bound *)
  let check_seeks l c =
    let probe = ref 0 in
    for _ = 1 to 16 do
      probe := !probe + Random.State.int rng 100_000;
      let lb = R.lower_bound l !probe in
      let id = St.seek c !probe in
      if lb < Array.length l then begin
        if id <> l.(lb).R.node || R.row (St.head_list c) (St.head_row c) <> l.(lb) then
          fail "seek %d diverged" !probe
      end
      else if id <> St.eof then fail "seek %d diverged" !probe;
      if St.remaining c <> Array.length l - lb then fail "remaining after seek %d" !probe
    done
  in
  check_seeks (List.hd lists) (St.cursor_of_bytes (L.to_bytes ~codec:L.Blocked (List.hd cols)));
  (* lists written with no ~codec take the format of their length —
     varint up to one block, blocked beyond — round-trip byte for byte,
     and drain and seek like the oracle *)
  List.iter
    (fun n ->
      let l = random_plist ~n rng in
      let payload = L.to_bytes (R.to_plist l) in
      let want = if n <= Invfile.Plist_blocks.block_size then L.Varint else L.Blocked in
      if L.codec_of_bytes payload <> want then fail "%d postings written in the wrong format" n;
      (match L.of_bytes payload with
      | back ->
        if not (String.equal (L.to_bytes back) payload) then
          fail "rule payload not canonical (%d postings)" n
      | exception e -> fail "rule payload decode raised %s" (Printexc.to_string e));
      if R.of_plist (St.inter_many [ St.cursor_of_bytes payload ]) <> R.inter_many [ l ] then
        fail "cursor over a rule payload diverged (%d postings)" n;
      check_seeks l (St.cursor_of_bytes payload))
    [ 1; 127; 128; 129; 384 ]

let run ~label ~scenarios ~seed one =
  let rng = Random.State.make [| seed; 0xf022 |] in
  let t0 = Unix.gettimeofday () in
  for i = 1 to scenarios do
    one rng i;
    if i mod 50 = 0 then begin
      Printf.printf "%d %s scenarios ok (%.1fs)\n" i label
        (Unix.gettimeofday () -. t0);
      flush stdout
    end
  done;
  Printf.printf "all %d %s scenarios passed (%.1fs)\n" scenarios label
    (Unix.gettimeofday () -. t0);
  if !filtered > 0 then
    Printf.printf "%d %s queries ran with the record filter\n" !filtered label

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "crash" :: rest ->
    let scenarios, seed =
      match rest with
      | [] -> (100, 1)
      | [ n ] -> (int_of_string n, 1)
      | n :: s :: _ -> (int_of_string n, int_of_string s)
    in
    run ~label:"crash" ~scenarios ~seed crash_scenario
  | _ :: "join" :: rest ->
    let scenarios, seed =
      match rest with
      | [] -> (200, 1)
      | [ n ] -> (int_of_string n, 1)
      | n :: s :: _ -> (int_of_string n, int_of_string s)
    in
    run ~label:"join" ~scenarios ~seed join_scenario
  | _ :: "live" :: rest ->
    let scenarios, seed =
      match rest with
      | [] -> (200, 1)
      | [ n ] -> (int_of_string n, 1)
      | n :: s :: _ -> (int_of_string n, int_of_string s)
    in
    run ~label:"live" ~scenarios ~seed live_scenario
  | _ :: "codec" :: rest ->
    let scenarios, seed =
      match rest with
      | [] -> (200, 1)
      | [ n ] -> (int_of_string n, 1)
      | n :: s :: _ -> (int_of_string n, int_of_string s)
    in
    run ~label:"codec" ~scenarios ~seed codec_scenario
  | _ ->
    let scenarios =
      if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 200
    in
    let seed = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 1 in
    run ~label:"differential" ~scenarios ~seed scenario
