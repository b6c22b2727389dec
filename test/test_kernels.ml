(* Differential tests for the candidate kernels.

   Plist_stream's n-way operations — galloping over in-memory cursors,
   block skipping over 'C' payloads, sequential reads of 'V' payloads,
   and any mix of the three, which is what a query with some cached and
   some uncached atoms reads — and the blocked 'C' payload format of
   Plist_blocks must agree, byte for byte, with the frozen Plist_ref
   oracle on every input.
   Generators derive each posting deterministically from its node id, so
   equal ids always carry identical payloads: the invariant every
   intersection kernel relies on when lists come from the same builder.
   Inputs are generated as record arrays (the oracle's representation)
   and converted to columnar lists for the kernels; results are compared
   through Plist_ref.of_plist, since a columnar list may share longer
   arrays with the buffer that built it. *)

module L = Invfile.Plist
module R = Invfile.Plist_ref
module B = Invfile.Plist_blocks
module St = Invfile.Plist_stream

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Children strictly increasing and above the node id, parent strictly
   below it (or -1): the shape of real builder output, where ids are
   pre-order DFS ranks. *)
let posting_of_id node =
  let h = (node * 2654435761) land 0x3FFFFFFF in
  let n_children = h land 3 in
  let step = 1 + ((h lsr 2) land 7) in
  let children = Array.init n_children (fun i -> node + 1 + ((i + 1) * step)) in
  let parent = if node = 0 || h land 16 = 0 then -1 else (h lsr 5) mod node in
  {
    R.node;
    children;
    leaf_count = (h lsr 8) land 15;
    post = node + ((h lsr 12) land 255);
    parent;
  }

(* Raw int lists keep QCheck's built-in shrinking; the transform to a
   sorted, deduplicated postings array happens inside each property. *)
let plist_of_ints ints =
  ints
  |> List.map (fun i -> i land 0xFFFFF)
  |> List.sort_uniq Int.compare
  |> List.map posting_of_id
  |> Array.of_list

let same name (a : L.t) (b : R.t) =
  if R.of_plist a <> b then
    Alcotest.failf "%s: kernels diverge (%d vs %d postings)" name
      (L.length a) (Array.length b);
  (* equal rows must also mean payloads byte-identical once re-encoded *)
  List.iter
    (fun codec ->
      if not (String.equal (L.to_bytes ~codec a) (L.to_bytes ~codec (R.to_plist b)))
      then
        Alcotest.failf "%s: equal lists re-encode differently" name)
    [ L.Varint; L.Blocked ];
  true

(* --- binary operations vs the oracle --- *)

(* Two id bounds: 600 forces heavy overlap and dense blocks, 200_000
   yields sparse lists whose intersection exercises skipping. *)
let arb_pair bound =
  QCheck.(pair (list (int_bound bound)) (list (int_bound bound)))

(* The three cursor sources: a decoded (cached) list, a 'C' payload and
   a 'V' payload. *)
let mem l = St.cursor_of_plist (R.to_plist l)
let payload codec l = L.to_bytes ~codec (R.to_plist l)
let blocked l = St.cursor_of_bytes (payload L.Blocked l)
let varint l = St.cursor_of_bytes (payload L.Varint l)

let inter2 src_a src_b a b = St.inter_many [ src_a a; src_b b ]

let prop_inter (xs, ys) =
  let a = plist_of_ints xs and b = plist_of_ints ys in
  same "inter" (inter2 mem mem a b) (R.inter a b)
  && same "inter sym" (inter2 mem mem b a) (R.inter b a)
  && same "inter mem/blocked" (inter2 mem blocked a b) (R.inter a b)
  && same "inter varint/mem" (inter2 varint mem a b) (R.inter a b)

let prop_union (xs, ys) =
  let a = plist_of_ints xs and b = plist_of_ints ys in
  same "union"
    (fst (St.union_with_counts [ mem a; blocked b ]))
    (R.union a b)

(* Skewed sizes: the small side drives, the big side gallops (in memory)
   or skips blocks (payload). *)
let arb_skewed =
  QCheck.(pair (list_of_size Gen.(0 -- 4) (int_bound 200_000))
            (list_of_size Gen.(100 -- 400) (int_bound 200_000)))

let prop_inter_skewed (xs, ys) =
  let small = plist_of_ints xs and big = plist_of_ints ys in
  same "gallop" (inter2 mem mem small big) (R.inter small big)
  && same "gallop sym" (inter2 mem mem big small) (R.inter big small)
  && same "skip blocks" (inter2 mem blocked small big) (R.inter small big)

(* --- n-way operations over mixed cursor sources --- *)

let arb_family bound =
  QCheck.(list_of_size Gen.(1 -- 5) (list (int_bound bound)))

(* Rotate the sources across the family, from two offsets so every
   position sees every source: the kernels must not care whether an input
   is a decoded list, a 'C' payload or a 'V' payload. *)
let mixed ~offset lists =
  List.mapi
    (fun i l ->
      match (i + offset) mod 3 with 0 -> mem l | 1 -> blocked l | _ -> varint l)
    lists

let prop_inter_many ints_lists =
  let lists = List.map plist_of_ints ints_lists in
  List.for_all
    (fun offset ->
      same "inter_many" (St.inter_many (mixed ~offset lists)) (R.inter_many lists))
    [ 0; 1; 2 ]

let counts_same name (l, counts) b =
  let a = Array.mapi (fun k p -> (p, counts.(k))) (R.of_plist l) in
  if a <> b then
    Alcotest.failf "%s: multiset kernels diverge (%d vs %d entries)" name
      (Array.length a) (Array.length b);
  true

let prop_union_with_counts ints_lists =
  let lists = List.map plist_of_ints ints_lists in
  List.for_all
    (fun offset ->
      counts_same "union_with_counts"
        (St.union_with_counts (mixed ~offset lists))
        (R.union_with_counts lists))
    [ 0; 1; 2 ]

(* --- serialization: round trips and canonical bytes --- *)

let prop_roundtrip ints =
  let l = plist_of_ints ints in
  List.for_all
    (fun codec ->
      let payload = payload codec l in
      let back = L.of_bytes payload in
      if R.of_plist back <> l then Alcotest.failf "round trip lost postings";
      if L.codec_of_bytes payload <> codec then
        Alcotest.failf "codec tag not preserved";
      (* canonical: re-encoding the decoded list reproduces the payload *)
      if not (String.equal (L.to_bytes ~codec back) payload) then
        Alcotest.failf "payload not canonical";
      true)
    [ L.Varint; L.Blocked ]

(* --- cursors: sequential reads and seek --- *)

let cursors_of l = [ ("mem", mem l); ("varint", varint l); ("blocked", blocked l) ]

let prop_cursor_drain ints =
  let l = plist_of_ints ints in
  List.for_all
    (fun (name, c) ->
      check_int (name ^ " remaining") (Array.length l) (St.remaining c);
      Array.iter
        (fun p ->
          if St.head c = St.eof then Alcotest.failf "%s: cursor ended early" name;
          let q = R.row (St.head_list c) (St.head_row c) in
          if q <> p then
            Alcotest.failf "%s: decoded node %d, expected %d" name q.R.node p.R.node;
          St.advance c)
        l;
      check_bool (name ^ " exhausted") true (St.head c = St.eof);
      true)
    (cursors_of l)

(* Ascending probes against every cursor source: seek must land on
   exactly the posting the oracle's lower_bound names, and account for
   every skipped posting in [remaining]. *)
let prop_cursor_skip_to (ints, probes) =
  let l = plist_of_ints ints in
  let probes = List.sort_uniq Int.compare (List.map (fun i -> i land 0xFFFFF) probes) in
  List.for_all
    (fun (name, c) ->
      List.iter
        (fun id ->
          let lb = R.lower_bound l id in
          let got = St.seek c id in
          if lb = Array.length l then begin
            if got <> St.eof then
              Alcotest.failf "%s: seek %d landed on node %d past the end" name id got
          end
          else if got = St.eof then Alcotest.failf "%s: seek %d ended early" name id
          else if R.row (St.head_list c) (St.head_row c) <> l.(lb) then
            Alcotest.failf "%s: seek %d landed on node %d" name id got;
          check_int
            (Printf.sprintf "%s remaining after seek %d" name id)
            (Array.length l - lb) (St.remaining c))
        probes;
      true)
    (cursors_of l)

(* --- restricted cursors: the lists filtered to node-id ranges ---

   A restricted cursor must read exactly as the oracle list filtered to
   its ranges, over every source, through every kernel. Ranges come from
   (gap, width) pairs: a zero gap makes a range adjacent to the one
   before it. *)

let ranges_of_pairs pairs =
  let _, spans =
    List.fold_left
      (fun (from, acc) (gap, width) ->
        let lo = from + gap in
        let hi = lo + 1 + width in
        (hi, (lo, hi) :: acc))
      (0, []) pairs
  in
  Array.of_list (List.rev spans)

let in_spans spans id = Array.exists (fun (lo, hi) -> lo <= id && id < hi) spans

let filtered spans (l : R.t) =
  Array.of_list (List.filter (fun p -> in_spans spans p.R.node) (Array.to_list l))

let restricted_sources spans =
  let within = St.ranges spans in
  [
    ("mem", fun l -> St.cursor_of_plist ~within (R.to_plist l));
    ("blocked", fun l -> St.cursor_of_bytes ~within (payload L.Blocked l));
    ("varint", fun l -> St.cursor_of_bytes ~within (payload L.Varint l));
  ]

(* Range pairs scaled to the id bound, so ranges cover some ids and
   skip others (and some run past the last id). *)
let arb_ranges bound =
  QCheck.(list_of_size Gen.(0 -- 6) (pair (int_bound (bound / 4)) (int_bound (bound / 8))))

(* Many short ranges over dense ids: gaps of zero, one or a few ids. *)
let arb_ranges_dense =
  QCheck.(list_of_size Gen.(0 -- 40) (pair (int_bound 3) (int_bound 12)))

let restricted_drain_same name spans l c =
  let expect = filtered spans l in
  Array.iter
    (fun p ->
      if St.head c = St.eof then Alcotest.failf "%s: restricted cursor ended early" name;
      let q = R.row (St.head_list c) (St.head_row c) in
      if q <> p then
        Alcotest.failf "%s: restricted head %d, expected %d" name q.R.node p.R.node;
      St.advance c)
    expect;
  if St.head c <> St.eof then
    Alcotest.failf "%s: restricted cursor read node %d past its ranges" name (St.head c);
  check_int (name ^ " exhausted remaining") 0 (St.remaining c)

let prop_restricted_drain (ints, pairs) =
  let l = plist_of_ints ints and spans = ranges_of_pairs pairs in
  List.for_all
    (fun (name, src) ->
      restricted_drain_same name spans l (src l);
      (* inter_many of one cursor drains it; a decoded list is copied *)
      same (name ^ " drain") (St.inter_many [ src l ]) (filtered spans l))
    (restricted_sources spans)

let prop_restricted_seek ((ints, pairs), probes) =
  let l = plist_of_ints ints and spans = ranges_of_pairs pairs in
  let expect = filtered spans l in
  let probes = List.sort_uniq Int.compare (List.map (fun i -> i land 0xFFFFF) probes) in
  List.for_all
    (fun (name, src) ->
      let c = src l in
      List.iter
        (fun id ->
          let lb = R.lower_bound expect id in
          let got = St.seek c id in
          if lb = Array.length expect then begin
            if got <> St.eof then
              Alcotest.failf "%s: restricted seek %d landed on node %d past the end"
                name id got
          end
          else if got = St.eof then
            Alcotest.failf "%s: restricted seek %d ended early" name id
          else if R.row (St.head_list c) (St.head_row c) <> expect.(lb) then
            Alcotest.failf "%s: restricted seek %d landed on node %d" name id got;
          (* head after seek stays put *)
          check_int (name ^ " head after seek") got (St.head c))
        probes;
      true)
    (restricted_sources spans)

let mixed_restricted ~offset spans lists =
  let srcs = Array.of_list (List.map snd (restricted_sources spans)) in
  List.mapi (fun i l -> srcs.((i + offset) mod 3) l) lists

let prop_restricted_inter_many ((ints_lists, pairs), among) =
  let lists = List.map plist_of_ints ints_lists and spans = ranges_of_pairs pairs in
  let expect = R.inter_many (List.map (filtered spans) lists) in
  let among = Array.of_list (List.sort_uniq Int.compare among) in
  List.for_all
    (fun offset ->
      same "restricted inter_many"
        (St.inter_many (mixed_restricted ~offset spans lists))
        expect
      && same "restricted inter_many ~among"
           (St.inter_many ~among (mixed_restricted ~offset spans lists))
           (R.restrict expect among))
    [ 0; 1; 2 ]

let prop_restricted_union ((ints_lists, pairs) : int list list * (int * int) list) =
  let lists = List.map plist_of_ints ints_lists and spans = ranges_of_pairs pairs in
  List.for_all
    (fun offset ->
      counts_same "restricted union_with_counts"
        (St.union_with_counts (mixed_restricted ~offset spans lists))
        (R.union_with_counts (List.map (filtered spans) lists)))
    [ 0; 1; 2 ]

(* Edge cases over bitmap ('dense', consecutive ids) and sparse varint
   blocks ('sparse', stride 1009), 1000 postings: eight blocks. *)
let test_restricted_edges () =
  List.iter
    (fun (shape, stride) ->
      let l = Array.init 1000 (fun i -> posting_of_id (i * stride)) in
      let last = 999 * stride in
      let b1 = 128 * stride in
      List.iter
        (fun (case, spans) ->
          List.iter
            (fun (name, src) ->
              let ctx = Printf.sprintf "%s %s %s" shape case name in
              restricted_drain_same ctx spans l (src l))
            (restricted_sources spans))
        [
          ("no ranges", [||]);
          ("adjacent", [| (0, stride * 3); (stride * 3, stride * 5); (stride * 5, stride * 6) |]);
          ("inside one block", [| (b1 + stride, b1 + (stride * 4)) |]);
          ("past the last id", [| (last + 1, last + 100); (last + 200, max_int) |]);
          ("straddling the last id", [| (last - stride, max_int) |]);
          ("one per block", Array.init 8 (fun k -> (k * b1, (k * b1) + 1)));
          ("one-id gaps", Array.init 50 (fun k -> (3 * k * stride, ((3 * k) + 2) * stride)));
        ])
    [ ("dense", 1); ("sparse", 1009) ];
  Alcotest.check_raises "overlapping ranges refused"
    (Invalid_argument "Plist_stream.ranges: not sorted, disjoint and non-empty")
    (fun () -> ignore (St.ranges [| (0, 5); (4, 9) |]));
  Alcotest.check_raises "empty range refused"
    (Invalid_argument "Plist_stream.ranges: not sorted, disjoint and non-empty")
    (fun () -> ignore (St.ranges [| (3, 3) |]))

(* A restricted 'C' cursor decodes only the blocks its ranges land on:
   a block it skips may be garbage. *)
let test_restricted_skips_blocks () =
  let stride = 1009 in
  let l = Array.init 1000 (fun i -> posting_of_id (i * stride)) in
  let bytes = Bytes.of_string (payload L.Blocked l) in
  let d = B.directory (Bytes.to_string bytes) ~pos:1 in
  check_bool "block 3 is sparse" false (B.is_bitmap d 3);
  Bytes.fill bytes (B.body_pos d 3) (B.body_len d 3) '\xff';
  let damaged = Bytes.to_string bytes in
  let spans = [| (B.block_min d 1, B.block_max d 1 + 1); (B.block_min d 6, B.block_min d 6 + 1) |] in
  let c = St.cursor_of_bytes ~within:(St.ranges spans) damaged in
  restricted_drain_same "around a damaged block" spans l c;
  match St.inter_many [ St.cursor_of_bytes damaged ] with
  | exception Storage.Codec.Corrupt _ -> ()
  | _ -> Alcotest.failf "the unrestricted cursor decoded the damaged block"

(* --- block format edges --- *)

(* Lengths straddling the 128-posting block boundary, dense (consecutive
   ids — bitmap blocks) and sparse (stride 1009 — varint blocks). *)
let test_block_boundaries () =
  List.iter
    (fun n ->
      List.iter
        (fun (shape, stride) ->
          let l = Array.init n (fun i -> posting_of_id (i * stride)) in
          let payload = payload L.Blocked l in
          let back = L.of_bytes payload in
          if R.of_plist back <> l then
            Alcotest.failf "blocked round trip, %s n=%d" shape n;
          let c = St.cursor_of_bytes payload in
          check_int (Printf.sprintf "%s n=%d remaining" shape n) n
            (St.remaining c);
          let seen = ref 0 in
          while St.head c <> St.eof do
            check_int "drained in order" l.(!seen).R.node (St.head c);
            incr seen;
            St.advance c
          done;
          check_int (Printf.sprintf "%s n=%d drained" shape n) n !seen)
        [ ("dense", 1); ("sparse", 1009) ])
    [ 0; 1; 127; 128; 129; 255; 256; 257; 1000 ]

(* The directory itself: spans, suffix counts and find_block. *)
let test_block_directory () =
  let l = Array.init 300 (fun i -> posting_of_id (i * 7)) in
  let payload = payload L.Blocked l in
  let d = B.directory payload ~pos:1 in
  check_int "total" 300 (B.total d);
  check_int "blocks" 3 (B.n_blocks d);
  check_int "suffix 0" 300 (B.suffix_count d 0);
  check_int "suffix last" 0 (B.suffix_count d (B.n_blocks d));
  for i = 0 to B.n_blocks d - 1 do
    let buf = L.Buf.create B.block_size in
    L.decode_block_into d i buf;
    let b = L.Buf.contents buf in
    check_int "block min" (L.node b 0) (B.block_min d i);
    check_int "block max" (L.node b (L.length b - 1)) (B.block_max d i)
  done;
  check_bool "decode" true (R.of_plist (L.of_bytes payload) = l);
  (* find_block: first block whose max covers the probe *)
  check_int "find first" 0 (B.find_block d ~start:0 0);
  check_int "find mid" 1 (B.find_block d ~start:0 (B.block_max d 0 + 1));
  check_int "find honors start" 2 (B.find_block d ~start:2 0);
  check_int "find past end" 3 (B.find_block d ~start:0 (B.block_max d 2 + 1))

(* Representation heuristic: consecutive ids become bitmap blocks
   (smaller than their varint encoding), stride-1009 ids stay varint. *)
let test_representation_heuristic () =
  check_bool "dense block" true (B.dense ~range:127 ~count:128);
  check_bool "sparse block" false (B.dense ~range:(127 * 1009) ~count:128);
  let dense = Array.init 256 posting_of_id in
  let sparse = Array.init 256 (fun i -> posting_of_id (i * 1009)) in
  let size l = String.length (payload L.Blocked l) in
  let vsize l = String.length (payload L.Varint l) in
  check_bool "bitmap no bigger than varint on dense runs" true
    (size dense <= vsize dense + 16);
  (* sparse lists pay only the directory over the plain varint form *)
  check_bool "blocked stays close to varint on sparse lists" true
    (size sparse <= vsize sparse + 16 * (256 / B.block_size + 1))

(* Truncating a blocked payload anywhere must be detected, not silently
   decoded: the directory pins every block's span, count and byte length. *)
let test_blocked_truncation_detected () =
  let l = Array.init 200 (fun i -> posting_of_id (i * 3)) in
  let payload = payload L.Blocked l in
  for len = 1 to String.length payload - 1 do
    let prefix = String.sub payload 0 len in
    match L.of_bytes prefix with
    | exception Storage.Codec.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "truncation at %d raised %s" len (Printexc.to_string e)
    | _ -> Alcotest.failf "truncation at %d decoded silently" len
  done

(* --- skew: the headline kernel path, 2 vs 100_000 postings --- *)

let test_skewed_intersection () =
  let big = Array.init 100_000 (fun i -> posting_of_id (i * 3)) in
  let small = [| posting_of_id 0; posting_of_id 150_000; posting_of_id 299_997 |] in
  let expect = R.inter small big in
  check_int "oracle finds the planted hits" 3 (Array.length expect);
  let agrees l = R.of_plist l = expect in
  check_bool "gallop" true (agrees (inter2 mem mem small big));
  check_bool "gallop sym" true (agrees (inter2 mem mem big small));
  check_bool "block skipping" true (agrees (inter2 blocked blocked small big));
  check_bool "mixed" true (agrees (inter2 mem blocked small big))

(* --- the shared inter_many contract --- *)

let empty_family_message =
  Invalid_argument "inter_many: empty intersection is the node universe"

let test_empty_family_contract () =
  Alcotest.check_raises "Plist_stream" empty_family_message (fun () ->
      ignore (St.inter_many []));
  Alcotest.check_raises "Plist_ref" empty_family_message (fun () ->
      ignore (R.inter_many []))

(* --- degenerate queries reach the engine as answers, not crashes --- *)

module E = Containment.Engine
module IF = Invfile.Inverted_file

let test_degenerate_queries () =
  let values = List.map Testutil.v Testutil.licences_strings in
  let n_records = List.length values in
  List.iter
    (fun node_table ->
      let inv = Containment.Collection.of_values values in
      (* a store without a node table, as builds once could write *)
      if not node_table then begin
        ignore ((IF.store inv).Storage.Kv.delete IF.meta_nodes);
        IF.refresh inv
      end;
      let ctx = Printf.sprintf "node_table:%b" node_table in
      (* {} is contained in every record *)
      let r = E.query inv (Testutil.v "{}") in
      check_int (ctx ^ " {} matches all") n_records (List.length r.E.records);
      (* {{}} needs some internal child anywhere below the root *)
      let r2 = E.query inv (Testutil.v "{{}}") in
      check_bool (ctx ^ " {{}} answered") true
        (List.for_all (fun id -> id >= 0 && id < n_records) r2.E.records))
    [ true; false ]

(* --- hostile counts: typed errors before any allocation --- *)

let varint n =
  let w = Storage.Codec.writer () in
  Storage.Codec.write_varint w n;
  Storage.Codec.contents w

(* [payload] must be refused with Corrupt by the decoder and by a cursor,
   having allocated next to nothing for the count it claims. *)
let refused name payload =
  let before = Gc.allocated_bytes () in
  (match L.of_bytes payload with
  | exception Storage.Codec.Corrupt _ -> ()
  | exception e -> Alcotest.failf "%s: of_bytes raised %s" name (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: of_bytes decoded" name);
  (match St.inter_many [ St.cursor_of_bytes payload ] with
  | exception Storage.Codec.Corrupt _ -> ()
  | exception e -> Alcotest.failf "%s: the cursor raised %s" name (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: the cursor decoded" name);
  let allocated = Gc.allocated_bytes () -. before in
  check_bool (Printf.sprintf "%s: %.0f bytes allocated" name allocated) true
    (allocated < 65536.)

let test_hostile_block_counts () =
  refused "2^40 blocks" ("C" ^ varint 1 ^ varint (1 lsl 40));
  refused "2^57 blocks" ("C" ^ varint 1 ^ varint (1 lsl 57));
  refused "2^24 blocks" ("C" ^ varint 1 ^ varint (1 lsl 24))

let test_hostile_list_counts () =
  refused "'V' list of 2^40" ("V" ^ varint (1 lsl 40));
  (* one posting: node gap, leaf count, post, parent gap, then 2^50 children *)
  refused "2^50 children" ("V" ^ varint 1 ^ "\000\000\000\000" ^ varint (1 lsl 50))

(* A block holds at most block_size postings: a 300-posting block (here a
   sparse varint block whose body is the 'V' encoding of the same list) is
   refused, not decoded. *)
let test_oversized_block () =
  let n = 300 and stride = 1009 in
  let l = Array.init n (fun i -> posting_of_id (i * stride)) in
  let v = payload L.Varint l in
  let body = String.sub v 3 (String.length v - 3) (* tag, then 300 in 2 bytes *) in
  let dir =
    String.concat ""
      [ varint n; varint 1; varint 0; varint ((n - 1) * stride); varint n; varint 0;
        varint (String.length body) ]
  in
  refused "300-posting block" ("C" ^ dir ^ body)

(* --- forced minor collections ---

   In OCaml 5, building an array of more than 256 fresh records with
   Array.make/init/map/of_list first moves the young initial value to
   the major heap, which forces a minor collection. The kernels build int
   columns instead: with a minor heap far larger than what the work
   allocates, they must run without a single minor collection. *)

let minor_collections_during f =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      Gc.minor ();
      let before = (Gc.quick_stat ()).Gc.minor_collections in
      f ();
      (Gc.quick_stat ()).Gc.minor_collections - before)

let test_inter_many_forces_no_gc () =
  let a = payload L.Blocked (Array.init 2000 (fun i -> posting_of_id (2 * i))) in
  let b = payload L.Blocked (Array.init 2000 (fun i -> posting_of_id (3 * i))) in
  let hits = ref 0 in
  let gcs =
    minor_collections_during (fun () ->
        hits := L.length (St.inter_many [ St.cursor_of_bytes a; St.cursor_of_bytes b ]))
  in
  check_int "every sixth id" 667 !hits;
  check_int "minor collections" 0 gcs

let test_query_forces_no_gc () =
  let values =
    List.init 600 (fun i ->
        Testutil.v (Printf.sprintf "{a, b, r%d, {a, c, {b, d%d}}}" i (i mod 7)))
  in
  let inv = Containment.Collection.of_values values in
  let q = Testutil.v "{a, {a, c}}" in
  check_bool "lists exceed 256 postings" true
    (St.remaining (Invfile.Inverted_file.cursor inv "a") > 256);
  let answers = ref 0 in
  let gcs =
    minor_collections_during (fun () ->
        answers := List.length (E.query inv q).E.records)
  in
  check_int "every record answers" 600 !answers;
  check_int "minor collections" 0 gcs

let qc = Testutil.qcheck_case

let () =
  Alcotest.run "kernels"
    [
      ( "differential",
        [
          qc ~name:"inter = ref (dense)" (arb_pair 600) prop_inter;
          qc ~name:"inter = ref (sparse)" (arb_pair 200_000) prop_inter;
          qc ~name:"inter = ref (skewed)" arb_skewed prop_inter_skewed;
          qc ~name:"union = ref" (arb_pair 600) prop_union;
          qc ~name:"inter_many = ref, mixed codecs" (arb_family 800)
            prop_inter_many;
          qc ~name:"union_with_counts = ref, mixed codecs" (arb_family 800)
            prop_union_with_counts;
        ] );
      ( "serialization",
        [
          qc ~name:"round trip + canonical, all codecs"
            QCheck.(list (int_bound 100_000))
            prop_roundtrip;
        ] );
      ( "cursors",
        [
          qc ~name:"drain all sources" QCheck.(list (int_bound 50_000))
            prop_cursor_drain;
          qc ~name:"skip_to = oracle lower_bound"
            QCheck.(pair (list (int_bound 50_000)) (list (int_bound 50_000)))
            prop_cursor_skip_to;
        ] );
      ( "restricted",
        [
          qc ~name:"drain = filtered ref"
            QCheck.(pair (list (int_bound 50_000)) (arb_ranges 50_000))
            prop_restricted_drain;
          qc ~name:"drain = filtered ref (dense ranges)"
            QCheck.(pair (list (int_bound 600)) arb_ranges_dense)
            prop_restricted_drain;
          qc ~name:"seek = filtered ref lower_bound"
            QCheck.(
              pair
                (pair (list (int_bound 50_000)) (arb_ranges 50_000))
                (list (int_bound 50_000)))
            prop_restricted_seek;
          qc ~name:"inter_many (~among) = filtered ref, mixed codecs"
            QCheck.(
              pair (pair (arb_family 800) (arb_ranges 800)) (list (int_bound 800)))
            prop_restricted_inter_many;
          qc ~name:"inter_many (~among) = filtered ref (dense ranges)"
            QCheck.(
              pair (pair (arb_family 300) arb_ranges_dense) (list (int_bound 300)))
            prop_restricted_inter_many;
          qc ~name:"union_with_counts = filtered ref, mixed codecs"
            QCheck.(pair (arb_family 800) (arb_ranges 800))
            prop_restricted_union;
          Alcotest.test_case "edges" `Quick test_restricted_edges;
          Alcotest.test_case "skipped blocks stay undecoded" `Quick
            test_restricted_skips_blocks;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "boundary lengths" `Quick test_block_boundaries;
          Alcotest.test_case "directory" `Quick test_block_directory;
          Alcotest.test_case "representation heuristic" `Quick
            test_representation_heuristic;
          Alcotest.test_case "truncation detected" `Quick
            test_blocked_truncation_detected;
          Alcotest.test_case "skewed intersection" `Quick
            test_skewed_intersection;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "block counts" `Quick test_hostile_block_counts;
          Alcotest.test_case "list and children counts" `Quick
            test_hostile_list_counts;
          Alcotest.test_case "oversized block" `Quick test_oversized_block;
        ] );
      ( "gc",
        [
          Alcotest.test_case "inter_many forces no minor collection" `Quick
            test_inter_many_forces_no_gc;
          Alcotest.test_case "hom query forces no minor collection" `Quick
            test_query_forces_no_gc;
        ] );
      ( "contract",
        [
          Alcotest.test_case "empty family message" `Quick
            test_empty_family_contract;
          Alcotest.test_case "degenerate engine queries" `Quick
            test_degenerate_queries;
        ] );
    ]
