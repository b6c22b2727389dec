(* Shared helpers for all test suites: generators for random nested values
   and collections, Alcotest testables, and temp-file plumbing. *)

module V = Nested.Value

let value_testable = Alcotest.testable V.pp V.equal

let intset_testable =
  Alcotest.testable
    (fun ppf s ->
      Format.fprintf ppf "[%s]"
        (String.concat "; " (List.map string_of_int (Array.to_list s))))
    (fun a b -> a = b)

(* --- QCheck generators --- *)

(* A small atom alphabet forces label collisions, which is what makes
   containment queries interesting. *)
let gen_atom_string = QCheck.Gen.oneofl [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]

(* Random set value with bounded fanout and depth. *)
let rec gen_set ~max_depth ~max_width st =
  let open QCheck.Gen in
  let n_leaves = int_range 0 max_width st in
  let leaves = List.init n_leaves (fun _ -> V.atom (gen_atom_string st)) in
  let n_children = if max_depth <= 1 then 0 else int_range 0 (max_width / 2) st in
  let children =
    List.init n_children (fun _ -> gen_set ~max_depth:(max_depth - 1) ~max_width st)
  in
  V.set (leaves @ children)

(* Never generates the problematic all-empty shapes too often but does
   include them: leafless and empty sets occur naturally. *)
let gen_value ?(max_depth = 4) ?(max_width = 5) () =
  QCheck.Gen.map
    (fun v -> v)
    (fun st -> gen_set ~max_depth ~max_width st)

(* A set value where every node has at least one leaf — the fragment the
   paper's base algorithms support. *)
let rec gen_leafy_set ~max_depth ~max_width st =
  let open QCheck.Gen in
  let n_leaves = int_range 1 (max 1 max_width) st in
  let leaves = List.init n_leaves (fun _ -> V.atom (gen_atom_string st)) in
  let n_children = if max_depth <= 1 then 0 else int_range 0 (max_width / 2) st in
  let children =
    List.init n_children (fun _ -> gen_leafy_set ~max_depth:(max_depth - 1) ~max_width st)
  in
  V.set (leaves @ children)

let arbitrary_value =
  QCheck.make ~print:V.to_string (fun st -> gen_set ~max_depth:4 ~max_width:5 st)

let arbitrary_leafy_value =
  QCheck.make ~print:V.to_string (fun st -> gen_leafy_set ~max_depth:4 ~max_width:5 st)

let arbitrary_collection ?(records = 12) () =
  QCheck.make
    ~print:(fun vs -> String.concat "\n" (List.map V.to_string vs))
    (fun st -> List.init records (fun _ -> gen_set ~max_depth:3 ~max_width:4 st))

(* Subqueries of a value: take a subset of elements recursively — always
   contained in the original under hom semantics. *)
let rec shrink_to_subquery st v =
  if V.is_atom v then v
  else begin
    let elems = V.elements v in
    let kept =
      List.filter_map
        (fun e ->
          if QCheck.Gen.bool st then None
          else if V.is_set e then Some (shrink_to_subquery st e)
          else Some e)
        elems
    in
    V.set kept
  end

let qcheck_case ?(count = 200) ~name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* --- temp files --- *)

let temp_path suffix =
  Filename.temp_file "nscq_test_" suffix

let with_temp_path suffix f =
  let path = temp_path suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* --- tiny deterministic collections --- *)

let licences_strings =
  [
    "{London, UK, {UK, {A, B, C, car, motorbike}}, {UK, {A, motorbike}}}";
    "{Boston, USA, {USA, VA, {A, B, car}}, {UK, {A, motorbike}}}";
    "{Paris, FR, {FR, {B, car}}, {DE, {B, car, truck}}}";
    "{Austin, USA, {USA, TX, {A, motorbike}}, {UK, {A, motorbike}}}";
  ]

let mem_collection strings = Containment.Collection.of_strings strings

let v = Nested.Syntax.of_string

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- stores written in one payload format ---

   New lists take the format Plist.to_bytes picks from their length.
   Stores written before that rule hold every list in one format —
   blocked by default, varint on request — and must keep opening,
   answering, growing, merging and repairing; these rebuild such a store
   from one built now. *)

let codecs =
  [ ("varint", Some Invfile.Plist.Varint); ("blocked", Some Invfile.Plist.Blocked); ("rule", None) ]

(* Rewrites every atom list and the node table of [inv] with [?codec]
   (by the rule without one). *)
let recode_lists ?codec inv =
  let module IF = Invfile.Inverted_file in
  let store = IF.store inv in
  let lists = ref [] in
  store.Storage.Kv.iter (fun key payload ->
      if key = IF.meta_nodes || (String.length key > 0 && key.[0] = 'a') then
        lists := (key, payload) :: !lists);
  List.iter
    (fun (key, payload) ->
      store.Storage.Kv.put key (Invfile.Plist.to_bytes ?codec (Invfile.Plist.of_bytes payload)))
    !lists;
  IF.refresh inv
