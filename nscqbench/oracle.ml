(* The answer oracle for containment queries, independent of the inverted
   file under test: the benchmark indexes the generated records' atoms
   itself, and checks every record that holds all of a query's atoms with
   the reference embedding check ({!Containment.Embed}). Under the default
   engine semantics (containment join, homomorphic embedding, record
   scope) a record can only contain a query if it holds every atom of the
   query, so the atom filter loses no answers. *)

type t = { values : Nested.Value.t array; by_atom : (string, int list) Hashtbl.t }

let create values =
  let by_atom = Hashtbl.create 4096 in
  (* descending ids, so the per-atom lists come out ascending *)
  for r = Array.length values - 1 downto 0 do
    List.iter
      (fun a ->
        Hashtbl.replace by_atom a
          (r :: Option.value ~default:[] (Hashtbl.find_opt by_atom a)))
      (Nested.Value.atom_universe values.(r))
  done;
  { values; by_atom }

let rec inter a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | x :: a', y :: b' ->
    if x = y then x :: inter a' b' else if x < y then inter a' b else inter a b'

(* Matching record ids (positions in [values]), ascending. *)
let answer t q =
  let candidates =
    match Nested.Value.atom_universe q with
    | [] -> List.init (Array.length t.values) Fun.id
    | atoms ->
      let lists =
        List.map
          (fun a -> Option.value ~default:[] (Hashtbl.find_opt t.by_atom a))
          atoms
        |> List.sort (fun a b -> Int.compare (List.length a) (List.length b))
      in
      List.fold_left inter (List.hd lists) (List.tl lists)
  in
  List.filter
    (fun r -> Containment.Embed.contains Containment.Semantics.Hom ~q ~s:t.values.(r))
    candidates

(* The server's literal-query reply: ids, space-separated, ascending. *)
let payload ids = String.concat " " (List.map string_of_int ids)

(* Paper-style queries (Sec. 5.1): [count] distinct records drawn from
   the collection, every second one distorted with a fresh atom that
   occurs nowhere, so it matches nothing. Record sizes are heavy-tailed
   (a wide synthetic record holds about 20 atoms on average and up to
   ~1800), so a plain draw of a few hundred records changes a workload's
   cost by a third from seed to seed. The draw is stratified instead: the
   collection, sorted by size, is cut into [count / 2] equal strata, and
   each stratum gives one query kept as it is and one distorted, so both
   halves of the query set follow the collection's size mix. The strata
   come out in random order. *)
let paper_queries ~seed ~count values =
  let rng = Random.State.make [| seed; 0x9a9e |] in
  let n = Array.length values in
  let strata = min count n / 2 in
  let size = Array.map (fun v -> List.length (Nested.Value.atom_universe v)) values in
  let by_size = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare size.(a) size.(b)) by_size;
  let order = Array.init strata Fun.id in
  for i = strata - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let queries = Array.make (2 * strata) values.(0) in
  Array.iteri
    (fun k s ->
      (* stratum s: sizes ranked [lo, hi), at least two records *)
      let lo = s * n / strata and hi = (s + 1) * n / strata in
      let a = lo + Random.State.int rng (hi - lo) in
      let b = lo + ((a - lo + 1 + Random.State.int rng (hi - lo - 1)) mod (hi - lo)) in
      queries.(2 * k) <- values.(by_size.(a));
      queries.((2 * k) + 1) <-
        Datagen.Workload.distort rng
          ~fresh:(Printf.sprintf "⊥neg%d" ((2 * k) + 1))
          values.(by_size.(b)))
    order;
  queries
