type t = {
  records : int;
  atoms : int;
  internal_nodes : int;
  leaves : int;
  max_depth : int;
  avg_depth : float;
  avg_fanout : float;
  avg_leaf_count : float;
  distinct_leaf_ratio : float;
  posting_histogram : (int * int) list;
  depth_histogram : (int * int) list;
  top_atoms : (string * int) list;
}

let bucket_of n =
  (* smallest power of two ≥ n *)
  let rec go b = if b >= n then b else go (b * 2) in
  go 1

let compute inv =
  let records = ref 0 in
  let internal_nodes = ref 0 in
  let leaves = ref 0 in
  let max_depth = ref 0 in
  let depth_sum = ref 0 in
  let fanout_sum = ref 0 in
  let depth_hist : (int, int) Hashtbl.t = Hashtbl.create 16 in
  Inverted_file.iter_records inv (fun _ value ->
      incr records;
      let rec walk depth v =
        internal_nodes := !internal_nodes + 1;
        depth_sum := !depth_sum + depth;
        max_depth := max !max_depth (depth + 1);
        Hashtbl.replace depth_hist depth
          (1 + Option.value ~default:0 (Hashtbl.find_opt depth_hist depth));
        let subsets = Nested.Value.subsets v in
        leaves := !leaves + List.length (Nested.Value.leaves v);
        fanout_sum := !fanout_sum + List.length subsets;
        List.iter (walk (depth + 1)) subsets
      in
      walk 0 value);
  (* posting-length histogram from the stored inverted lists *)
  let posting_hist : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let atoms = ref 0 in
  (Inverted_file.store inv).Storage.Kv.iter (fun key payload ->
      if Option.is_some (Inverted_file.atom_of_key key) then begin
        incr atoms;
        let len =
          (* the header's count: no posting is decoded *)
          try Plist_stream.remaining (Plist_stream.cursor_of_bytes payload)
          with Storage.Codec.Corrupt _ -> 0
        in
        let b = bucket_of (max 1 len) in
        Hashtbl.replace posting_hist b
          (1 + Option.value ~default:0 (Hashtbl.find_opt posting_hist b))
      end);
  let sorted_hist h =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let fnodes = Float.of_int (max 1 !internal_nodes) in
  {
    records = !records;
    atoms = !atoms;
    internal_nodes = !internal_nodes;
    leaves = !leaves;
    max_depth = !max_depth;
    avg_depth = Float.of_int !depth_sum /. fnodes;
    avg_fanout = Float.of_int !fanout_sum /. fnodes;
    avg_leaf_count = Float.of_int !leaves /. fnodes;
    distinct_leaf_ratio = Float.of_int !atoms /. Float.of_int (max 1 !leaves);
    posting_histogram = sorted_hist posting_hist;
    depth_histogram = sorted_hist depth_hist;
    top_atoms = Inverted_file.top_atoms inv;
  }

let skew_estimate t =
  match t.top_atoms with
  | [] -> 0.
  | top ->
    let head_count = max 1 (t.atoms / 100) in
    let head =
      List.filteri (fun i _ -> i < head_count) top
      |> List.fold_left (fun acc (_, c) -> acc + c) 0
    in
    (* top_atoms counts postings (node occurrences ≈ leaf occurrences) *)
    Float.min 1. (Float.of_int head /. Float.of_int (max 1 t.leaves))

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "records              %d@," t.records;
  Format.fprintf ppf "distinct atoms       %d@," t.atoms;
  Format.fprintf ppf "internal nodes       %d@," t.internal_nodes;
  Format.fprintf ppf "leaves               %d@," t.leaves;
  Format.fprintf ppf "max depth            %d@," t.max_depth;
  Format.fprintf ppf "avg node depth       %.2f@," t.avg_depth;
  Format.fprintf ppf "avg fanout           %.2f@," t.avg_fanout;
  Format.fprintf ppf "avg leaves per node  %.2f@," t.avg_leaf_count;
  Format.fprintf ppf "distinct-leaf ratio  %.3f@," t.distinct_leaf_ratio;
  Format.fprintf ppf "skew estimate        %.2f@," (skew_estimate t);
  Format.fprintf ppf "postings per atom (≤bucket: atoms):@,";
  List.iter (fun (b, c) -> Format.fprintf ppf "  ≤%-8d %d@," b c) t.posting_histogram;
  Format.fprintf ppf "nodes per depth:@,";
  List.iter (fun (d, c) -> Format.fprintf ppf "  %-9d %d@," d c) t.depth_histogram;
  Format.fprintf ppf "@]"
