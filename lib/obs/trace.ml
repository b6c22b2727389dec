type span = {
  name : string;
  start_s : float;
  mutable duration_s : float;
  mutable attrs : (string * string) list; (* reversed while recording *)
  mutable children : span list; (* reversed while recording *)
  mutable closed : bool; (* once closed, attrs/children are forward order *)
}

type t = { trace_id : int; root_span : span; mutable stack : span list }

let next_seq = Atomic.make 1

let fresh_id () =
  (* µs clock xor a process-wide sequence, masked to 31 bits so the id
     fits the u32 wire field on 32-bit and 64-bit builds alike *)
  let us = Int64.of_float (Unix.gettimeofday () *. 1e6) in
  let seq = Atomic.fetch_and_add next_seq 1 in
  Int64.to_int (Int64.logand (Int64.logxor us (Int64.of_int (seq * 2654435761))) 0x3FFFFFFFL)
  lor 1

let open_span name =
  { name; start_s = Unix.gettimeofday (); duration_s = -1.; attrs = [];
    children = []; closed = false }

let create ?id name =
  let trace_id = match id with Some i -> i land 0x7FFFFFFF | None -> fresh_id () in
  { trace_id; root_span = open_span name; stack = [] }

let id t = t.trace_id

let innermost t = match t.stack with s :: _ -> s | [] -> t.root_span

let span t name f =
  let s = open_span name in
  let parent = innermost t in
  parent.children <- s :: parent.children;
  t.stack <- s :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.duration_s <- Unix.gettimeofday () -. s.start_s;
      (match t.stack with
      | top :: rest when top == s -> t.stack <- rest
      | _ ->
          (* f leaked spans (raised past a nested open): drop down to s *)
          let rec pop = function
            | top :: rest when top == s -> rest
            | _ :: rest -> pop rest
            | [] -> []
          in
          t.stack <- pop t.stack))
    f

let add_attr t k v =
  let s = innermost t in
  s.attrs <- (k, v) :: s.attrs

let opt_span trace name f =
  match trace with None -> f () | Some t -> span t name f

let opt_attr trace k v =
  match trace with None -> () | Some t -> add_attr t k v

let rec close_rec s =
  if not s.closed then begin
    s.closed <- true;
    List.iter close_rec s.children;
    s.children <- List.rev s.children;
    s.attrs <- List.rev s.attrs;
    if s.duration_s < 0. then s.duration_s <- Unix.gettimeofday () -. s.start_s
  end

let finish t =
  t.stack <- [];
  close_rec t.root_span;
  t.root_span

let root t = t.root_span

let make_span ?(attrs = []) ?(children = []) ~name ~start_s ~duration_s () =
  { name; start_s; duration_s; attrs; children; closed = true }

let graft t sub =
  let parent = innermost t in
  parent.children <- sub :: parent.children

(* ---- rendering ---- *)

let in_order l =
  (* spans still recording hold children reversed; finished ones hold
     them forward. Render in start order either way. *)
  List.stable_sort (fun a b -> Float.compare a.start_s b.start_s) l

let render span =
  let buf = Buffer.create 256 in
  let rec go depth s =
    let dur =
      if s.duration_s < 0. then "open"
      else Printf.sprintf "%.3f ms" (s.duration_s *. 1e3)
    in
    let attrs =
      match (if s.closed then s.attrs else List.rev s.attrs) with
      | [] -> ""
      | l -> "  " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) l)
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%-*s %10s%s\n" (String.make (depth * 2) ' ')
         (max 1 (28 - (depth * 2)))
         s.name dur attrs);
    List.iter (go (depth + 1)) (in_order s.children)
  in
  go 0 span;
  Buffer.contents buf

(* ---- wire form ---- *)

let escape v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\t' -> Buffer.add_string buf "%09"
      | '\n' -> Buffer.add_string buf "%0a"
      | '=' -> Buffer.add_string buf "%3d"
      | '%' -> Buffer.add_string buf "%25"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let unescape v =
  let buf = Buffer.create (String.length v) in
  let n = String.length v in
  let i = ref 0 in
  while !i < n do
    (if v.[!i] = '%' && !i + 2 < n then begin
       (match String.sub v (!i + 1) 2 with
       | "09" -> Buffer.add_char buf '\t'
       | "0a" -> Buffer.add_char buf '\n'
       | "3d" -> Buffer.add_char buf '='
       | "25" -> Buffer.add_char buf '%'
       | other -> Buffer.add_char buf '%'; Buffer.add_string buf other);
       i := !i + 3
     end
     else begin
       Buffer.add_char buf v.[!i];
       incr i
     end)
  done;
  Buffer.contents buf

let to_wire ?(id = 0) span =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "trace %d\n" id);
  let rec go depth s =
    let attrs =
      String.concat "\t"
        (List.map (fun (k, v) -> escape k ^ "=" ^ escape v) s.attrs)
    in
    Buffer.add_string buf
      (Printf.sprintf "%d\t%.0f\t%.0f\t%s%s\n" depth (s.start_s *. 1e6)
         (Float.max 0. s.duration_s *. 1e6)
         (escape s.name)
         (if attrs = "" then "" else "\t" ^ attrs));
    List.iter (go (depth + 1)) s.children
  in
  go 0 span;
  Buffer.contents buf

let of_wire text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | header :: rest when String.length header > 6 && String.sub header 0 6 = "trace " -> (
      match int_of_string_opt (String.sub header 6 (String.length header - 6)) with
      | None -> None
      | Some id -> (
          let parse_line line =
            match String.split_on_char '\t' line with
            | depth :: start_us :: dur_us :: name :: attrs -> (
                match
                  ( int_of_string_opt depth,
                    float_of_string_opt start_us,
                    float_of_string_opt dur_us )
                with
                | Some d, Some st, Some du ->
                    let attrs =
                      List.filter_map
                        (fun a ->
                          match String.index_opt a '=' with
                          | Some i ->
                              Some
                                ( unescape (String.sub a 0 i),
                                  unescape
                                    (String.sub a (i + 1)
                                       (String.length a - i - 1)) )
                          | None -> None)
                        attrs
                    in
                    Some
                      ( d,
                        make_span ~attrs ~name:(unescape name)
                          ~start_s:(st /. 1e6) ~duration_s:(du /. 1e6) () )
                | _ -> None)
            | _ -> None
          in
          let entries =
            List.filter_map parse_line
              (List.filter (fun l -> l <> "") rest)
          in
          match entries with
          | [] -> None
          | (0, root) :: rest ->
              (* rebuild the tree from depth-annotated preorder lines *)
              let ok = ref true in
              let stack = ref [ (0, root) ] in
              List.iter
                (fun (d, s) ->
                  (* pop to the parent at depth d-1 *)
                  while
                    (match !stack with
                     | (td, _) :: _ -> td >= d
                     | [] -> false)
                  do
                    stack := List.tl !stack
                  done;
                  match !stack with
                  | (pd, parent) :: _ when pd = d - 1 ->
                      parent.children <- s :: parent.children;
                      stack := (d, s) :: !stack
                  | _ -> ok := false)
                rest;
              if not !ok then None
              else begin
                (* children were prepended during assembly *)
                let rec fix s =
                  s.children <- List.rev s.children;
                  List.iter fix s.children
                in
                fix root;
                Some (id, root)
              end
          | _ -> None))
  | _ -> None
