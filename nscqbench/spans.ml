(* In-memory span recording for the traced run. Spans are kept in memory
   while the run measures and written out once at exit, so recording
   costs an allocation and a short critical section, never I/O.

   A span is named "<layer>.<what>"; the layer prefix is what self times
   are summed under. Spans named "link.*" are bookkeeping: they mark the
   interval a request spent inside a backend call that served a whole
   batch, so every request of the batch has that interval covered, while
   the work itself is counted once, under the batch's own span. *)

type span = {
  id : int;
  mutable parent : int;  (** 0 for a root *)
  mutable req : int;  (** request id, shared by every span of one request *)
  name : string;
  dom : int;  (** domain that recorded it *)
  start_ns : int;
  stop_ns : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let on = Atomic.make false
let mu = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 1

let enable () = Atomic.set on true
let disable () = Atomic.set on false
let enabled () = Atomic.get on

let fresh_id () = Atomic.fetch_and_add next_id 1
let add s = Mutex.protect mu (fun () -> recorded := s :: !recorded)
let self_dom () = (Domain.self () :> int)

(* Open spans of the current domain, innermost first, as (id, req). Only
   code that runs one thread per domain may use [with_span] (worker
   domains, and the main domain of the single-threaded workloads);
   client threads record their spans explicitly with [record]. *)
let stack : (int * int) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let record ?(parent = 0) ?(dom = self_dom ()) ~name ~start_ns ~stop_ns () =
  let id = fresh_id () in
  add { id; parent; req = id; name; dom; start_ns; stop_ns };
  id

(* The innermost open span of this domain, as (id, req), or (0, 0). *)
let current () =
  match !(Domain.DLS.get stack) with top :: _ -> top | [] -> (0, 0)

let with_span name f =
  if not (enabled ()) then f ()
  else begin
    let st = Domain.DLS.get stack in
    let parent, preq = current () in
    let id = fresh_id () in
    let req = if parent = 0 then id else preq in
    st := (id, req) :: !st;
    let start_ns = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let stop_ns = now_ns () in
        st := List.tl !st;
        add { id; parent; req; name; dom = self_dom (); start_ns; stop_ns })
      f
  end

let all () =
  Mutex.protect mu (fun () ->
      List.sort (fun a b -> Int.compare a.id b.id) !recorded)

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let children_of spans =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace tbl s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.parent)))
    spans;
  tbl

(* Re-homes every [who] span under the innermost [into] sibling (same
   parent, same domain) whose interval holds the [who] span's midpoint.
   Used where a layer's spans are recorded after the fact (engine phase
   spans, flush/compaction from flight-recorder events) and so could not
   be open while the calls beneath them ran. *)
let adopt ~who ~into spans =
  let groups = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if into s then
        let k = (s.parent, s.dom) in
        Hashtbl.replace groups k
          (s :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
    spans;
  List.iter
    (fun s ->
      if who s then
        match Hashtbl.find_opt groups (s.parent, s.dom) with
        | None -> ()
        | Some cands ->
          let mid = (s.start_ns + s.stop_ns) / 2 in
          let best =
            List.fold_left
              (fun best c ->
                if c.id <> s.id && c.start_ns <= mid && mid <= c.stop_ns then
                  match best with
                  | Some b when b.stop_ns - b.start_ns <= c.stop_ns - c.start_ns
                    ->
                    best
                  | _ -> Some c
                else best)
              None cands
          in
          Option.iter (fun c -> s.parent <- c.id) best)
    spans

(* Every span inherits its root's request id. *)
let propagate_requests spans =
  let kids = children_of spans in
  let rec down req s =
    s.req <- req;
    List.iter (down req) (Option.value ~default:[] (Hashtbl.find_opt kids s.id))
  in
  List.iter (fun s -> if s.parent = 0 then down s.req s) spans

(* Summed self time (ns) per layer, "link" bookkeeping excluded. *)
let self_by_layer spans =
  let kids = children_of spans in
  let acc = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let layer = layer_of s.name in
      if layer <> "link" then begin
        let cs =
          List.map
            (fun c -> (c.start_ns, c.stop_ns))
            (Option.value ~default:[] (Hashtbl.find_opt kids s.id))
        in
        let self = Bstats.self_time ~lo:s.start_ns ~hi:s.stop_ns cs in
        Hashtbl.replace acc layer
          (self + Option.value ~default:0 (Hashtbl.find_opt acc layer))
      end)
    spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

let write path spans =
  let oc = open_out path in
  output_string oc "# id\tparent\treq\tdomain\tname\tstart_ns\tend_ns\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%d\t%s\t%d\t%d\n" s.id s.parent s.req s.dom
        s.name s.start_ns s.stop_ns)
    spans;
  close_out oc
