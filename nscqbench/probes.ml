(* The traced run's instruments. They sit outside the program, on hooks
   its layers already expose: a wrapped [Storage.Kv.t] (storage), a
   wrapped [Server.Dispatch.backend] (server, containment), and the
   engines' own [?trace] phase spans (containment, invfile, join).
   While span recording is off the wrappers pass calls straight through
   (the backend one only counts allocation), so the untraced half of a
   traced run runs the program's untraced code path. *)

let now_ns = Util.now_ns

(* --- storage: a wrapped key-value handle --- *)

type kv = {
  kmu : Mutex.t;
  mutable gets : int;
  mutable get_ns : int;
  mutable get_bytes : int;
  mutable put_bytes : int;
  mutable syncs : int;
  mutable sync_ms : float list;
}

let kv () =
  { kmu = Mutex.create (); gets = 0; get_ns = 0; get_bytes = 0; put_bytes = 0;
    syncs = 0; sync_ms = [] }

let wrap_kv p (kv : Storage.Kv.t) =
  let timed name f on_done =
    if not (Spans.enabled ()) then f ()
    else
      Spans.with_span name (fun () ->
          let t0 = now_ns () in
          let r = f () in
          let dt = now_ns () - t0 in
          Mutex.protect p.kmu (fun () -> on_done r dt);
          r)
  in
  {
    kv with
    Storage.Kv.get =
      (fun k ->
        timed "storage.get"
          (fun () -> kv.Storage.Kv.get k)
          (fun r dt ->
            p.gets <- p.gets + 1;
            p.get_ns <- p.get_ns + dt;
            p.get_bytes <-
              p.get_bytes + match r with Some v -> String.length v | None -> 0));
    put =
      (fun k v ->
        timed "storage.put"
          (fun () -> kv.Storage.Kv.put k v)
          (fun () _ ->
            p.put_bytes <- p.put_bytes + String.length k + String.length v));
    sync =
      (fun () ->
        timed "storage.sync" kv.Storage.Kv.sync (fun () dt ->
            p.syncs <- p.syncs + 1;
            p.sync_ms <- (float_of_int dt /. 1e6) :: p.sync_ms));
  }

(* --- engine phase spans (Obs.Trace) grafted into the span record --- *)

let layer_of_phase = function
  | "prefetch" | "retrieve" -> Some "invfile"
  | "minimize" | "preflight" | "prefilter" | "eval" | "verify" -> Some "containment"
  | "build-tree" | "intersect" -> Some "join"
  | _ -> None

let int_attr (s : Obs.Trace.span) key =
  match List.assoc_opt key s.Obs.Trace.attrs with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> 0)
  | None -> 0

(* Records the phase children of a finished engine trace under [parent].
   Engine spans carry wall-clock starts; they are moved onto the
   monotonic clock by the offset between the two clocks at grafting time.
   Join's own verify phase is named "join.verify", the engine's
   "containment.verify". *)
let graft ?(join = false) ~parent (root : Obs.Trace.span) =
  let offset =
    now_ns () - Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e9))
  in
  List.iter
    (fun (c : Obs.Trace.span) ->
      let layer =
        if join && c.Obs.Trace.name = "verify" then Some "join"
        else layer_of_phase c.Obs.Trace.name
      in
      match layer with
      | None -> ()
      | Some layer ->
        let start_ns = Int64.to_int (Int64.of_float (c.start_s *. 1e9)) + offset in
        let stop_ns = start_ns + int_of_float (c.duration_s *. 1e9) in
        ignore
          (Spans.record ~parent ~name:(layer ^ "." ^ c.name) ~start_ns ~stop_ns ()))
    root.Obs.Trace.children

(* Summed phase time (ns) and attributes of engine traces. *)
type phases = {
  pmu : Mutex.t;
  phase_ns : (string, int) Hashtbl.t;
  mutable candidates : int;
  mutable results : int;
  mutable traced_queries : int;
}

let phases () =
  { pmu = Mutex.create (); phase_ns = Hashtbl.create 8; candidates = 0;
    results = 0; traced_queries = 0 }

let add_phases p (root : Obs.Trace.span) =
  Mutex.protect p.pmu (fun () ->
      p.traced_queries <- p.traced_queries + 1;
      List.iter
        (fun (c : Obs.Trace.span) ->
          let ns = int_of_float (c.Obs.Trace.duration_s *. 1e9) in
          Hashtbl.replace p.phase_ns c.name
            (ns + Option.value ~default:0 (Hashtbl.find_opt p.phase_ns c.name));
          if c.name = "eval" then p.candidates <- p.candidates + int_attr c "candidates";
          if c.name = "verify" then p.results <- p.results + int_attr c "kept")
        root.Obs.Trace.children)

let phase_ms p name =
  float_of_int (Option.value ~default:0 (Hashtbl.find_opt p.phase_ns name)) /. 1e6

(* --- server: a wrapped dispatch backend --- *)

(* One backend call, kept to link it to the client requests it served. *)
type call = { span : int; texts : string list; c0 : int; c1 : int }

type backend = {
  bmu : Mutex.t;
  mutable calls : call list;
  mutable exec_us : float list;  (** every traced run_literals call *)
  mutable batch_sizes : int list;
  mutable literals : int;  (** queries answered by traced calls *)
  mutable untraced_words : float;  (** minor words of untraced calls *)
  mutable untraced_literals : int;
  engine : phases;
}

let backend () =
  { bmu = Mutex.create (); calls = []; exec_us = []; batch_sizes = []; literals = 0;
    untraced_words = 0.; untraced_literals = 0; engine = phases () }

(* Times every literal block as one "containment.batch" span, asking the
   store backend for per-query engine traces (its traced batch path is
   its untraced one) and grafting their phases under the span. *)
let wrap_backend p (b : Server.Dispatch.backend) =
  {
    b with
    Server.Dispatch.run_literals =
      (fun ?traces values ->
        if not (Spans.enabled ()) then begin
          (* allocation is counted on the untraced path, which records
             nothing of its own *)
          let w0 = Gc.minor_words () in
          let r = b.Server.Dispatch.run_literals ?traces values in
          let words = Gc.minor_words () -. w0 in
          Mutex.protect p.bmu (fun () ->
              p.untraced_words <- p.untraced_words +. words;
              p.untraced_literals <- p.untraced_literals + List.length values);
          r
        end
        else begin
          let traces = List.map (fun _ -> Obs.Trace.create "query") values in
          let id = ref 0 in
          let t0 = now_ns () in
          let r =
            Spans.with_span "containment.batch" (fun () ->
                id := fst (Spans.current ());
                b.Server.Dispatch.run_literals
                  ~traces:(List.map Option.some traces) values)
          in
          let t1 = now_ns () in
          let texts = List.map Nested.Value.to_string values in
          Mutex.protect p.bmu (fun () ->
              p.calls <- { span = !id; texts; c0 = t0; c1 = t1 } :: p.calls;
              p.exec_us <- (float_of_int (t1 - t0) /. 1e3) :: p.exec_us;
              p.batch_sizes <- List.length values :: p.batch_sizes;
              p.literals <- p.literals + List.length values);
          List.iter
            (fun t ->
              let root = Obs.Trace.finish t in
              add_phases p.engine root;
              graft ~parent:!id root)
            traces;
          r
        end);
  }

(* --- client requests, linked to the backend calls that served them --- *)

type request = { rspan : int; text : string; r0 : int; r1 : int }

(* Links each backend call to the requests it answered: a request is
   served by a call whose interval lies inside the request's round trip
   and which carried the request's text. The first request a call served
   becomes the call span's parent; every further one gets a "link" span
   over the call's interval, so its wait on the batch is covered too. *)
let link ~(requests : request list) ~(calls : call list) =
  let by_text = Hashtbl.create 4096 in
  (* latest first, so each text's candidate list comes out earliest first *)
  List.iter
    (fun r ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_text r.text) in
      Hashtbl.replace by_text r.text ((ref false, r) :: l))
    (List.sort (fun a b -> Int.compare b.r0 a.r0) requests);
  let parents = Hashtbl.create 4096 in
  List.iter
    (fun c ->
      List.iter
        (fun text ->
          let cands = Option.value ~default:[] (Hashtbl.find_opt by_text text) in
          match
            List.find_opt
              (fun (used, r) -> (not !used) && r.r0 <= c.c0 && c.c1 <= r.r1)
              cands
          with
          | None -> ()
          | Some (used, r) ->
            used := true;
            if not (Hashtbl.mem parents c.span) then
              Hashtbl.replace parents c.span r.rspan
            else
              ignore
                (Spans.record ~parent:r.rspan ~name:"link.exec" ~start_ns:c.c0
                   ~stop_ns:c.c1 ()))
        c.texts)
    (List.sort (fun a b -> Int.compare a.c0 b.c0) calls);
  List.iter
    (fun (s : Spans.span) ->
      match Hashtbl.find_opt parents s.id with
      | Some p -> s.parent <- p
      | None -> ())
    (Spans.all ())

(* Posting-list length and payload bytes summed over each query's atoms,
   from the planner's per-atom statistics; mean over the query set (each
   workload runs every query of its set equally often on average). *)
let plan_means inv queries =
  let sum =
    Array.fold_left
      (fun (a, b) q ->
        List.fold_left
          (fun (a, b) atom ->
            let ap = Containment.Engine.atom_plan inv atom in
            (a + ap.Obs.Explain.list_len, b + ap.Obs.Explain.bytes))
          (a, b) (Nested.Value.atom_universe q))
      (0, 0) queries
  in
  let n = float_of_int (max 1 (Array.length queries)) in
  (float_of_int (fst sum) /. n, float_of_int (snd sum) /. n)
