module E = Containment.Engine
module IF = Invfile.Inverted_file

let src = Logs.Src.create "nscq.dispatch" ~doc:"containment-query scheduler"

module Log = (val Logs.src_log src : Logs.LOG)

type reply = Data of string | Refused of Wire.error_code * string

type job = {
  request : Batcher.request;
  deadline : float option;  (* absolute *)
  enqueued_at : float;
  reply : reply -> unit;
}

type state = Running | Draining | Stopped

type t = {
  mutex : Lockdep.t;
  race : Racesan.cell;
      (* guards queue/state/paused/workers: the worker loop and the
         submit path assert the contract under NSCQ_TSAN=1 *)
  wake : Condition.t;
  queue : job Queue.t;
  queue_cap : int;
  max_batch : int;
  n_domains : int;
  slow_ms : float; (* <= 0. disables the slow-query log *)
  slow_log : Obs.Slow_log.t;
  flight_path : string option;
      (* where a slow request auto-dumps the flight recorder *)
  flight_last : int Atomic.t; (* unix seconds of the last auto-dump *)
  mutable state : state;
  mutable paused : bool;
  stats : Server_stats.t;
  mutable workers : unit Domain.t list;
}

let locked t f = Lockdep.protect t.mutex f

(* --- execution backends --- *)

type io_totals = {
  lookups : int;
  hits : int;
  misses : int;
  reads : int;
  bytes_read : int;
}

type backend = {
  run_literals :
    ?traces:Obs.Trace.t option list -> Nested.Value.t list -> string list;
  run_statement : Containment.Nscql.statement -> string;
  run_traced : trace_id:int option -> Nested.Value.t -> string;
  run_join : Nested.Value.t list -> string;
  run_insert : Nested.Value.t -> string;
  run_delete : int -> string;
  run_explain : Nested.Value.t -> string;
  io_totals : unit -> io_totals;
  close : unit -> unit;
}

let read_only_refusal _ =
  invalid_arg "the served collection is read-only (serve a live store to write)"

let ids_payload (r : E.result) =
  String.concat " " (List.map string_of_int r.records)

let store_backend ?(config = E.default) ~cache_budget ~open_handle () =
  let inv = open_handle () in
  if cache_budget > 0 then
    IF.attach_cache inv
      (Invfile.Cache.create Invfile.Cache.Static ~capacity:cache_budget);
  {
    run_literals =
      (fun ?traces values ->
        List.map ids_payload (E.query_batch ~config ?traces inv values));
    run_statement =
      (fun stmt ->
        Format.asprintf "%a"
          (Containment.Nscql.pp_outcome ~collection:inv)
          (Containment.Nscql.execute inv stmt));
    run_traced =
      (fun ~trace_id value ->
        let trace = Obs.Trace.create ?id:trace_id "query" in
        let r = E.query ~config ~trace inv value in
        let root = Obs.Trace.finish trace in
        Wire.traced_payload ~result:(ids_payload r)
          ~spans:(Obs.Trace.to_wire ~id:(Obs.Trace.id trace) root));
    run_join =
      (fun values ->
        let r =
          Join.Engine.join
            ~config:{ Join.Engine.default with engine = config }
            inv values
        in
        Wire.join_payload
          (Join.Engine.group ~outer:(List.length values)
             r.Join.Engine.pairs));
    run_insert = read_only_refusal;
    run_delete = read_only_refusal;
    run_explain =
      (fun value ->
        Obs.Explain.to_wire (E.explain_profile ~config inv value));
    io_totals =
      (fun () ->
        let lk = IF.lookup_stats inv and st = (IF.store inv).Storage.Kv.stats in
        {
          lookups = Storage.Io_stats.lookups lk;
          hits = Storage.Io_stats.hits lk;
          misses = Storage.Io_stats.misses lk;
          reads = Storage.Io_stats.reads st;
          bytes_read = Storage.Io_stats.bytes_read st;
        });
    close = (fun () -> IF.close inv);
  }

(* Backend over one shared live store. Unlike {!store_backend}, every
   worker domain runs against the {e same} handle — the live store
   serializes internally, and writes from any worker must be visible to
   all. Consequences: [io_totals] reports zeros (per-worker deltas of a
   shared store would multiply-count), and [close] is a no-op (the caller
   that opened the store owns its lifetime and closes it after
   {!drain}). *)
let live_backend ?(config = E.default) ~store () =
  let module L = Live.Live_store in
  let ids_line ids = String.concat " " (List.map string_of_int ids) in
  let render_statement stmt =
    match stmt with
    | Containment.Nscql.Insert v ->
      Printf.sprintf "record %d inserted" (L.insert store v)
    | Containment.Nscql.Delete id ->
      if L.delete store id then "deleted" else "no such live record"
    | Containment.Nscql.Stats ->
      String.concat "\n"
        (List.map
           (fun (k, n) -> Printf.sprintf "%-18s %d" k n)
           (L.totals store))
    | Containment.Nscql.Query _ -> (
      match Containment.Nscql.query_config stmt with
      (* unreachable: query_config is total on Query statements *)
      | None -> invalid_arg "malformed query statement"
      | Some (config, verb, value, limit) -> (
        match verb with
        | Containment.Nscql.Find ->
          let ids = L.query ~config store value in
          let cap = Option.value ~default:10 limit in
          let b = Buffer.create 128 in
          Buffer.add_string b (Printf.sprintf "%d record(s)" (List.length ids));
          List.iteri
            (fun i id ->
              if i < cap then
                match L.record_value store id with
                | Some v ->
                  Buffer.add_string b
                    (Printf.sprintf "\n  #%d: %s" id (Nested.Value.to_string v))
                | None -> ())
            ids;
          if List.length ids > cap then
            Buffer.add_string b
              (Printf.sprintf "\n  … and %d more (add LIMIT n)"
                 (List.length ids - cap));
          Buffer.contents b
        | Containment.Nscql.Count ->
          string_of_int (List.length (L.query ~config store value))
        | Containment.Nscql.Explain ->
          Obs.Explain.render (L.explain ~config store value)
        | Containment.Nscql.Witness ->
          invalid_arg "WITNESS is not supported over a live store yet"))
  in
  {
    run_literals =
      (fun ?traces values ->
        match traces with
        | None | Some [] ->
          List.map ids_line (L.query_batch ~config store values)
        | Some traces ->
          (* slow-log armed: per-query traces, so run singly *)
          List.map2
            (fun trace value -> ids_line (L.query ~config ?trace store value))
            traces values);
    run_statement = render_statement;
    run_traced =
      (fun ~trace_id value ->
        let trace = Obs.Trace.create ?id:trace_id "query" in
        let ids = L.query ~config ~trace store value in
        let root = Obs.Trace.finish trace in
        Wire.traced_payload ~result:(ids_line ids)
          ~spans:(Obs.Trace.to_wire ~id:(Obs.Trace.id trace) root));
    run_join =
      (fun values ->
        let pairs =
          L.join ~config:{ Join.Engine.default with engine = config }
            store values
        in
        Wire.join_payload (Join.Engine.group ~outer:(List.length values) pairs));
    run_insert = (fun v -> string_of_int (L.insert store v));
    run_delete =
      (fun id -> if L.delete store id then "deleted" else "not-found");
    run_explain =
      (fun value -> Obs.Explain.to_wire (L.explain ~config store value));
    io_totals =
      (fun () -> { lookups = 0; hits = 0; misses = 0; reads = 0; bytes_read = 0 });
    close = (fun () -> ());
  }

(* --- worker side --- *)

let job_batchable j = Batcher.batchable j.request

(* Deltas of the backend's counters since the last report, folded into
   the server-wide stats — this is how per-domain Io_stats surface
   without cross-domain reads of mutable state. *)
let report_io t backend snap =
  let cur = backend.io_totals () and prev = !snap in
  Server_stats.record_io t.stats ~lookups:(cur.lookups - prev.lookups)
    ~hits:(cur.hits - prev.hits) ~misses:(cur.misses - prev.misses)
    ~reads:(cur.reads - prev.reads)
    ~bytes_read:(cur.bytes_read - prev.bytes_read);
  snap := cur

let finish t job reply =
  let latency_s = Unix.gettimeofday () -. job.enqueued_at in
  (match reply with
  | Data _ -> Server_stats.record_done t.stats ~latency_s
  | Refused _ -> Server_stats.record_failed t.stats ~latency_s);
  try job.reply reply
  with exn ->
    (* a reply callback failing (client gone mid-response) must not take
       the worker domain down *)
    Log.debug (fun m -> m "reply callback raised: %s" (Printexc.to_string exn))

let refusal_of_exn = function
  | Containment.Semantics.Unsupported msg -> (Wire.Bad_request, msg)
  | Invalid_argument msg -> (Wire.Bad_request, msg)
  | exn -> (Wire.Server_error, Printexc.to_string exn)

(* Slow-query log: one structured line per request whose queue-entry →
   reply latency crosses the threshold. The digest identifies the query
   without dumping it (logs stay one line); the phase breakdown comes from
   the trace when the request ran with one. *)
let digest_of_value v =
  Printf.sprintf "%08lx" (Storage.Checksum.crc32 (Nested.Value.to_string v))

(* When a slow request fires and a flight path is configured, snapshot
   the recorder rings next to it — rate-limited to one dump per
   [flight_min_gap_s] so a burst of slow queries doesn't turn the
   recorder into a disk hose. The CAS claims the dump slot; losers just
   skip (their events are in the winner's dump anyway). *)
let flight_min_gap_s = 10

let maybe_flight_dump t =
  match t.flight_path with
  | None -> ()
  | Some path ->
    if Obs.Recorder.enabled () then begin
      let now = int_of_float (Unix.gettimeofday ()) in
      let last = Atomic.get t.flight_last in
      if
        now - last >= flight_min_gap_s
        && Atomic.compare_and_set t.flight_last last now
      then
        match Obs.Recorder.write_dump path with
        | n ->
          Log.info (fun m -> m "flight recorder: %d event(s) dumped to %s" n path)
        | exception (Sys_error _ | Unix.Unix_error _) ->
          Log.debug (fun m -> m "flight dump to %s failed" path)
    end

let maybe_slow t job ?trace () =
  if t.slow_ms > 0. then begin
    let latency_ms = (Unix.gettimeofday () -. job.enqueued_at) *. 1000. in
    if latency_ms > t.slow_ms then begin
      Server_stats.record_slow t.stats;
      let digest =
        match job.request with
        | Batcher.Literal v | Batcher.Traced { value = v; _ } ->
          digest_of_value v
        | Batcher.Statement _ -> "nscql"
        | Batcher.Join values ->
          Printf.sprintf "join[%d]" (List.length values)
        | Batcher.Insert v -> "insert:" ^ digest_of_value v
        | Batcher.Delete id -> Printf.sprintf "delete:%d" id
        | Batcher.Explain v -> "explain:" ^ digest_of_value v
      in
      let trace = Option.map Obs.Trace.finish trace in
      let line =
        Obs.Slow_log.line ~digest ?trace ~latency_ms ~threshold_ms:t.slow_ms ()
      in
      Obs.Slow_log.add t.slow_log line;
      Log.warn (fun m -> m "%s" line);
      maybe_flight_dump t
    end
  end

(* One request answered by one backend call. *)
let execute_one t job call =
  match call () with
  | payload ->
    finish t job (Data payload);
    maybe_slow t job ()
  | exception exn ->
    let code, msg = refusal_of_exn exn in
    finish t job (Refused (code, msg))

let execute_group t backend jobs =
  match jobs with
  | [] -> ()
  | [ { request = Batcher.Statement stmt; _ } as job ] ->
    execute_one t job (fun () -> backend.run_statement stmt)
  | [ { request = Batcher.Traced { value; trace_id }; _ } as job ] ->
    (* the trace lives inside the backend; the slow line still carries
       the digest and latency *)
    execute_one t job (fun () -> backend.run_traced ~trace_id value)
  | [ { request = Batcher.Insert value; _ } as job ] ->
    execute_one t job (fun () -> backend.run_insert value)
  | [ { request = Batcher.Delete rid; _ } as job ] ->
    execute_one t job (fun () -> backend.run_delete rid)
  | [ { request = Batcher.Explain value; _ } as job ] ->
    execute_one t job (fun () -> backend.run_explain value)
  | ({ request = Batcher.Join values; _ } :: _) as jobs -> (
    (* one evaluation answers the whole group: coalesce only extends a
       Join head with requests sharing it verbatim (Batcher.shares) *)
    match backend.run_join values with
    | payload ->
      List.iter
        (fun job ->
          finish t job (Data payload);
          maybe_slow t job ())
        jobs
    | exception exn ->
      let code, msg = refusal_of_exn exn in
      List.iter (fun job -> finish t job (Refused (code, msg))) jobs)
  | jobs -> (
    (* an all-literal block (Batcher.coalesce groups nothing else); a
       stray non-literal is an internal bug, but the wire protocol has an
       error frame for it, so refuse the job instead of dying *)
    let jobs, strays =
      List.partition
        (fun j ->
          match j.request with
          | Batcher.Literal _ -> true
          | Batcher.Statement _ | Batcher.Traced _ | Batcher.Join _
          | Batcher.Insert _ | Batcher.Delete _ | Batcher.Explain _ -> false)
        jobs
    in
    List.iter
      (fun job ->
        finish t job
          (Refused
             (Wire.Server_error, "internal: non-literal job in a batch")))
      strays;
    let values =
      List.filter_map
        (fun j ->
          match j.request with Batcher.Literal v -> Some v | _ -> None)
        jobs
    in
    (* with the slow log armed, give every job a trace so an offending
       request can report its phase breakdown *)
    let traces =
      if t.slow_ms > 0. then
        Some (List.map (fun _ -> Some (Obs.Trace.create "query")) jobs)
      else None
    in
    match backend.run_literals ?traces values with
    | payloads ->
      let traces =
        match traces with
        | Some l -> l
        | None -> List.map (fun _ -> None) jobs
      in
      List.iter2
        (fun (job, trace) p ->
          finish t job (Data p);
          maybe_slow t job ?trace ())
        (List.combine jobs traces)
        payloads
    | exception exn ->
      let code, msg = refusal_of_exn exn in
      List.iter (fun job -> finish t job (Refused (code, msg))) jobs)

let worker t open_backend () =
  let backend = open_backend () in
  Fun.protect
    ~finally:(fun () -> backend.close ())
    (fun () ->
      (* the backend may start with counters already advanced (cache
         preload); baseline them so only query work is reported *)
      let snap = ref (backend.io_totals ()) in
      let rec loop () =
        Lockdep.lock t.mutex;
        Racesan.check t.race;
        while (t.paused || Queue.is_empty t.queue) && t.state = Running do
          Lockdep.wait t.wake t.mutex
        done;
        if Queue.is_empty t.queue then Lockdep.unlock t.mutex (* draining: done *)
        else begin
          let jobs =
            Batcher.coalesce
              ~shares:(fun a b -> Batcher.shares a.request b.request)
              t.queue ~batchable:job_batchable ~max:t.max_batch
          in
          Lockdep.unlock t.mutex;
          let now = Unix.gettimeofday () in
          let live, dead =
            List.partition
              (fun j ->
                match j.deadline with None -> true | Some d -> now <= d)
              jobs
          in
          List.iter
            (fun job ->
              Server_stats.record_expired t.stats;
              try
                job.reply
                  (Refused
                     (Wire.Deadline_exceeded, "deadline passed while queued"))
              with _ -> ())
            dead;
          if live <> [] then begin
            Server_stats.record_batch t.stats ~size:(List.length live);
            Obs.Recorder.batch ~size:(List.length live);
            execute_group t backend live;
            report_io t backend snap
          end;
          loop ()
        end
      in
      loop ())

(* --- caller side --- *)

let create ?(paused = false) ?(slow_ms = 0.) ?flight_path ~domains ~queue_cap
    ~max_batch ~open_backend ~stats () =
  if domains < 1 then invalid_arg "Dispatch.create: domains must be ≥ 1";
  if queue_cap < 1 then invalid_arg "Dispatch.create: queue_cap must be ≥ 1";
  if max_batch < 1 then invalid_arg "Dispatch.create: max_batch must be ≥ 1";
  let mutex = Lockdep.create "server.dispatch" in
  let t =
    {
      mutex;
      race = Racesan.register ~name:"server.dispatch.state" ~lock:mutex;
      wake = Condition.create ();
      queue = Queue.create ();
      queue_cap;
      max_batch;
      n_domains = domains;
      slow_ms;
      slow_log = Obs.Slow_log.create ();
      flight_path;
      flight_last = Atomic.make 0;
      state = Running;
      paused;
      stats;
      workers = [];
    }
  in
  t.workers <-
    List.init domains (fun _ -> Domain.spawn (worker t open_backend));
  t

let submit t ?deadline ~request ~reply () =
  let job = { request; deadline; enqueued_at = Unix.gettimeofday (); reply } in
  let outcome =
    locked t (fun () ->
        Racesan.check t.race;
        match t.state with
        | Draining | Stopped -> `Shutting_down
        | Running ->
          if Queue.length t.queue >= t.queue_cap then `Overloaded
          else begin
            Queue.push job t.queue;
            Server_stats.record_admitted t.stats
              ~queue_depth:(Queue.length t.queue);
            Condition.broadcast t.wake;
            `Accepted
          end)
  in
  (match outcome with
  | `Overloaded -> Server_stats.record_overloaded t.stats
  | `Shutting_down -> Server_stats.record_shed t.stats
  | `Accepted -> ());
  outcome

let resume t =
  locked t (fun () ->
      t.paused <- false;
      Condition.broadcast t.wake)

let queue_depth t = locked t (fun () -> Queue.length t.queue)
let domains t = t.n_domains
let slow_log t = t.slow_log

let drain t =
  let joinable =
    locked t (fun () ->
        match t.state with
        | Stopped -> []
        | Draining | Running ->
          t.state <- Draining;
          t.paused <- false;
          Condition.broadcast t.wake;
          let ws = t.workers in
          t.workers <- [];
          ws)
  in
  List.iter Domain.join joinable;
  locked t (fun () -> t.state <- Stopped)
