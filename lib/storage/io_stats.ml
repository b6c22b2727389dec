type t = {
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable hits : int;
  mutable misses : int;
  mutable lookups : int;
  mutable faults : int;
  mutable recoveries : int;
}

let create () =
  { reads = 0; writes = 0; bytes_read = 0; bytes_written = 0;
    hits = 0; misses = 0; lookups = 0; faults = 0; recoveries = 0 }

let reset t =
  t.reads <- 0;
  t.writes <- 0;
  t.bytes_read <- 0;
  t.bytes_written <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.lookups <- 0;
  t.faults <- 0;
  t.recoveries <- 0

let record_read t ~bytes =
  t.reads <- t.reads + 1;
  t.bytes_read <- t.bytes_read + bytes

let record_write t ~bytes =
  t.writes <- t.writes + 1;
  t.bytes_written <- t.bytes_written + bytes

let record_hit t = t.hits <- t.hits + 1
let record_miss t = t.misses <- t.misses + 1
let record_lookup t = t.lookups <- t.lookups + 1
let record_fault t = t.faults <- t.faults + 1
let record_recovery t = t.recoveries <- t.recoveries + 1

let reads t = t.reads
let writes t = t.writes
let bytes_read t = t.bytes_read
let bytes_written t = t.bytes_written
let hits t = t.hits
let misses t = t.misses
let lookups t = t.lookups
let faults t = t.faults
let recoveries t = t.recoveries

let hit_ratio t =
  let total = t.hits + t.misses in
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total

let merge a b =
  {
    reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    bytes_read = a.bytes_read + b.bytes_read;
    bytes_written = a.bytes_written + b.bytes_written;
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    lookups = a.lookups + b.lookups;
    faults = a.faults + b.faults;
    recoveries = a.recoveries + b.recoveries;
  }

let pp ppf t =
  Format.fprintf ppf
    "reads=%d (%d B) writes=%d (%d B) cache hits=%d misses=%d (ratio %.3f)"
    t.reads t.bytes_read t.writes t.bytes_written t.hits t.misses
    (hit_ratio t);
  if t.faults > 0 || t.recoveries > 0 then
    Format.fprintf ppf " faults=%d recoveries=%d" t.faults t.recoveries

let attribute ?trace ?store l f =
  match trace with
  | None -> f ()
  | Some tr ->
    let l0 = lookups l and h0 = hits l and m0 = misses l in
    let r0, b0 =
      match store with Some s -> (reads s, bytes_read s) | None -> (0, 0)
    in
    let v = f () in
    let put k n = Obs.Trace.add_attr tr k (string_of_int n) in
    put "lookups" (lookups l - l0);
    put "hits" (hits l - h0);
    put "misses" (misses l - m0);
    Option.iter
      (fun s ->
        if reads s > r0 then put "reads" (reads s - r0);
        if bytes_read s > b0 then put "bytes_read" (bytes_read s - b0))
      store;
    v

let register reg ?(labels = []) t =
  let c name help f =
    Obs.Metrics.register_callback reg ~help ~labels ~kind:`Counter name
      (fun () -> float_of_int (f t))
  in
  c "nscq_io_reads_total" "Store read operations" reads;
  c "nscq_io_writes_total" "Store write operations" writes;
  c "nscq_io_bytes_read_total" "Bytes read from the store" bytes_read;
  c "nscq_io_bytes_written_total" "Bytes written to the store" bytes_written;
  c "nscq_io_lookups_total" "Logical inverted-list lookups" lookups;
  c "nscq_io_cache_hits_total" "Lookups served from the decoded-list cache"
    hits;
  c "nscq_io_cache_misses_total" "Lookups that went to the backing store"
    misses;
  c "nscq_io_faults_total" "Injected storage faults" faults;
  c "nscq_io_recoveries_total" "Recovery actions (rollbacks, log truncations)"
    recoveries;
  Obs.Metrics.register_callback reg
    ~help:"Cache hit ratio, hits / (hits + misses)" ~labels ~kind:`Gauge
    "nscq_io_cache_hit_ratio" (fun () -> hit_ratio t)
