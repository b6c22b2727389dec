(* Instrument cells are Atomic so recording never takes a lock; the
   registry mutex guards only the name table, touched at registration and
   render time. *)

type labels = (string * string) list

let normalize labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

type counter = int Atomic.t
type gauge = float Atomic.t

let hist_buckets = 64

type histogram = {
  buckets : int Atomic.t array; (* bucket i holds (2^i, 2^(i+1)]; 0 also <= 2 *)
  sum_bits : int64 Atomic.t; (* float sum as bits, CAS-accumulated *)
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Callback of [ `Counter | `Gauge ] * (unit -> float)

type series = {
  name : string;
  labels : labels;
  help : string;
  mutable inst : instrument;
}

type t = {
  lock : Lockdep.t;
  race : Racesan.cell;
  table : (string * labels, series) Hashtbl.t;
  mutable order : series list; (* registration order, reversed *)
}

let create () =
  let lock = Lockdep.create "obs.metrics" in
  {
    lock;
    race = Racesan.register ~name:"obs.metrics.registry" ~lock;
    table = Hashtbl.create 64;
    order = [];
  }

let valid_name name =
  String.length name > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = ':')
       name
  && not (name.[0] >= '0' && name.[0] <= '9')

let kind_name = function
  | Counter _ | Callback (`Counter, _) -> "counter"
  | Gauge _ | Callback (`Gauge, _) -> "gauge"
  | Histogram _ -> "histogram"

let register t ?(help = "") ?(labels = []) name make =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  let labels = normalize labels in
  Lockdep.protect t.lock (fun () ->
      Racesan.check t.race;
      match Hashtbl.find_opt t.table (name, labels) with
      | Some s -> s
      | None ->
          let s = { name; labels; help; inst = make () } in
          Hashtbl.replace t.table (name, labels) s;
          t.order <- s :: t.order;
          s)

let kind_clash name existing wanted =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered as a %s, not a %s" name
       (kind_name existing) wanted)

let counter t ?help ?labels name =
  let s = register t ?help ?labels name (fun () -> Counter (Atomic.make 0)) in
  match s.inst with
  | Counter c -> c
  | other -> kind_clash name other "counter"

let inc c = ignore (Atomic.fetch_and_add c 1)
let add c n = ignore (Atomic.fetch_and_add c n)
let counter_value c = Atomic.get c

let gauge t ?help ?labels name =
  let s = register t ?help ?labels name (fun () -> Gauge (Atomic.make 0.)) in
  match s.inst with
  | Gauge g -> g
  | other -> kind_clash name other "gauge"

let set g v = Atomic.set g v

let rec set_max g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then set_max g v

let gauge_value g = Atomic.get g

let make_histogram () =
  {
    buckets = Array.init hist_buckets (fun _ -> Atomic.make 0);
    sum_bits = Atomic.make 0L;
  }

let histogram t ?help ?labels name =
  let s =
    register t ?help ?labels name (fun () -> Histogram (make_histogram ()))
  in
  match s.inst with
  | Histogram h -> h
  | other -> kind_clash name other "histogram"

let bucket_upper i = Float.of_int (Int.shift_left 1 (i + 1))

let bucket_of v =
  if v <= 2. then 0
  else
    let b = int_of_float (ceil (Float.log2 v)) - 1 in
    (* float log2 can land a hair off at exact powers of two *)
    let b = if bucket_upper b < v then b + 1 else if b > 0 && bucket_upper (b - 1) >= v then b - 1 else b in
    max 0 (min (hist_buckets - 1) b)

let rec add_sum h v =
  let cur = Atomic.get h.sum_bits in
  let next = Int64.bits_of_float (Int64.float_of_bits cur +. v) in
  if not (Atomic.compare_and_set h.sum_bits cur next) then add_sum h v

let observe h v =
  ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1);
  add_sum h v

let hist_count h =
  Array.fold_left (fun acc b -> acc + Atomic.get b) 0 h.buckets

let hist_sum h = Int64.float_of_bits (Atomic.get h.sum_bits)

let quantile h p =
  let counts = Array.map Atomic.get h.buckets in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.
  else begin
    let rank = max 1 (min total (int_of_float (ceil (p *. float_of_int total)))) in
    let acc = ref 0 and result = ref (bucket_upper (hist_buckets - 1)) in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if !acc >= rank then begin
             result := bucket_upper i;
             raise Exit
           end)
         counts
     with Exit -> ());
    !result
  end

let register_callback t ?help ?labels ~kind name f =
  let s = register t ?help ?labels name (fun () -> Callback (kind, f)) in
  match s.inst with
  | Callback (k, _) when k = kind ->
      (* replace: a reopened handle takes over its series *)
      s.inst <- Callback (kind, f)
  | other -> kind_clash name other (match kind with `Counter -> "counter" | `Gauge -> "gauge")

(* ---- rendering ---- *)

let sorted_series t =
  let all =
    Lockdep.protect t.lock (fun () ->
        Racesan.check t.race;
        List.rev t.order)
  in
  List.stable_sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    all

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* HELP text is free-form to end of line: the exposition format escapes
   backslash and newline there (label values additionally escape the
   double quote, [escape_label]). *)
let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let label_str labels =
  match labels with
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
             ls)
      ^ "}"

(* Prometheus spells the non-finite values NaN, +Inf and -Inf. *)
let fmt_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

(* Bucket lines splice the series labels before the [le] label. *)
let bucket_label_prefix labels =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"," k (escape_label v))
       labels)

let render_text t =
  let buf = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen_header s.name) then begin
        Hashtbl.add seen_header s.name ();
        if s.help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" s.name (escape_help s.help));
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" s.name (kind_name s.inst))
      end;
      let ls = label_str s.labels in
      match s.inst with
      | Counter c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" s.name ls (Atomic.get c))
      | Gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" s.name ls (fmt_float (Atomic.get g)))
      | Callback (_, f) ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" s.name ls (fmt_float (f ())))
      | Histogram h ->
          let counts = Array.map Atomic.get h.buckets in
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              if c > 0 || i = 0 then
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket{%sle=\"%s\"} %d\n" s.name
                     (bucket_label_prefix s.labels)
                     (fmt_float (bucket_upper i))
                     !cum))
            counts;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{%sle=\"+Inf\"} %d\n" s.name
               (bucket_label_prefix s.labels)
               !cum);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" s.name ls (fmt_float (hist_sum h)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" s.name ls !cum))
    (sorted_series t);
  Buffer.contents buf

let render_json t =
  let module J = Textformats.Json in
  let int n = J.Number (float_of_int n) in
  let entry s =
    let value =
      match s.inst with
      | Counter c -> [ ("value", int (Atomic.get c)) ]
      | Gauge g -> [ ("value", J.Number (Atomic.get g)) ]
      | Callback (_, f) -> [ ("value", J.Number (f ())) ]
      | Histogram h ->
          [ ("count", int (hist_count h)); ("sum", J.Number (hist_sum h));
            ("p50", J.Number (quantile h 0.50)); ("p95", J.Number (quantile h 0.95));
            ("p99", J.Number (quantile h 0.99)) ]
    in
    J.Object
      (("name", J.String s.name)
       :: ("labels", J.Object (List.map (fun (k, v) -> (k, J.String v)) s.labels))
       :: ("kind", J.String (kind_name s.inst))
       :: value)
  in
  J.to_string (J.Array (List.map entry (sorted_series t)))
