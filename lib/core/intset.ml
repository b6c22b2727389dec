type t = int array

let empty = [||]
let is_empty s = Array.length s = 0
let of_list l = Array.of_list (List.sort_uniq Int.compare l)
let to_list = Array.to_list
let cardinal = Array.length

let mem s x =
  let lo = ref 0 and hi = ref (Array.length s) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length s && s.(!lo) = x

(* Walk the smaller side, gallop the larger (cf. Plist_stream's kernel):
   near-linear for like sizes, logarithmic per element once one side is
   much smaller than the other, which rarest-first ordering makes the
   common case. *)
let inter a b =
  let a, b = if Array.length a <= Array.length b then (a, b) else (b, a) in
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let out = Array.make la 0 in
    let k = ref 0 and j = ref 0 in
    (try
       for i = 0 to la - 1 do
         let x = a.(i) in
         if !j >= lb then raise Exit;
         if b.(!j) < x then begin
           (* gallop to a window with b.(lo) < x <= b.(hi), then bisect *)
           let lo = ref !j and step = ref 1 in
           let hi = ref (!lo + 1) in
           while !hi < lb && b.(!hi) < x do
             lo := !hi;
             hi := !hi + !step;
             step := !step * 2
           done;
           let hi = ref (min !hi lb) in
           while !hi - !lo > 1 do
             let mid = (!lo + !hi) / 2 in
             if b.(mid) < x then lo := mid else hi := mid
           done;
           j := !hi
         end;
         if !j < lb && b.(!j) = x then begin
           out.(!k) <- x;
           incr k;
           incr j
         end
       done
     with Exit -> ());
    Array.sub out 0 !k
  end

let union a b =
  let out = ref [] and i = ref 0 and j = ref 0 in
  let la = Array.length a and lb = Array.length b in
  while !i < la && !j < lb do
    let c = Int.compare a.(!i) b.(!j) in
    if c <= 0 then begin
      out := a.(!i) :: !out;
      if c = 0 then incr j;
      incr i
    end
    else begin
      out := b.(!j) :: !out;
      incr j
    end
  done;
  while !i < la do
    out := a.(!i) :: !out;
    incr i
  done;
  while !j < lb do
    out := b.(!j) :: !out;
    incr j
  done;
  Array.of_list (List.rev !out)

let subset a b = Array.for_all (mem b) a
