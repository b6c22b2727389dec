type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of { pos : int; message : string }

let fail pos message = raise (Parse_error { pos; message })

type state = { input : string; mutable pos : int }

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> true
    | _ -> false
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> fail st.pos (Printf.sprintf "expected '%c', found '%c'" c x)
  | None -> fail st.pos (Printf.sprintf "expected '%c', found end of input" c)

let expect_keyword st kw =
  let n = String.length kw in
  if st.pos + n <= String.length st.input && String.sub st.input st.pos n = kw then
    st.pos <- st.pos + n
  else fail st.pos (Printf.sprintf "expected '%s'" kw)

(* UTF-8 encoding of a code point. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let hex_digit st =
  match peek st with
  | Some c ->
    advance st;
    (match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail (st.pos - 1) "invalid hex digit")
  | None -> fail st.pos "truncated \\u escape"

let hex4 st =
  let a = hex_digit st in
  let b = hex_digit st in
  let c = hex_digit st in
  let d = hex_digit st in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st.pos "truncated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = hex4 st in
          if cp >= 0xd800 && cp <= 0xdbff then begin
            (* high surrogate: require a low surrogate *)
            expect st '\\';
            expect st 'u';
            let lo = hex4 st in
            if lo < 0xdc00 || lo > 0xdfff then fail st.pos "unpaired surrogate";
            add_utf8 buf (0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00))
          end
          else if cp >= 0xdc00 && cp <= 0xdfff then fail st.pos "unpaired surrogate"
          else add_utf8 buf cp
        | c -> fail (st.pos - 1) (Printf.sprintf "invalid escape '\\%c'" c)));
      loop ()
    | Some c when Char.code c < 0x20 -> fail st.pos "control character in string"
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let consume_while pred =
    while (match peek st with Some c when pred c -> true | _ -> false) do
      advance st
    done
  in
  (match peek st with Some '-' -> advance st | _ -> ());
  consume_while (function '0' .. '9' -> true | _ -> false);
  (match peek st with
  | Some '.' ->
    advance st;
    consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  let s = String.sub st.input start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail start (Printf.sprintf "invalid number %S" s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    (match peek st with
    | Some '}' ->
      advance st;
      Object []
    | _ ->
      let rec fields acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | _ -> fail st.pos "expected ',' or '}'"
      in
      Object (fields []))
  | Some '[' ->
    advance st;
    skip_ws st;
    (match peek st with
    | Some ']' ->
      advance st;
      Array []
    | _ ->
      let rec elems acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elems (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st.pos "expected ',' or ']'"
      in
      Array (elems []))
  | Some '"' -> String (parse_string st)
  | Some 't' ->
    expect_keyword st "true";
    Bool true
  | Some 'f' ->
    expect_keyword st "false";
    Bool false
  | Some 'n' ->
    expect_keyword st "null";
    Null
  | Some ('-' | '0' .. '9') -> Number (parse_number st)
  | Some c -> fail st.pos (Printf.sprintf "unexpected character '%c'" c)

let of_string s =
  let st = { input = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  (match peek st with
  | Some c -> fail st.pos (Printf.sprintf "trailing input starting with '%c'" c)
  | None -> ());
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

let parse_many s =
  let st = { input = s; pos = 0 } in
  let rec loop acc =
    skip_ws st;
    match peek st with
    | None -> List.rev acc
    | Some _ -> loop (parse_value st :: acc)
  in
  loop []

(* --- printing --- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The shortest of %.15g/%.17g that reads back as [f]; JSON has no NaN
   or infinity, so those print as null. *)
let number_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let short = Printf.sprintf "%.15g" f in
    if Float.equal (float_of_string short) f then short else Printf.sprintf "%.17g" f

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Number f -> Buffer.add_string buf (number_to_string f)
    | String s -> escape_string buf s
    | Array [] -> Buffer.add_string buf "[]"
    | Array elems ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_char buf ',';
          if pretty then begin
            Buffer.add_char buf '\n';
            indent (depth + 1)
          end;
          go (depth + 1) e)
        elems;
      if pretty then begin
        Buffer.add_char buf '\n';
        indent depth
      end;
      Buffer.add_char buf ']'
    | Object [] -> Buffer.add_string buf "{}"
    | Object fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          if pretty then begin
            Buffer.add_char buf '\n';
            indent (depth + 1)
          end;
          escape_string buf k;
          Buffer.add_char buf ':';
          if pretty then Buffer.add_char buf ' ';
          go (depth + 1) v)
        fields;
      if pretty then begin
        Buffer.add_char buf '\n';
        indent depth
      end;
      Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string ~pretty:true t)

let member key = function
  | Object fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Array l -> l | _ -> []

let rec equal a b =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Number x, Number y -> x = y
  | String x, String y -> String.equal x y
  | Array x, Array y -> List.length x = List.length y && List.for_all2 equal x y
  | Object x, Object y ->
    let sort l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
    let x = sort x and y = sort y in
    List.length x = List.length y
    && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | (Null | Bool _ | Number _ | String _ | Array _ | Object _), _ -> false
