(* nscq-lint — project-rule checker built on compiler-libs.

   Parses every .ml under the given roots (no type-checking, so the
   rules are syntactic approximations, documented in DESIGN.md) and
   enforces:

     R1 polycmp    no polymorphic compare/hash on nested-set data
                   (lib/core, lib/nested, the lib/invfile/plist modules,
                   bin/, bench/)
     R2 io         no console printing / blocking Unix calls in query
                   hot paths (lib/core, lib/invfile, lib/shard/router.ml;
                   bin/ and bench/ carry explicit file-level allows where
                   console output is the point)
     R3 guarded    no top-level mutable value (Hashtbl, ref, Bytes,
                   Array, Queue, Stack, Buffer, records with mutable
                   fields; Atomic exempt) in library modules without
                   [@@lint.guarded_by <mutex>]
     R4 bare_fail  no failwith / assert false in server reply paths
                   (lib/server, excluding the client side)
     R5 mli        every library module has an .mli
     R6 lockset    [@@lint.guarded_by] is a checked contract: every
                   access to a guarded top-level value must happen with
                   the declared lock in the lexical lockset (through
                   Mutex.protect / Lockdep.protect / lock-unlock pairs,
                   inferred lock-wrapper functions, or a declared
                   [@@lint.requires_lock <mutex>] on the enclosing
                   function, whose own call sites are then checked);
                   unannotated mutables that escape into a
                   Domain.spawn / Parallel / Dispatch / Thread closure
                   are reported even where R3 does not apply

   The pass is two-phase: phase 1 parses every file once and collects
   top-level mutable values, their guards, declared lock bindings and
   mutable record labels; phase 2 walks each file with a lockset and
   checks the contracts, cross-module accesses included.

   Suppression: [@lint.allow <rule-name>] on an expression or binding,
   [@@@lint.allow <rule-name>] for the rest of a file. File discovery
   is scoped to dune-tracked sources: a directory walk only picks up
   .ml files sitting next to a dune file (so a dirty tree's generated
   or scratch files are skipped instead of tripping parse errors);
   explicitly named files are always linted. Exit 0 when clean, 1 with
   one "file:line:col: [R#] message" line per violation (or a JSON
   array under --json), 2 on usage errors. *)

module SSet = Set.Make (String)

type rule = R1 | R2 | R3 | R4 | R5 | R6

let rule_id = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"

(* the name used in [@lint.allow <name>] *)
let rule_key = function
  | R1 -> "polycmp"
  | R2 -> "io"
  | R3 -> "guarded"
  | R4 -> "bare_fail"
  | R5 -> "mli"
  | R6 -> "lockset"

let all_rules = [ R1; R2; R3; R4; R5; R6 ]

let rule_of_string s =
  match String.lowercase_ascii s with
  | "r1" | "polycmp" -> Some R1
  | "r2" | "io" -> Some R2
  | "r3" | "guarded" -> Some R3
  | "r4" | "bare_fail" -> Some R4
  | "r5" | "mli" -> Some R5
  | "r6" | "lockset" -> Some R6
  | _ -> None

(* --- diagnostics --- *)

type diagnostic = {
  file : string;
  line : int;
  col : int;
  rule : string; (* "R1".."R6" or "parse" *)
  msg : string;
}

let diagnostics : diagnostic list ref = ref []

let report ~file ~line ~col ~rule msg =
  diagnostics := { file; line; col; rule; msg } :: !diagnostics

let report_loc (loc : Location.t) ~rule msg =
  let p = loc.loc_start in
  report ~file:p.pos_fname ~line:p.pos_lnum ~col:(p.pos_cnum - p.pos_bol)
    ~rule:(rule_id rule) msg

(* --- attribute helpers --- *)

let rec payload_idents (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident s; _ } -> [ s ]
  | Pexp_construct ({ txt = Longident.Lident s; _ }, None) -> [ s ]
  | Pexp_constant (Pconst_string (s, _, _)) -> [ s ]
  | Pexp_apply (f, args) ->
    payload_idents f @ List.concat_map (fun (_, a) -> payload_idents a) args
  | Pexp_tuple es -> List.concat_map payload_idents es
  | _ -> []

let attr_rule_names name (attrs : Parsetree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if String.equal a.attr_name.txt name then
        match a.attr_payload with
        | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> payload_idents e
        | _ -> []
      else [])
    attrs

let allow_names attrs = attr_rule_names "lint.allow" attrs
let guarded_by_names attrs = attr_rule_names "lint.guarded_by" attrs
let requires_lock_names attrs = attr_rule_names "lint.requires_lock" attrs

let has_guarded_by (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      String.equal a.attr_name.txt "lint.guarded_by")
    attrs

(* --- per-file checking context --- *)

type ctx = {
  file : string;
  active : rule list; (* rules in force for this file *)
  suppressed : (string, int) Hashtbl.t; (* allow-name -> nesting depth *)
  defines_compare : bool; (* file defines its own [compare] *)
}

let rule_on ctx r =
  List.mem r ctx.active
  &&
  match Hashtbl.find_opt ctx.suppressed (rule_key r) with
  | Some n when n > 0 -> false
  | _ -> true

let push_allows ctx names =
  List.iter
    (fun n ->
      Hashtbl.replace ctx.suppressed n
        (1 + Option.value ~default:0 (Hashtbl.find_opt ctx.suppressed n)))
    names

let pop_allows ctx names =
  List.iter
    (fun n ->
      match Hashtbl.find_opt ctx.suppressed n with
      | Some d when d > 1 -> Hashtbl.replace ctx.suppressed n (d - 1)
      | _ -> Hashtbl.remove ctx.suppressed n)
    names

let with_allows ctx names f =
  push_allows ctx names;
  Fun.protect ~finally:(fun () -> pop_allows ctx names) f

(* --- longident classification --- *)

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply _ -> []

let strip_stdlib = function
  | ("Stdlib" | "Pervasives") :: rest -> rest
  | l -> l

let lid_path lid = strip_stdlib (flatten_lid lid)
let lid_str lid = String.concat "." (flatten_lid lid)

(* R1: polymorphic structural comparison or hashing. *)
let polycmp_hit ctx path =
  match path with
  | [ "compare" ] -> not ctx.defines_compare
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] -> true
  | [ "List"; ("mem" | "assoc" | "mem_assoc" | "remove_assoc") ] -> true
  | _ -> false

(* R2: console printing and blocking Unix calls. Formatter-directed
   Format.fprintf/pp_* and string-building Printf.sprintf stay legal. *)
let io_hit path =
  match path with
  | [ ( "print_string" | "print_endline" | "print_newline" | "print_char"
      | "print_int" | "print_float" | "print_bytes" | "prerr_string"
      | "prerr_endline" | "prerr_newline" | "prerr_char" | "prerr_int"
      | "prerr_float" | "prerr_bytes" | "output_string" | "output_bytes"
      | "output_char" | "output_value" | "read_line" | "read_int" ) ] ->
    true
  | [ "Printf"; ("printf" | "eprintf" | "fprintf") ] -> true
  | [ "Format"; ("printf" | "eprintf" | "print_string" | "print_newline") ]
    ->
    true
  | [ "Unix";
      ( "read" | "write" | "single_write" | "select" | "sleep" | "sleepf"
      | "openfile" | "system" | "fsync" | "waitpid" ) ] ->
    true
  | _ -> false

(* --- expression checks (R1, R2, R4) --- *)

let check_ident ctx (lid : Longident.t) (loc : Location.t) =
  let path = lid_path lid in
  if rule_on ctx R1 && polycmp_hit ctx path then
    report_loc loc ~rule:R1
      (Printf.sprintf
         "polymorphic %s on nested-set data; use a monomorphic \
          compare/equal/hash (Value.compare, String.equal, String.hash, \
          ...) or annotate [@lint.allow polycmp]"
         (lid_str lid));
  if rule_on ctx R2 && io_hit path then
    report_loc loc ~rule:R2
      (Printf.sprintf
         "%s in a query hot path; route diagnostics through Obs (metrics, \
          trace, slow log) or annotate [@lint.allow io]"
         (lid_str lid));
  if rule_on ctx R4 && path = [ "failwith" ] then
    report_loc loc ~rule:R4
      "failwith in a server reply path; the wire protocol has an error \
       frame — reply with Wire.Error / Dispatch.Refused or annotate \
       [@lint.allow bare_fail]"

let check_expr ctx (e : Parsetree.expression) =
  (match e.pexp_desc with
  | Pexp_ident { txt; loc } -> check_ident ctx txt loc
  | Pexp_apply (f, args) when rule_on ctx R1 ->
    (* (=) / (<>) used as a first-class equality: passed bare to a
       higher-order function, or partially applied to build a predicate
       ([List.exists (( = ) v)]). Infix two-argument tests stay legal —
       ints and strings compare that way all over the tree. *)
    (match (f.pexp_desc, args) with
    | Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); loc }, [ _ ]
      ->
      report_loc loc ~rule:R1
        (Printf.sprintf
           "polymorphic (%s) partially applied as an equality predicate; \
            use Value.equal / String.equal / Int.equal or annotate \
            [@lint.allow polycmp]"
           op)
    | _ -> ());
    List.iter
      (fun ((_, arg) : Asttypes.arg_label * Parsetree.expression) ->
        match arg.pexp_desc with
        | Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); loc } ->
          report_loc loc ~rule:R1
            (Printf.sprintf
               "polymorphic (%s) passed as an equality function; pass \
                Value.equal / String.equal / Int.equal or annotate \
                [@lint.allow polycmp]"
               op)
        | _ -> ())
      args
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
    when rule_on ctx R4 ->
    report_loc e.pexp_loc ~rule:R4
      "assert false in a server reply path; reply with Wire.Error / \
       Dispatch.Refused or annotate [@lint.allow bare_fail]"
  | _ -> ())

let make_iterator ctx =
  let super = Ast_iterator.default_iterator in
  let expr self (e : Parsetree.expression) =
    with_allows ctx
      (allow_names e.pexp_attributes)
      (fun () ->
        check_expr ctx e;
        super.expr self e)
  in
  let value_binding self (vb : Parsetree.value_binding) =
    with_allows ctx
      (allow_names vb.pvb_attributes)
      (fun () -> super.value_binding self vb)
  in
  let structure_item self (item : Parsetree.structure_item) =
    match item.pstr_desc with
    | Pstr_attribute a ->
      (* [@@@lint.allow ...] holds for the rest of the file: push without
         a matching pop *)
      push_allows ctx (allow_names [ a ]);
      super.structure_item self item
    | _ -> super.structure_item self item
  in
  { super with expr; value_binding; structure_item }

(* --- mutable-value classification (R3 / R6 phase 1) --- *)

let rec peel_constraints (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> peel_constraints e
  | _ -> e

(* Labels of mutable record fields declared in this file (including
   sub-modules): a top-level record literal mentioning one is shared
   mutable state exactly like a top-level Hashtbl. *)
let mutable_labels_of (str : Parsetree.structure) =
  let labels = ref SSet.empty in
  let rec scan items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_type (_, decls) ->
          List.iter
            (fun (d : Parsetree.type_declaration) ->
              match d.ptype_kind with
              | Ptype_record fields ->
                List.iter
                  (fun (f : Parsetree.label_declaration) ->
                    if f.pld_mutable = Mutable then
                      labels := SSet.add f.pld_name.txt !labels)
                  fields
              | _ -> ())
            decls
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
          scan s
        | _ -> ())
      items
  in
  scan str;
  !labels

(* [Some kind] when the expression builds shared mutable state;
   [Atomic.make] is deliberately not mutable for the rules' purposes. *)
let mutable_kind ~mutable_labels (e : Parsetree.expression) =
  match (peel_constraints e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match lid_path txt with
    | [ "Hashtbl"; "create" ] -> Some "Hashtbl"
    | [ "ref" ] -> Some "ref"
    | [ "Bytes"; ("create" | "make" | "init" | "of_string") ] -> Some "Bytes"
    | [ "Array"; ("make" | "create" | "init" | "make_matrix" | "copy") ] ->
      Some "Array"
    | [ "Queue"; "create" ] -> Some "Queue"
    | [ "Stack"; "create" ] -> Some "Stack"
    | [ "Buffer"; "create" ] -> Some "Buffer"
    | _ -> None)
  | Pexp_array (_ :: _) -> Some "Array"
  | Pexp_record (fields, _) ->
    if
      List.exists
        (fun (({ txt; _ } : Longident.t Asttypes.loc), _) ->
          match txt with
          | Longident.Lident l -> SSet.mem l mutable_labels
          | _ -> false)
        fields
    then Some "record with mutable fields"
    else None
  | _ -> None

let is_atomic (e : Parsetree.expression) =
  match (peel_constraints e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    lid_path txt = [ "Atomic"; "make" ]
  | _ -> false

(* --- phase 1: the cross-module environment --- *)

type ginfo = {
  g_file : string;
  g_module : string; (* capitalized module name from the file name *)
  g_name : string;
  g_kind : string;
  g_lock : string option; (* guarded_by payload; None when unannotated *)
  g_atomic : bool;
  g_allowed : bool;
}

type genv = {
  (* value name -> every top-level mutable of that name, any module *)
  guarded : (string, ginfo) Hashtbl.t;
  (* file -> lock-binding name -> Lockdep class string (when literal) *)
  lock_classes : (string, (string, string) Hashtbl.t) Hashtbl.t;
  (* file -> binding names of lock values (Mutex.create/Lockdep.create) *)
  lock_bindings : (string, SSet.t ref) Hashtbl.t;
}

let module_of_file file =
  String.capitalize_ascii Filename.(remove_extension (basename file))

let lock_make_kind (e : Parsetree.expression) =
  match (peel_constraints e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
    match lid_path txt with
    | [ "Mutex"; "create" ] -> Some None
    | [ "Lockdep"; "create" ] -> (
      match args with
      | (_, { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }) :: _
        ->
        Some (Some s)
      | _ -> Some None)
    | _ -> None)
  | _ -> None

let genv_add_file genv file (str : Parsetree.structure) =
  let mutable_labels = mutable_labels_of str in
  let m = module_of_file file in
  let classes = Hashtbl.create 8 in
  let bindings = ref SSet.empty in
  Hashtbl.replace genv.lock_classes file classes;
  Hashtbl.replace genv.lock_bindings file bindings;
  let rec scan items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt = name; _ } -> (
                (match lock_make_kind vb.pvb_expr with
                | Some cls ->
                  bindings := SSet.add name !bindings;
                  Option.iter (Hashtbl.replace classes name) cls
                | None -> ());
                let lock =
                  match
                    guarded_by_names vb.pvb_attributes
                    @ guarded_by_names vb.pvb_expr.pexp_attributes
                  with
                  | l :: _ -> Some l
                  | [] -> None
                in
                let allowed =
                  List.mem (rule_key R3) (allow_names vb.pvb_attributes)
                  || List.mem (rule_key R6) (allow_names vb.pvb_attributes)
                in
                match mutable_kind ~mutable_labels vb.pvb_expr with
                | Some kind ->
                  Hashtbl.add genv.guarded name
                    {
                      g_file = file;
                      g_module = m;
                      g_name = name;
                      g_kind = kind;
                      g_lock = lock;
                      g_atomic = false;
                      g_allowed = allowed;
                    }
                | None ->
                  if is_atomic vb.pvb_expr then
                    Hashtbl.add genv.guarded name
                      {
                        g_file = file;
                        g_module = m;
                        g_name = name;
                        g_kind = "Atomic";
                        g_lock = None;
                        g_atomic = true;
                        g_allowed = true;
                      })
              | _ -> ())
            vbs
        | Pstr_module { pmb_expr = me; _ } -> scan_module me
        | Pstr_recmodule mbs ->
          List.iter
            (fun (mb : Parsetree.module_binding) -> scan_module mb.pmb_expr)
            mbs
        | _ -> ())
      items
  and scan_module (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_structure s -> scan s
    | Pmod_functor (_, body) -> scan_module body
    | Pmod_constraint (me, _) -> scan_module me
    | _ -> ()
  in
  scan str

(* A guarded value is looked up by name plus, for qualified accesses,
   the head module; same-file accesses win over a same-named value in
   another module. *)
let genv_lookup genv ~file path =
  match path with
  | [] -> None
  | _ ->
    let name = List.nth path (List.length path - 1) in
    let candidates = Hashtbl.find_all genv.guarded name in
    let local = List.find_opt (fun g -> String.equal g.g_file file) candidates in
    (match path with
    | [] | [ _ ] -> local
    | qual :: _ -> (
      match
        List.find_opt
          (fun g ->
            String.equal g.g_module (List.hd path)
            && not (String.equal g.g_file file))
          candidates
      with
      | Some g -> Some g
      | None -> if String.equal qual (module_of_file file) then local else None))

(* --- R3: top-level mutable state (single-module annotation check) --- *)

let rec check_r3_structure ctx ~mutable_labels (str : Parsetree.structure) =
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_attribute a -> push_allows ctx (allow_names [ a ])
      | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            if
              rule_on ctx R3
              && (not (has_guarded_by vb.pvb_attributes))
              && (not (has_guarded_by vb.pvb_expr.pexp_attributes))
              && not (List.mem (rule_key R3) (allow_names vb.pvb_attributes))
            then
              match mutable_kind ~mutable_labels vb.pvb_expr with
              | Some kind ->
                report_loc vb.pvb_loc ~rule:R3
                  (Printf.sprintf
                     "top-level mutable %s shared by every domain; guard \
                      it with a Lockdep mutex and annotate \
                      [@@lint.guarded_by <mutex>] (or make it Atomic)"
                     kind)
              | None -> ())
          vbs
      | Pstr_module mb -> check_r3_module ctx ~mutable_labels mb.pmb_expr
      | Pstr_recmodule mbs ->
        List.iter (fun (mb : Parsetree.module_binding) ->
            check_r3_module ctx ~mutable_labels mb.pmb_expr)
          mbs
      | _ -> ())
    str

and check_r3_module ctx ~mutable_labels (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_structure s -> check_r3_structure ctx ~mutable_labels s
  | Pmod_functor (_, body) -> check_r3_module ctx ~mutable_labels body
  | Pmod_constraint (me, _) -> check_r3_module ctx ~mutable_labels me
  | _ -> ()

(* --- R6: checked guarded_by contracts ---

   A lexical lockset analysis over the parsetree. The lockset grows
   through:

     - Mutex.protect L f / Lockdep.protect L f: the function argument
       runs with L held;
     - Mutex.lock L; ...; Mutex.unlock L sequences (Lockdep.lock too);
     - calls of inferred lock wrappers: a function whose last unlabelled
       function parameter is always run with some lock held (e.g.
       [let with_state f = Mutex.protect state_mu f]) passes that lock
       to literal-lambda arguments at its call sites;
     - [@@lint.requires_lock <mutex>] on a binding: the body is checked
       with the lock assumed held, and every call site of the function
       must hold it — Clang thread-safety REQUIRES(), approximated.

   Accesses at lambda depth 0 (module initialisation, which runs before
   any domain is spawned) are exempt. *)

type lenv = {
  genv : genv;
  lfile : string;
  lctx : ctx;
  (* function name -> locks its last unlabelled lambda argument runs
     under (inferred wrappers), flat per file *)
  wrappers : (string, SSet.t) Hashtbl.t;
  (* function name -> locks its callers must hold *)
  requires : (string, SSet.t) Hashtbl.t;
}

(* Both the binding name and, for Lockdep locks with a literal class,
   the class string go into the lockset, so [@@lint.guarded_by] can
   name either. *)
let lock_names_of lenv (e : Parsetree.expression) =
  match (peel_constraints e).pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match lid_path txt with
    | [] -> SSet.empty
    | path ->
      let name = List.nth path (List.length path - 1) in
      let base = SSet.singleton name in
      (match Hashtbl.find_opt lenv.genv.lock_classes lenv.lfile with
      | Some classes -> (
        match Hashtbl.find_opt classes name with
        | Some cls -> SSet.add cls base
        | None -> base)
      | None -> base))
  | Pexp_field (_, { txt; _ }) -> (
    (* t.mutex-style locks: record fields have no global identity the
       parser can see, so only the field name enters the lockset —
       enough for same-record [@@lint.guarded_by <field>] contracts. *)
    match lid_path txt with
    | [] -> SSet.empty
    | path -> SSet.singleton (List.nth path (List.length path - 1)))
  | _ -> SSet.empty

let is_protect_path path =
  match path with
  | [ ("Mutex" | "Lockdep"); "protect" ] -> true
  | _ -> false

let is_lock_path path =
  match path with
  | [ ("Mutex" | "Lockdep"); "lock" ] -> true
  | _ -> false

let is_unlock_path path =
  match path with
  | [ ("Mutex" | "Lockdep"); "unlock" ] -> true
  | _ -> false

(* Functions whose closure arguments run on another domain/thread. *)
let spawns_closure path =
  match path with
  | [ "Domain"; "spawn" ] | [ "Thread"; "create" ] -> true
  | ("Parallel" | "Dispatch") :: _ -> true
  | _ -> false

let last_nolabel_index args =
  let idx = ref (-1) in
  List.iteri
    (fun i ((lbl, _) : Asttypes.arg_label * Parsetree.expression) ->
      if lbl = Asttypes.Nolabel then idx := i)
    args;
  !idx

type wstate = {
  locks : SSet.t;
  depth : int; (* enclosing lambda count; 0 = module init *)
  in_spawn : bool;
  (* inference mode: watch this parameter and intersect the locksets it
     is run under; Check mode reports instead *)
  watch : (string * SSet.t option ref) option;
}

let rec peel_fun_params (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, pat, body) ->
    let params, body' = peel_fun_params body in
    let here =
      match (lbl, pat.ppat_desc) with
      | Asttypes.Nolabel, Ppat_var { txt; _ } -> [ txt ]
      | _ -> []
    in
    (here @ params, body')
  | _ -> ([], e)

let rec walk lenv st (e : Parsetree.expression) =
  let allows = allow_names e.pexp_attributes in
  with_allows lenv.lctx allows (fun () -> walk_desc lenv st e)

and note_param_run st set =
  match st.watch with
  | Some (_, acc) ->
    let run = SSet.union st.locks set in
    acc :=
      Some
        (match !acc with None -> run | Some prev -> SSet.inter prev run)
  | None -> ()

and is_watched st (arg : Parsetree.expression) =
  match (st.watch, arg.pexp_desc) with
  | Some (p, _), Pexp_ident { txt = Longident.Lident q; _ } ->
    String.equal p q
  | _ -> false

and walk_desc lenv st (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; loc } ->
    (* any occurrence of the watched parameter counts as running it with
       the current lockset (applied, or passed to code that runs it) *)
    (match (st.watch, lid_path txt) with
    | Some (p, _), [ q ] when String.equal p q -> note_param_run st SSet.empty
    | _ -> ());
    check_r6_access lenv st txt loc
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
    when is_protect_path (lid_path txt) ->
    (* Mutex.protect L f — f runs with L held *)
    let nolabels =
      List.filter (fun ((l, _) : Asttypes.arg_label * _) -> l = Asttypes.Nolabel)
        args
    in
    (match nolabels with
    | (_, lock_e) :: _ ->
      let locks = lock_names_of lenv lock_e in
      let last = last_nolabel_index args in
      List.iteri
        (fun i ((_, arg) : Asttypes.arg_label * Parsetree.expression) ->
          if i = last then begin
            let st' = { st with locks = SSet.union st.locks locks } in
            (* a watched parameter handed to protect runs under its lock *)
            if is_watched st arg then note_param_run st' SSet.empty
            else walk_arg lenv st' arg
          end
          else walk lenv st arg)
        args
    | [] -> List.iter (fun (_, a) -> walk lenv st a) args)
  | Pexp_sequence (e1, e2) -> (
    (* Mutex.lock L; body — body runs with L held until the unlock *)
    match e1.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, lock_e) ])
      when is_lock_path (lid_path txt) ->
      walk lenv st e1;
      walk lenv
        { st with locks = SSet.union st.locks (lock_names_of lenv lock_e) }
        e2
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, lock_e) ])
      when is_unlock_path (lid_path txt) ->
      walk lenv st e1;
      walk lenv
        { st with locks = SSet.diff st.locks (lock_names_of lenv lock_e) }
        e2
    | _ ->
      walk lenv st e1;
      walk lenv st e2)
  | Pexp_apply (({ pexp_desc = Pexp_ident { txt; loc }; _ } as f), args) ->
    let path = lid_path txt in
    (* calls of requires_lock functions must hold the declared locks *)
    (match path with
    | [ name ] -> (
      match Hashtbl.find_opt lenv.requires name with
      | Some need ->
        if
          rule_on lenv.lctx R6 && st.depth > 0
          && not (SSet.for_all (fun l -> SSet.mem l st.locks) need)
        then
          report_loc loc ~rule:R6
            (Printf.sprintf
               "call of %s requires holding %s ([@@lint.requires_lock]) — \
                take the lock first or annotate [@lint.allow lockset]"
               name
               (String.concat ", " (SSet.elements need)))
      | None -> ())
    | _ -> ());
    (* wrapper call: its last unlabelled lambda argument runs under the
       wrapper's locks *)
    let wrapper_locks =
      match path with
      | [ name ] -> Hashtbl.find_opt lenv.wrappers name
      | _ -> None
    in
    let spawning = spawns_closure path in
    walk lenv st f;
    let last = last_nolabel_index args in
    List.iteri
      (fun i ((_, arg) : Asttypes.arg_label * Parsetree.expression) ->
        let st' =
          if spawning then { st with in_spawn = true }
          else
            match wrapper_locks with
            | Some locks when i = last ->
              { st with locks = SSet.union st.locks locks }
            | _ -> st
        in
        (* a watched parameter passed through to another lock wrapper's
           run-slot runs under that wrapper's locks, not bare *)
        if
          (match wrapper_locks with Some _ -> i = last | None -> false)
          && is_watched st arg
        then note_param_run st' SSet.empty
        else walk_arg lenv st' arg)
      args
  | Pexp_apply (f, args) ->
    walk lenv st f;
    List.iter (fun (_, a) -> walk_arg lenv st a) args
  | Pexp_fun (_, default, _, body) ->
    Option.iter (walk lenv st) default;
    walk lenv { st with depth = st.depth + 1 } body
  | Pexp_function cases ->
    List.iter
      (fun (c : Parsetree.case) ->
        Option.iter (walk lenv { st with depth = st.depth + 1 }) c.pc_guard;
        walk lenv { st with depth = st.depth + 1 } c.pc_rhs)
      cases
  | Pexp_let (_, vbs, body) ->
    List.iter
      (fun (vb : Parsetree.value_binding) ->
        register_binding lenv st vb;
        walk_binding lenv st vb)
      vbs;
    walk lenv st body
  | _ ->
    (* generic traversal with the same state for every child *)
    let self =
      {
        Ast_iterator.default_iterator with
        expr = (fun _ child -> walk lenv st child);
      }
    in
    Ast_iterator.default_iterator.expr self e

(* The watched-parameter bookkeeping treats a lambda argument as run
   immediately (locks active at the call), which matches how the
   project's protect-wrappers use them. *)
and walk_arg lenv st (arg : Parsetree.expression) =
  match arg.pexp_desc with
  | Pexp_fun _ | Pexp_function _ ->
    (* the lambda body executes where it is passed: keep the adjusted
       lockset, bump depth *)
    let rec into (e : Parsetree.expression) d =
      match e.pexp_desc with
      | Pexp_fun (_, default, _, body) ->
        Option.iter (walk lenv { st with depth = d }) default;
        into body (d + 1)
      | _ -> walk lenv { st with depth = d } e
    in
    into arg (st.depth + 1)
  | _ -> walk lenv st arg

(* Infer a lock-wrapper summary and register requires_lock contracts
   for a binding; used for both top-level and let-bound functions. *)
and register_binding lenv st (vb : Parsetree.value_binding) =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt = name; _ } -> (
    (match requires_lock_names vb.pvb_attributes with
    | [] -> ()
    | locks -> Hashtbl.replace lenv.requires name (SSet.of_list locks));
    let params, body = peel_fun_params vb.pvb_expr in
    match List.rev params with
    | last :: _ ->
      let acc = ref None in
      let st' =
        {
          locks = SSet.empty;
          depth = st.depth;
          in_spawn = false;
          watch = Some (last, acc);
        }
      in
      (* inference never reports: run with every rule suppressed *)
      with_allows lenv.lctx
        (List.map rule_key all_rules)
        (fun () -> walk lenv st' body);
      (match !acc with
      | Some locks when not (SSet.is_empty locks) ->
        Hashtbl.replace lenv.wrappers name locks
      | _ -> ())
    | [] -> ())
  | _ -> ()

and walk_binding lenv st (vb : Parsetree.value_binding) =
  with_allows lenv.lctx
    (allow_names vb.pvb_attributes)
    (fun () ->
      let base =
        match requires_lock_names vb.pvb_attributes with
        | [] -> st
        | locks -> { st with locks = SSet.union st.locks (SSet.of_list locks) }
      in
      walk lenv base vb.pvb_expr)

and check_r6_access lenv st (lid : Longident.t) (loc : Location.t) =
  if rule_on lenv.lctx R6 then
    match genv_lookup lenv.genv ~file:lenv.lfile (lid_path lid) with
    | None -> ()
    | Some g ->
      if g.g_atomic || g.g_allowed then ()
      else (
        match g.g_lock with
        | Some lock ->
          if st.depth > 0 && not (SSet.mem lock st.locks) then
            report_loc loc ~rule:R6
              (Printf.sprintf
                 "access to %s (%s, guarded by %S) without holding the \
                  lock; wrap it in Mutex.protect/Lockdep.protect %s, mark \
                  the enclosing function [@@lint.requires_lock %s], or \
                  annotate [@lint.allow lockset]"
                 g.g_name g.g_kind lock lock lock)
        | None ->
          if st.in_spawn then
            report_loc loc ~rule:R6
              (Printf.sprintf
                 "unannotated top-level mutable %s (%s) escapes into a \
                  domain closure; guard it with a Lockdep mutex and \
                  [@@lint.guarded_by], make it Atomic, or annotate \
                  [@lint.allow lockset]"
                 g.g_name g.g_kind))

(* Verify that each guarded_by annotation in this file names a known
   lock: a binding created with Mutex.create/Lockdep.create, a literal
   Lockdep class string, or a record field (same-record contracts are
   the sanitizer's territory and stay un-checked here). *)
let check_r6_guards lenv (str : Parsetree.structure) =
  let known_binding name =
    match Hashtbl.find_opt lenv.genv.lock_bindings lenv.lfile with
    | Some s -> SSet.mem name !s
    | None -> false
  in
  let known_class name =
    match Hashtbl.find_opt lenv.genv.lock_classes lenv.lfile with
    | Some classes ->
      Hashtbl.fold (fun _ cls acc -> acc || String.equal cls name) classes
        false
    | None -> false
  in
  let field_names = ref SSet.empty in
  let rec collect_fields items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_type (_, decls) ->
          List.iter
            (fun (d : Parsetree.type_declaration) ->
              match d.ptype_kind with
              | Ptype_record fields ->
                List.iter
                  (fun (f : Parsetree.label_declaration) ->
                    field_names := SSet.add f.pld_name.txt !field_names)
                  fields
              | _ -> ())
            decls
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
          collect_fields s
        | _ -> ())
      items
  in
  collect_fields str;
  let rec scan items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              match
                guarded_by_names vb.pvb_attributes
                @ guarded_by_names vb.pvb_expr.pexp_attributes
              with
              | [] -> ()
              | lock :: _ ->
                if
                  rule_on lenv.lctx R6
                  && (not (known_binding lock))
                  && (not (known_class lock))
                  && not (SSet.mem lock !field_names)
                then
                  report_loc vb.pvb_loc ~rule:R6
                    (Printf.sprintf
                       "[@@lint.guarded_by %s] names no lock in this \
                        module (no Mutex.create/Lockdep.create binding, \
                        class string, or record field of that name)"
                       lock))
            vbs
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
          scan s
        | Pstr_module
            { pmb_expr = { pmod_desc = Pmod_functor (_, { pmod_desc = Pmod_structure s; _ }); _ }; _ }
          ->
          scan s
        | _ -> ())
      items
  in
  scan str

let check_r6_structure lenv (str : Parsetree.structure) =
  let st = { locks = SSet.empty; depth = 0; in_spawn = false; watch = None } in
  let rec scan items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_attribute a -> push_allows lenv.lctx (allow_names [ a ])
        | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              register_binding lenv st vb;
              walk_binding lenv st vb)
            vbs
        | Pstr_module mb -> scan_module mb.pmb_expr
        | Pstr_recmodule mbs ->
          List.iter
            (fun (mb : Parsetree.module_binding) -> scan_module mb.pmb_expr)
            mbs
        | _ -> ())
      items
  and scan_module (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_structure s -> scan s
    | Pmod_functor (_, body) -> scan_module body
    | Pmod_constraint (me, _) -> scan_module me
    | _ -> ()
  in
  check_r6_guards lenv str;
  scan str

(* --- file scanning --- *)

let norm_path p =
  (* normalize ./foo and backslashes so scope matching is stable *)
  let p = String.concat "/" (String.split_on_char '\\' p) in
  if String.length p > 2 && String.sub p 0 2 = "./" then
    String.sub p 2 (String.length p - 2)
  else p

let in_dir dir file =
  (* [dir] like "lib/core/": true for any path containing it *)
  let dl = String.length dir and fl = String.length file in
  let rec go i =
    i + dl <= fl && (String.sub file i dl = dir || go (i + 1))
  in
  go 0

let default_rules_for file =
  let file = norm_path file in
  let r1 =
    in_dir "lib/core/" file || in_dir "lib/nested/" file
    (* the intersection kernels: a stray polymorphic compare on postings
       would silently bypass the int compare on node ids *)
    || in_dir "lib/invfile/plist" file
    (* the join engine sorts atoms and postings on hot paths *)
    || in_dir "lib/join/" file
    (* the live store merges per-segment id lists and binary-searches
       gid maps — a polymorphic compare there is a silent perf bug *)
    || in_dir "lib/live/" file
    (* the flight recorder's emit path runs inside every query; the
       explain builder sorts atom plans — keep both monomorphic *)
    || in_dir "lib/obs/recorder" file
    || in_dir "lib/obs/explain" file
    (* driver and bench code sort latency arrays and filter experiment
       lists; a polymorphic compare there is the same silent perf bug *)
    || in_dir "bin/" file
    || in_dir "bench/" file
  in
  let r2 =
    in_dir "lib/core/" file || in_dir "lib/invfile/" file
    || in_dir "lib/shard/router.ml" file
    || in_dir "lib/join/" file
    || in_dir "lib/live/" file
    (* recorder events are emitted on the query hot path: no console or
       blocking Unix calls there (dump-time writes are annotated) *)
    || in_dir "lib/obs/recorder" file
    || in_dir "lib/obs/explain" file
    (* executables print by design; each carries a file-level
       [@@@lint.allow io] so the decision is explicit in the source *)
    || in_dir "bin/" file
    || in_dir "bench/" file
  in
  let r4 =
    in_dir "lib/server/" file && not (in_dir "lib/server/client." file)
  in
  let lib = in_dir "lib/" file in
  let exe = in_dir "bin/" file || in_dir "bench/" file in
  List.filter_map
    (fun (cond, r) -> if cond then Some r else None)
    [
      (r1, R1);
      (r2, R2);
      (lib, R3);
      (r4, R4);
      (lib || exe, R5);
      (lib, R6);
    ]

let file_defines_compare (str : Parsetree.structure) =
  let found = ref false in
  let rec pat_binds_compare (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Ppat_var { txt = "compare"; _ } -> true
    | Ppat_constraint (p, _) | Ppat_alias (p, _) -> pat_binds_compare p
    | Ppat_tuple ps -> List.exists pat_binds_compare ps
    | _ -> false
  in
  let rec scan (items : Parsetree.structure) =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
          if List.exists (fun (vb : Parsetree.value_binding) ->
                 pat_binds_compare vb.pvb_pat)
               vbs
          then found := true
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
          scan s
        | _ -> ())
      items
  in
  scan str;
  !found

let parse_implementation file =
  try Ok (Pparse.parse_implementation ~tool_name:"nscq-lint" file)
  with exn ->
    let msg =
      match Location.error_of_exn exn with
      | Some (`Ok e) -> Format.asprintf "%a" Location.print_report e
      | _ -> Printexc.to_string exn
    in
    Error msg

let check_mli_presence active file str =
  if List.mem R5 active && Filename.check_suffix file ".ml" then
    let mli = file ^ "i" in
    if not (Sys.file_exists mli) then
      if not (List.mem (rule_key R5) (allow_names (List.concat_map
               (fun (item : Parsetree.structure_item) ->
                 match item.pstr_desc with
                 | Pstr_attribute a -> [ a ]
                 | _ -> [])
               str)))
      then
        report ~file ~line:1 ~col:0 ~rule:(rule_id R5)
          (Printf.sprintf
             "library module has no interface: %s is missing (add it, or \
              put [@@@lint.allow mli] at the top of the file)"
             (Filename.basename mli))

let check_file genv ~forced_rules file (str : Parsetree.structure) =
  let active =
    match forced_rules with
    | Some rs -> rs
    | None -> default_rules_for file
  in
  if active <> [] then begin
    let ctx =
      {
        file;
        active;
        suppressed = Hashtbl.create 8;
        defines_compare = file_defines_compare str;
      }
    in
    check_mli_presence active file str;
    let it = make_iterator ctx in
    it.structure it str;
    (* R3 walks only structure-level bindings, so it gets its own
       traversal with a fresh suppression scope *)
    let ctx3 = { ctx with suppressed = Hashtbl.create 8 } in
    check_r3_structure ctx3 ~mutable_labels:(mutable_labels_of str) str;
    (* R6 likewise: lockset analysis with its own suppression scope *)
    let ctx6 = { ctx with suppressed = Hashtbl.create 8 } in
    if List.mem R6 active then
      check_r6_structure
        {
          genv;
          lfile = file;
          lctx = ctx6;
          wrappers = Hashtbl.create 8;
          requires = Hashtbl.create 8;
        }
        str
  end

(* --- directory walking & driver --- *)

(* A walk only picks up .ml files that dune tracks: they must sit next
   to a dune file and have a plain module name (generated foo.pp.ml and
   editor scratch files are skipped, not parse errors). *)
let dune_tracked path =
  let base = Filename.basename path in
  Filename.check_suffix base ".ml"
  && (match String.index_opt base '.' with
     | Some i -> String.equal (String.sub base i (String.length base - i)) ".ml"
     | None -> false)
  && Sys.file_exists (Filename.concat (Filename.dirname path) "dune")

let rec collect acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if
             String.length entry > 0
             && entry.[0] <> '.'
             && entry <> "_build"
           then collect acc (Filename.concat path entry)
           else acc)
         acc
  else if dune_tracked path then path :: acc
  else acc

let usage () =
  prerr_endline
    "usage: nscq-lint [--rule R1|..|R6]... [--json] [--list-rules] path...";
  exit 2

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let () =
  let forced = ref [] in
  let paths = ref [] in
  let json = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--rule" :: v :: rest -> (
      match rule_of_string v with
      | Some r ->
        forced := r :: !forced;
        parse_args rest
      | None ->
        Printf.eprintf "nscq-lint: unknown rule %S\n" v;
        usage ())
    | "--json" :: rest ->
      json := true;
      parse_args rest
    | "--list-rules" :: rest ->
      List.iter
        (fun r -> Printf.printf "%s %s\n" (rule_id r) (rule_key r))
        all_rules;
      parse_args rest
    | ("--help" | "-h") :: _ -> usage ()
    | p :: rest ->
      paths := p :: !paths;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !paths = [] then usage ();
  let files =
    List.fold_left
      (fun acc p ->
        if not (Sys.file_exists p) then begin
          Printf.eprintf "nscq-lint: no such file or directory: %s\n" p;
          exit 2
        end;
        (* explicitly named files are always linted; directories are
           walked with the dune-tracked filter *)
        if Sys.is_directory p then collect acc p else p :: acc)
      [] (List.rev !paths)
    |> List.sort_uniq String.compare
  in
  let forced_rules =
    match !forced with [] -> None | rs -> Some (List.rev rs)
  in
  (* phase 1: parse everything once, build the cross-module environment *)
  let genv =
    {
      guarded = Hashtbl.create 64;
      lock_classes = Hashtbl.create 16;
      lock_bindings = Hashtbl.create 16;
    }
  in
  let parsed =
    List.filter_map
      (fun file ->
        match parse_implementation file with
        | Ok str ->
          genv_add_file genv file str;
          Some (file, str)
        | Error msg ->
          report ~file ~line:1 ~col:0 ~rule:"parse" msg;
          None)
      files
  in
  (* phase 2: per-file checks with the global environment in scope *)
  List.iter (fun (file, str) -> check_file genv ~forced_rules file str) parsed;
  let ds =
    List.sort
      (fun (a : diagnostic) (b : diagnostic) ->
        match String.compare a.file b.file with
        | 0 -> (
          match Int.compare a.line b.line with
          | 0 -> Int.compare a.col b.col
          | c -> c)
        | c -> c)
      !diagnostics
  in
  if !json then begin
    let entries =
      List.map
        (fun (d : diagnostic) ->
          Printf.sprintf
            "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"msg\":\"%s\"}"
            (json_escape d.file) d.line d.col (json_escape d.rule)
            (json_escape d.msg))
        ds
    in
    Printf.printf "[%s]\n" (String.concat "," entries)
  end
  else begin
    List.iter
      (fun (d : diagnostic) ->
        Printf.printf "%s:%d:%d: [%s] %s\n" d.file d.line d.col d.rule d.msg)
      ds;
    if ds <> [] then
      Printf.printf "nscq-lint: %d violation(s) in %d file(s)\n"
        (List.length ds)
        (List.length
           (List.sort_uniq String.compare
              (List.map (fun (d : diagnostic) -> d.file) ds)))
  end;
  if ds <> [] then exit 1
