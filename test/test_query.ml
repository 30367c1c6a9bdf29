(* Tests for the query layer: lexer, parser, and schema translation, plus
   an end-to-end check that parsed SQL counts agree with hand-built
   predicates on the exact engine. *)

open Edb_util
open Edb_storage
open Edb_query

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let tokens_of input =
  match Lexer.tokenize input with
  | Ok toks -> List.map fst toks
  | Error (e : Lexer.error) -> Alcotest.failf "lex error at %d: %s" e.pos e.message

let test_lexer_basic () =
  Alcotest.(check bool) "keywords case-insensitive" true
    (tokens_of "select COUNT from WhErE"
    = [ Lexer.SELECT; Lexer.COUNT; Lexer.FROM; Lexer.WHERE; Lexer.EOF ]);
  Alcotest.(check bool) "symbols" true
    (tokens_of "( ) [ ] , = *"
    = [
        Lexer.LPAREN; Lexer.RPAREN; Lexer.LBRACKET; Lexer.RBRACKET;
        Lexer.COMMA; Lexer.EQUALS; Lexer.STAR; Lexer.EOF;
      ])

let test_lexer_literals () =
  Alcotest.(check bool) "int" true (tokens_of "42" = [ Lexer.INT 42; Lexer.EOF ]);
  Alcotest.(check bool) "negative int" true
    (tokens_of "-7" = [ Lexer.INT (-7); Lexer.EOF ]);
  Alcotest.(check bool) "float" true
    (tokens_of "3.5" = [ Lexer.FLOAT 3.5; Lexer.EOF ]);
  Alcotest.(check bool) "string" true
    (tokens_of "'CA'" = [ Lexer.STRING "CA"; Lexer.EOF ]);
  Alcotest.(check bool) "escaped quote" true
    (tokens_of "'O''Hare'" = [ Lexer.STRING "O'Hare"; Lexer.EOF ]);
  Alcotest.(check bool) "identifier keeps case" true
    (tokens_of "Fl_Date" = [ Lexer.IDENT "Fl_Date"; Lexer.EOF ])

let test_lexer_offsets () =
  match Lexer.tokenize "SELECT  foo" with
  | Ok [ (Lexer.SELECT, 0); (Lexer.IDENT "foo", 8); (Lexer.EOF, 11) ] -> ()
  | Ok toks ->
      Alcotest.failf "unexpected offsets: %s"
        (String.concat ";"
           (List.map (fun (t, p) -> Fmt.str "%a@%d" Lexer.pp_token t p) toks))
  | Error _ -> Alcotest.fail "lex failed"

let test_lexer_errors () =
  (match Lexer.tokenize "'unterminated" with
  | Error { message = "unterminated string"; _ } -> ()
  | _ -> Alcotest.fail "expected unterminated string error");
  match Lexer.tokenize "a ; b" with
  | Error { message; _ } ->
      Alcotest.(check bool) "mentions char" true
        (String.length message > 0)
  | Ok _ -> Alcotest.fail "expected error on ;"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let parse_ok input =
  match Parser.parse input with
  | Ok ast -> ast
  | Error e -> Alcotest.failf "parse failed: %a" Parser.pp_error e

let test_parse_plain_count () =
  let ast = parse_ok "SELECT COUNT(*) FROM flights" in
  Alcotest.(check string) "table" "flights" ast.Ast.table;
  Alcotest.(check (list string)) "no group" [] ast.group_by;
  Alcotest.(check bool) "no where" true (ast.where = [])

let test_parse_conditions () =
  let ast =
    parse_ok
      "SELECT COUNT(*) FROM r WHERE a = 'CA' AND b IN [3, 7] AND c IN (1, 2, 9)"
  in
  (match ast.Ast.where with
  | [ [ Ast.Eq ("a", Ast.Vstr "CA"); Ast.Between ("b", Ast.Vint 3, Ast.Vint 7);
        Ast.In_set ("c", [ Ast.Vint 1; Ast.Vint 2; Ast.Vint 9 ]) ] ] ->
      ()
  | _ -> Alcotest.fail "unexpected AST shape")

let test_parse_group_by () =
  let ast =
    parse_ok
      "SELECT a, b, COUNT(*) FROM r GROUP BY a, b ORDER BY cnt DESC LIMIT 10"
  in
  Alcotest.(check (list string)) "group" [ "a"; "b" ] ast.Ast.group_by;
  Alcotest.(check bool) "desc" true (ast.order = Some Ast.Desc);
  Alcotest.(check (option int)) "limit" (Some 10) ast.limit;
  (* The sort key can also be spelled as the aggregate itself. *)
  let ast = parse_ok "SELECT a, COUNT(*) FROM r GROUP BY a ORDER BY COUNT(*)" in
  Alcotest.(check bool)
    "COUNT(*) sort key, default desc" true
    (ast.order = Some Ast.Desc);
  let ast =
    parse_ok "SELECT a, COUNT(*) FROM r GROUP BY a ORDER BY COUNT(*) ASC"
  in
  Alcotest.(check bool) "COUNT(*) asc" true (ast.order = Some Ast.Asc)

let test_parse_aggregates () =
  let sum = parse_ok "SELECT SUM(delay) FROM r WHERE state = 'CA'" in
  Alcotest.(check bool) "sum" true (sum.Ast.agg = Ast.Sum "delay");
  let avg = parse_ok "select avg(ratio) from r" in
  Alcotest.(check bool) "avg case-insensitive" true (avg.Ast.agg = Ast.Avg "ratio");
  (match Parser.parse "SELECT SUM(x) FROM r GROUP BY y" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "SUM with GROUP BY must be rejected");
  match Parser.parse "SELECT SUM(*) FROM r" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "SUM(*) must be rejected"

let test_parse_between_and_neq () =
  let ast =
    parse_ok "SELECT COUNT(*) FROM r WHERE a BETWEEN 3 AND 7 AND b <> 'x'"
  in
  (match ast.Ast.where with
  | [ [ Ast.Between ("a", Ast.Vint 3, Ast.Vint 7); Ast.Neq ("b", Ast.Vstr "x") ] ]
    ->
      ()
  | _ -> Alcotest.fail "unexpected AST shape for BETWEEN/<>")

let compile_neq () =
  match
    Translate.compile_string
      (Schema.create
         [ Schema.attr "state" (Domain.categorical [| "CA"; "NY"; "WA" |]) ])
      "SELECT COUNT(*) FROM r WHERE state <> 'NY'"
  with
  | Ok c -> Option.get (Translate.conjunctive c)
  | Error e -> Alcotest.failf "compile failed: %a" Translate.pp_error e

let test_translate_neq () =
  let c = compile_neq () in
  match Predicate.restriction c 0 with
  | Some r ->
      Alcotest.(check (list int)) "all but NY" [ 0; 2 ] (Ranges.to_list r)
  | None -> Alcotest.fail "no restriction"

let test_parse_or () =
  let ast =
    parse_ok "SELECT COUNT(*) FROM r WHERE a = 1 AND b = 2 OR c = 3"
  in
  (* AND binds tighter than OR. *)
  (match ast.Ast.where with
  | [ [ Ast.Eq ("a", Ast.Vint 1); Ast.Eq ("b", Ast.Vint 2) ];
      [ Ast.Eq ("c", Ast.Vint 3) ] ] ->
      ()
  | _ -> Alcotest.fail "OR precedence wrong");
  let three = parse_ok "SELECT COUNT(*) FROM r WHERE a = 1 OR b = 2 OR c = 3" in
  Alcotest.(check int) "three disjuncts" 3 (List.length three.Ast.where)

let test_parse_group_by_mismatch () =
  match Parser.parse "SELECT a, COUNT(*) FROM r GROUP BY b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected select/group mismatch error"

let test_parse_errors () =
  List.iter
    (fun input ->
      match Parser.parse input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error: %s" input)
    [
      "SELECT COUNT(* FROM r";
      "COUNT(*) FROM r";
      "SELECT COUNT(*) FROM r WHERE";
      "SELECT COUNT(*) FROM r WHERE a";
      "SELECT COUNT(*) FROM r WHERE a IN [1,]";
      "SELECT COUNT(*) FROM r LIMIT x";
      "SELECT COUNT(*) FROM r extra";
    ]

let test_parse_pp_roundtrip () =
  (* Rendering a parsed query and re-parsing it yields the same AST. *)
  List.iter
    (fun input ->
      let ast = parse_ok input in
      let rendered = Fmt.str "%a" Ast.pp ast in
      let ast' = parse_ok rendered in
      if ast <> ast' then Alcotest.failf "round-trip changed: %s -> %s" input rendered)
    [
      "SELECT COUNT(*) FROM r";
      "SELECT COUNT(*) FROM r WHERE a = 'x' AND b IN [1, 2]";
      "SELECT a, COUNT(*) FROM r GROUP BY a ORDER BY cnt DESC LIMIT 3";
      "SELECT COUNT(*) FROM r WHERE c IN (1, 2)";
      "SELECT SUM(x) FROM r WHERE a = 1";
      "SELECT AVG(y) FROM r";
      "SELECT COUNT(*) FROM r WHERE a = 1 AND b = 2 OR c = 3 AND d = 4";
      "SELECT COUNT(*) FROM r WHERE a <> 5 AND b IN [1, 2]";
    ]

(* Property version of the round-trip: generated ASTs (covering escaped
   strings, negative and fractional literals, every condition form, and
   AND/OR precedence) survive printing and re-parsing unchanged.  The
   generator stays inside the printable fragment of the AST: identifiers
   avoid keywords, floats are never integral ([Fmt.float] prints 3.0 as
   "3", which re-lexes as an INT), conjunctions are nonempty, and
   ORDER/LIMIT appear only with GROUP BY — exactly the shapes [Ast.pp]
   can render as parseable text. *)

let ast_gen =
  QCheck.Gen.(
    let ident =
      oneofl [ "alpha"; "beta"; "gamma"; "delta_x"; "Z9"; "fl_date" ]
    in
    let value =
      frequency
        [
          (3, map (fun i -> Ast.Vint i) (int_range (-1000) 1000));
          ( 2,
            map2
              (fun k q -> Ast.Vfloat (float_of_int k +. (0.25 *. float_of_int q)))
              (int_range (-20) 20) (oneofl [ 1; 2; 3 ]) );
          ( 2,
            map
              (fun cs -> Ast.Vstr (String.concat "" cs))
              (list_size (int_range 0 8)
                 (oneofl [ "a"; "B"; "7"; " "; "'"; "%"; "_"; "O'Hare" ])) );
        ]
    in
    let condition =
      frequency
        [
          (3, map2 (fun a v -> Ast.Eq (a, v)) ident value);
          (2, map2 (fun a v -> Ast.Neq (a, v)) ident value);
          (2, map3 (fun a lo hi -> Ast.Between (a, lo, hi)) ident value value);
          ( 2,
            map2
              (fun a vs -> Ast.In_set (a, vs))
              ident
              (list_size (int_range 1 3) value) );
        ]
    in
    let where = list_size (int_range 0 3) (list_size (int_range 1 3) condition) in
    let grouped =
      (* COUNT with GROUP BY; the select list mirrors the group list. *)
      let* gs =
        oneof [ map (fun a -> [ a ]) ident; oneofl [ [ "alpha"; "beta" ] ] ]
      in
      let* order = oneofl [ None; Some Ast.Desc; Some Ast.Asc ] in
      let* limit = oneof [ return None; map Option.some (int_range 0 50) ] in
      let* w = where in
      return
        { Ast.table = "r"; agg = Ast.Count; group_by = gs; where = w; order; limit }
    in
    let plain =
      let* agg =
        oneof
          [
            return Ast.Count;
            map (fun a -> Ast.Sum a) ident;
            map (fun a -> Ast.Avg a) ident;
          ]
      in
      let* w = where in
      return
        {
          Ast.table = "r";
          agg;
          group_by = [];
          where = w;
          order = None;
          limit = None;
        }
    in
    frequency [ (2, plain); (1, grouped) ])

let test_pp_roundtrip_generated =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"generated AST pp round-trip"
       (QCheck.make ~print:(Fmt.str "%a" Ast.pp) ast_gen)
       (fun ast ->
         let rendered = Fmt.str "%a" Ast.pp ast in
         match Parser.parse rendered with
         | Error e ->
             QCheck.Test.fail_reportf "did not re-parse: %s (%a)" rendered
               Parser.pp_error e
         | Ok ast' ->
             if ast <> ast' then
               QCheck.Test.fail_reportf "round-trip changed: %s" rendered
             else true))

(* ------------------------------------------------------------------ *)
(* Translation                                                         *)
(* ------------------------------------------------------------------ *)

let schema () =
  Schema.create
    [
      Schema.attr "state" (Domain.categorical [| "CA"; "NY"; "WA" |]);
      Schema.attr "delay" (Domain.int_bins ~lo:0 ~hi:99 ~width:10);
      Schema.attr "ratio" (Domain.float_bins ~lo:0. ~hi:1. ~bins:4);
    ]

let compile_ok input =
  match Translate.compile_string (schema ()) input with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile failed: %a" Translate.pp_error e

let pred_of c = Option.get (Translate.conjunctive c)

let test_translate_eq () =
  let c = compile_ok "SELECT COUNT(*) FROM r WHERE state = 'NY'" in
  (match Predicate.restriction (pred_of c) 0 with
  | Some r -> Alcotest.(check (list int)) "NY = 1" [ 1 ] (Ranges.to_list r)
  | None -> Alcotest.fail "no restriction");
  Alcotest.(check bool) "satisfiable" false
    (Predicate.is_unsatisfiable (pred_of c))

let test_translate_binned_range () =
  (* Raw values [25, 47] map to bins [2, 4] of the width-10 binning. *)
  let c = compile_ok "SELECT COUNT(*) FROM r WHERE delay IN [25, 47]" in
  match Predicate.restriction (pred_of c) 1 with
  | Some r ->
      Alcotest.(check (list (pair int int))) "bins 2-4" [ (2, 4) ]
        (Ranges.intervals r)
  | None -> Alcotest.fail "no restriction"

let test_translate_float () =
  let c = compile_ok "SELECT COUNT(*) FROM r WHERE ratio = 0.6" in
  match Predicate.restriction (pred_of c) 2 with
  | Some r -> Alcotest.(check (list int)) "bin 2" [ 2 ] (Ranges.to_list r)
  | None -> Alcotest.fail "no restriction"

let test_translate_out_of_domain () =
  (* Unknown categorical value: valid query, empty restriction, count 0. *)
  let c = compile_ok "SELECT COUNT(*) FROM r WHERE state = 'TX'" in
  Alcotest.(check bool) "unsatisfiable" true
    (Predicate.is_unsatisfiable (pred_of c));
  (* A range reaching past the domain clamps to the bins inside. *)
  let c2 = compile_ok "SELECT COUNT(*) FROM r WHERE delay IN [90, 2000]" in
  match Predicate.restriction (pred_of c2) 1 with
  | Some r ->
      Alcotest.(check (list (pair int int))) "clamped" [ (9, 9) ]
        (Ranges.intervals r)
  | None -> Alcotest.fail "no restriction"

let test_translate_errors () =
  List.iter
    (fun input ->
      match Translate.compile_string (schema ()) input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected compile error: %s" input)
    [
      "SELECT COUNT(*) FROM r WHERE nosuch = 1";
      "SELECT COUNT(*) FROM r WHERE state = 3";
      "SELECT COUNT(*) FROM r WHERE delay = 'five'";
      "SELECT nosuch, COUNT(*) FROM r GROUP BY nosuch";
    ]

let test_translate_unknown_attr_suggestion () =
  let expect_error input pred descr =
    match Translate.compile_string (schema ()) input with
    | Error e ->
        let msg = Fmt.str "%a" Translate.pp_error e in
        Alcotest.(check bool) (descr ^ ": " ^ msg) true (pred msg)
    | Ok _ -> Alcotest.failf "expected compile error: %s" input
  in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (* A one-letter typo of "state" points at the real attribute... *)
  expect_error "SELECT COUNT(*) FROM r WHERE sttae = 'CA'"
    (fun m -> contains ~sub:"sttae" m && contains ~sub:"did you mean state?" m)
    "typo suggests";
  (* ... a case slip likewise... *)
  expect_error "SELECT COUNT(*) FROM r WHERE Delay = 3"
    (fun m -> contains ~sub:"did you mean delay?" m)
    "case slip suggests";
  (* ... but an unrelated name gets no far-fetched suggestion. *)
  expect_error "SELECT COUNT(*) FROM r WHERE quxblarg = 1"
    (fun m -> not (contains ~sub:"did you mean" m))
    "no suggestion when nothing is close"

let test_translate_aggregates () =
  let c = compile_ok "SELECT SUM(delay) FROM r" in
  Alcotest.(check bool) "sum attr" true (c.aggregate = Translate.Sum 1);
  let c = compile_ok "SELECT AVG(ratio) FROM r" in
  Alcotest.(check bool) "avg attr" true (c.aggregate = Translate.Avg 2);
  match Translate.compile_string (schema ()) "SELECT SUM(state) FROM r" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "SUM over categorical must be rejected"

let test_translate_or () =
  let c =
    compile_ok "SELECT COUNT(*) FROM r WHERE state = 'CA' OR state = 'NY'"
  in
  Alcotest.(check int) "two disjuncts" 2 (List.length c.disjuncts);
  Alcotest.(check bool) "not conjunctive" true (Translate.conjunctive c = None);
  (match
     Translate.compile_string (schema ())
       "SELECT SUM(delay) FROM r WHERE state = 'CA' OR state = 'NY'"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "SUM with OR must be rejected");
  match
    Translate.compile_string (schema ())
      "SELECT state, COUNT(*) FROM r WHERE delay = 1 OR delay = 2 GROUP BY state"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "GROUP BY with OR must be rejected"

let test_translate_group_attrs () =
  let c = compile_ok "SELECT state, delay, COUNT(*) FROM r GROUP BY state, delay" in
  Alcotest.(check (list int)) "group attrs" [ 0; 1 ] c.group_attrs

(* Grouping by an attribute twice would enumerate its cross product with
   itself — impossible (x, y) cells, |D| times as many — so it is a
   compile error however the repeat is spelled. *)
let test_translate_duplicate_group_attr () =
  List.iter
    (fun input ->
      match Translate.compile_string (schema ()) input with
      | Error e ->
          Alcotest.(check string)
            input "duplicate GROUP BY attribute state" e.Translate.message
      | Ok _ -> Alcotest.failf "expected compile error: %s" input)
    [
      "SELECT COUNT(*) FROM r GROUP BY state, state";
      "SELECT state, state, COUNT(*) FROM r";
      "SELECT COUNT(*) FROM r WHERE delay IN [0, 20] GROUP BY state, delay, \
       state ORDER BY COUNT(*) ASC LIMIT 3";
    ]

(* ------------------------------------------------------------------ *)
(* End-to-end against the exact engine                                 *)
(* ------------------------------------------------------------------ *)

let test_sql_counts_match_exact () =
  let schema = schema () in
  let rng = Prng.create ~seed:77 () in
  let b = Relation.builder schema in
  for _ = 1 to 1_000 do
    Relation.add_row b [| Prng.int rng 3; Prng.int rng 10; Prng.int rng 4 |]
  done;
  let rel = Relation.build b in
  let check sql reference =
    let c = compile_ok sql in
    Alcotest.(check int) sql (Exec.count rel reference)
      (Exec.count rel (pred_of c))
  in
  check "SELECT COUNT(*) FROM r WHERE state = 'CA'"
    (Predicate.point ~arity:3 [ (0, 0) ]);
  check "SELECT COUNT(*) FROM r WHERE delay IN [10, 39] AND state = 'WA'"
    (Predicate.of_alist ~arity:3
       [ (1, Ranges.interval 1 3); (0, Ranges.singleton 2) ]);
  check "SELECT COUNT(*) FROM r WHERE ratio IN [0.0, 0.49]"
    (Predicate.of_alist ~arity:3 [ (2, Ranges.interval 0 1) ])

let () =
  Alcotest.run "entropydb-query"
    [
      ( "lexer",
        [
          Alcotest.test_case "keywords and symbols" `Quick test_lexer_basic;
          Alcotest.test_case "literals" `Quick test_lexer_literals;
          Alcotest.test_case "offsets" `Quick test_lexer_offsets;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "plain count" `Quick test_parse_plain_count;
          Alcotest.test_case "conditions" `Quick test_parse_conditions;
          Alcotest.test_case "group by" `Quick test_parse_group_by;
          Alcotest.test_case "aggregates" `Quick test_parse_aggregates;
          Alcotest.test_case "OR precedence" `Quick test_parse_or;
          Alcotest.test_case "BETWEEN and <>" `Quick test_parse_between_and_neq;
          Alcotest.test_case "select/group mismatch" `Quick
            test_parse_group_by_mismatch;
          Alcotest.test_case "syntax errors" `Quick test_parse_errors;
          Alcotest.test_case "pp round-trip" `Quick test_parse_pp_roundtrip;
          test_pp_roundtrip_generated;
        ] );
      ( "translate",
        [
          Alcotest.test_case "equality" `Quick test_translate_eq;
          Alcotest.test_case "binned range" `Quick test_translate_binned_range;
          Alcotest.test_case "float binning" `Quick test_translate_float;
          Alcotest.test_case "out of domain" `Quick test_translate_out_of_domain;
          Alcotest.test_case "errors" `Quick test_translate_errors;
          Alcotest.test_case "unknown attribute suggestion" `Quick
            test_translate_unknown_attr_suggestion;
          Alcotest.test_case "aggregates" `Quick test_translate_aggregates;
          Alcotest.test_case "OR" `Quick test_translate_or;
          Alcotest.test_case "<> complement" `Quick test_translate_neq;
          Alcotest.test_case "group attrs" `Quick test_translate_group_attrs;
          Alcotest.test_case "duplicate GROUP BY attribute" `Quick
            test_translate_duplicate_group_attr;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "SQL counts match exact" `Quick
            test_sql_counts_match_exact;
        ] );
    ]
