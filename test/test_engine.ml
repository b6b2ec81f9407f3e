open Mrpa_graph
open Mrpa_core
open Mrpa_engine
module H = Helpers

(* --- Lexer ------------------------------------------------------------- *)

let tokens_of s = List.map (fun l -> l.Lexer.token) (Lexer.tokenize s)

let test_lexer_symbols () =
  Alcotest.(check int) "count" 12
    (List.length (tokens_of "[ ] { } ( ) , . | * + ?") - 1);
  Alcotest.(check bool) "cross" true
    (List.mem Lexer.CROSS (tokens_of "a >< b"))

let test_lexer_idents_and_ints () =
  (match tokens_of "knows v12 34" with
  | [ Lexer.IDENT "knows"; Lexer.IDENT "v12"; Lexer.INT 34; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "unexpected tokens");
  match tokens_of "\"white space\" 'single'" with
  | [ Lexer.IDENT "white space"; Lexer.IDENT "single"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "quoted strings"

let test_lexer_underscore () =
  match tokens_of "_ _x" with
  | [ Lexer.UNDERSCORE; Lexer.IDENT "_x"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "underscore handling"

let test_lexer_errors () =
  (try
     ignore (Lexer.tokenize "a > b");
     Alcotest.fail "expected Lex_error"
   with Lexer.Lex_error (_, pos) -> Alcotest.(check int) "position" 2 pos);
  (try
     ignore (Lexer.tokenize "\"unterminated");
     Alcotest.fail "expected Lex_error"
   with Lexer.Lex_error (_, _) -> ());
  (* an integer literal past max_int is a lexing error at its offset, not
     an escaping [Failure] *)
  try
    ignore (Lexer.tokenize "[99999999999999999999,_,_]");
    Alcotest.fail "expected Lex_error"
  with Lexer.Lex_error (_, pos) -> Alcotest.(check int) "overlong int" 1 pos

let test_lexer_positions () =
  let located = Lexer.tokenize "ab cd" in
  match located with
  | [ { token = Lexer.IDENT "ab"; pos = 0; stop = 2 };
      { token = Lexer.IDENT "cd"; pos = 3; stop = 5 };
      { token = Lexer.EOF; pos = 5; stop = 5 } ]
    -> ()
  | _ -> Alcotest.fail "positions"

(* --- Parser ------------------------------------------------------------- *)

let parse_ok g s =
  match Parser.parse g s with
  | Ok e -> e
  | Error e -> Alcotest.failf "unexpected parse error: %a" Parser.pp_error e

let parse_err g s =
  match Parser.parse g s with
  | Ok _ -> Alcotest.failf "expected parse error on %S" s
  | Error e -> e

let test_parse_selector_forms () =
  let g = H.paper_graph () in
  let e = parse_ok g "[i, alpha, _]" in
  (match e with
  | Expr.Sel (Selector.Pattern { src = Some _; lbl = Some _; dst = None }) -> ()
  | _ -> Alcotest.fail "selector shape");
  ignore (parse_ok g "[_, _, _]");
  ignore (parse_ok g "E");
  ignore (parse_ok g "[{i,j}, _, !k]");
  ignore (parse_ok g "{(j, alpha, i)}");
  ignore (parse_ok g "{(j,alpha,i); (i,alpha,k)}")

let test_parse_operators_precedence () =
  let g = H.paper_graph () in
  (* union binds loosest: a . b | c = (a.b) | c *)
  let e = parse_ok g "[_,alpha,_] . [_,beta,_] | [_,beta,_]" in
  (match e with
  | Expr.Union (Expr.Join _, Expr.Sel _) -> ()
  | _ -> Alcotest.fail "precedence");
  (* postfix binds tightest: star applies to b alone *)
  let e = parse_ok g "[_,alpha,_] . [_,beta,_]*" in
  match e with
  | Expr.Join (Expr.Sel _, Expr.Star _) -> ()
  | _ -> Alcotest.fail "postfix binds tighter"

let test_parse_repetition () =
  let g = H.paper_graph () in
  let r2 = parse_ok g "[_,beta,_]{2}" in
  let manual = Expr.repeat (Expr.sel (Selector.label1 (H.l g "beta"))) 2 in
  Alcotest.(check bool) "explicit repeat" true (Expr.equal r2 manual);
  ignore (parse_ok g "[_,beta,_]{1,3}")

let test_parse_fig1_string () =
  let g = H.paper_graph () in
  let text =
    "[i,alpha,_] . [_,beta,_]* . (([_,alpha,j] . {(j,alpha,i)}) | [_,alpha,k])"
  in
  let e = parse_ok g text in
  Alcotest.(check bool) "has star" true (Expr.size e > 5);
  (* denotes same set as the programmatic construction in test_automata *)
  let i = H.v g "i" and j = H.v g "j" and k = H.v g "k" in
  let alpha = H.l g "alpha" and beta = H.l g "beta" in
  let manual =
    let open Expr.Dsl in
    Expr.sel
      (Selector.pattern ~src:(Vertex.Set.singleton i)
         ~lbl:(Label.Set.singleton alpha) ())
    <.> Expr.star (Expr.sel (Selector.label1 beta))
    <.> (Expr.sel
           (Selector.pattern ~lbl:(Label.Set.singleton alpha)
              ~dst:(Vertex.Set.singleton j) ())
         <.> Expr.edge (Edge.make ~tail:j ~label:alpha ~head:i)
        <|> Expr.sel
              (Selector.pattern ~lbl:(Label.Set.singleton alpha)
                 ~dst:(Vertex.Set.singleton k) ()))
  in
  Alcotest.(check bool) "same denotation" true
    (Path_set.equal
       (Expr.denote g ~max_length:4 e)
       (Expr.denote g ~max_length:4 manual))

let test_parse_keywords () =
  let g = H.paper_graph () in
  Alcotest.(check bool) "eps" true (Expr.equal (parse_ok g "eps") Expr.epsilon);
  Alcotest.(check bool) "empty" true (Expr.equal (parse_ok g "empty") Expr.empty)

let test_parse_errors () =
  let g = H.paper_graph () in
  let e = parse_err g "[i, alpha, _" in
  Alcotest.(check bool) "mentions ]" true (String.length e.Parser.message > 0);
  ignore (parse_err g "[nosuch, _, _]");
  ignore (parse_err g "[i, nosuchlabel, _]");
  ignore (parse_err g "[i,alpha,_] .");
  ignore (parse_err g "[i,alpha,_] extra");
  ignore (parse_err g "");
  (* names resolve in source order, unused [let] bodies included *)
  Alcotest.(check int) "first unknown name" 1
    (parse_err g "[zz,alpha,_] . [i,nope,_]").Parser.position;
  Alcotest.(check int) "unused let body" 9
    (parse_err g "let a = [zz,_,_] in [i,alpha,_]").Parser.position

let test_parse_complement () =
  let g = H.paper_graph () in
  let e = parse_ok g "[!i, _, _]" in
  match e with
  | Expr.Sel s ->
    Alcotest.(check bool) "excludes i-edges" false
      (Selector.matches s (H.e g "i" "alpha" "j"));
    Alcotest.(check bool) "admits j-edges" true
      (Selector.matches s (H.e g "j" "beta" "k"))
  | _ -> Alcotest.fail "shape"

let test_parse_let_macros () =
  let g = H.paper_graph () in
  let with_macro =
    parse_ok g "let ab = [_,alpha,_] . [_,beta,_] in ab | ab . ab"
  in
  let ab =
    Expr.join
      (Expr.sel (Selector.label1 (H.l g "alpha")))
      (Expr.sel (Selector.label1 (H.l g "beta")))
  in
  let manual = Expr.union ab (Expr.join ab ab) in
  Alcotest.(check bool) "macro expansion" true (Expr.equal with_macro manual);
  (* later bindings may use earlier ones *)
  let nested =
    parse_ok g "let a = [_,alpha,_] in let aa = a . a in aa . a"
  in
  Alcotest.(check int) "nested expansion size" 5
    (List.length
       (List.filter
          (fun s -> Selector.equal s (Selector.label1 (H.l g "alpha")))
          (Expr.selectors nested))
     + 4)
    (* 1 distinct selector; structural size check below *);
  Alcotest.(check int) "three joins" 5 (Expr.size nested)

let test_parse_macro_errors () =
  let g = H.paper_graph () in
  ignore (parse_err g "let in = E in in");
  ignore (parse_err g "undefined_macro");
  ignore (parse_err g "let a = E in b");
  ignore (parse_err g "let a = E a")

(* --- Unparse -------------------------------------------------------------------- *)

let test_unparse_roundtrip_texts () =
  let g = H.paper_graph () in
  List.iter
    (fun text ->
      let e = parse_ok g text in
      let rendered = Unparse.expr g e in
      let e' = parse_ok g rendered in
      Alcotest.(check bool)
        (Printf.sprintf "structural roundtrip: %s -> %s" text rendered)
        true (Expr.equal e e'))
    [
      "E";
      "eps";
      "empty";
      "[i, alpha, _]";
      "[{i,j}, _, !k]";
      "{(j,alpha,i); (i,alpha,k)}";
      "[_,alpha,_] . [_,beta,_]";
      "[_,alpha,_] >< [_,beta,_]";
      "([_,alpha,_] | [_,beta,_])*";
      "[i,alpha,_] . [_,beta,_]* . (([_,alpha,j] . {(j,alpha,i)}) | [_,alpha,k])";
      "[_,beta,_]{2}";
      "[_,beta,_]+ | eps";
    ]

let qcheck_unparse_preserves_denotation =
  H.qtest ~count:100 "parse (unparse e) denotes the same set" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let e = H.random_expr rng g in
      let rendered = Unparse.expr g e in
      match Parser.parse g rendered with
      | Error _ -> false
      | Ok e' ->
        Path_set.equal (Expr.denote g ~max_length:3 e) (Expr.denote g ~max_length:3 e'))

let test_unparse_quotes_awkward_names () =
  let g = Digraph.create () in
  ignore (Digraph.add g "a b" "weird-label" "c.d");
  (* digit-led: bare, it would lex as INT 7 *)
  ignore (Digraph.add g "007" "weird-label" "_");
  List.iter
    (fun name ->
      let e = Expr.sel (Selector.src1 (Digraph.vertex g name)) in
      let rendered = Unparse.expr g e in
      match Parser.parse g rendered with
      | Error err ->
        Alcotest.failf "reparse failed: %a on %s" Parser.pp_error err rendered
      | Ok e' ->
        Alcotest.(check bool)
          ("roundtrip with quoting: " ^ name)
          true (Expr.equal e e'))
    [ "a b"; "007"; "_" ]

(* Name-level atoms (what the router sends to shards) re-parse to
   themselves, offsets aside. *)
let test_unparse_atoms_roundtrip () =
  let atoms text =
    match Parser.syntax text with
    | Error e -> Alcotest.failf "syntax %s: %a" text Parser.pp_error e
    | Ok q ->
      List.filter_map
        (fun (t : Parser.tree) ->
          match t.Spanned.node with Spanned.Sel a -> Some a | _ -> None)
        (Spanned.subterms q.Parser.body)
  in
  let names = List.map (fun (n : Parser.name) -> n.Parser.text) in
  let shape = function
    | Parser.Pattern { src; lbl; dst } ->
      let pos = function
        | Parser.Any -> `Any
        | Parser.Only ns -> `Only (names ns)
        | Parser.Except ns -> `Except (names ns)
      in
      `Pattern (pos src, pos lbl, pos dst)
    | Parser.Edges ts ->
      `Edges (List.map (fun (a, b, c) -> names [ a; b; c ]) ts)
  in
  List.iter
    (fun text ->
      List.iter
        (fun a ->
          match Unparse.atom a with
          | None -> Alcotest.failf "no spelling for an atom of %s" text
          | Some t' -> (
            match atoms t' with
            | [ a' ] ->
              Alcotest.(check bool) (text ^ " -> " ^ t') true (shape a = shape a')
            | _ -> Alcotest.failf "%s re-parsed to several atoms" t'))
        (atoms text))
    [
      "E";
      "[i,alpha,_] . [_,beta,!j]";
      "[!{i,'a b'},_,{\"it's\",'007'}]";
      "{(i,alpha,j);('x y',beta,'_')}";
    ]

(* --- Walk (fluent traversals) ------------------------------------------------- *)

let test_walk_out_steps () =
  let g = H.paper_graph () in
  let i = H.v g "i" in
  let vs =
    Walk.(start g [ i ] |> out ~label:(H.l g "alpha") |> vertices)
    |> List.sort Int.compare
  in
  Alcotest.(check (list int)) "α-neighbours of i" [ H.v g "j"; H.v g "k" ] vs

let test_walk_two_steps_match_traversal () =
  let g = H.paper_graph () in
  let i = H.v g "i" in
  let via_walk = Walk.(start g [ i ] |> out |> out |> path_set) in
  let via_algebra =
    Traversal.source g ~from:(Vertex.Set.singleton i) ~length:2
  in
  Alcotest.check H.path_set "walk = source traversal" via_algebra via_walk

let test_walk_in_and_both () =
  let g = H.paper_graph () in
  let j = H.v g "j" in
  let preds =
    Walk.(start g [ j ] |> in_ ~label:(H.l g "alpha") |> vertices)
    |> List.sort Int.compare
  in
  Alcotest.(check (list int)) "α-predecessors of j" [ H.v g "i"; H.v g "k" ] preds;
  let deg =
    Walk.(start g [ j ] |> both |> count)
  in
  (* j touches: out β×3; in: α from i, α from k, β loop (loop only counted
     via out) → 3 + 2 = 5 *)
  Alcotest.(check int) "both degree (loop once)" 5 deg

let test_walk_filters_dedup_limit () =
  let g = H.paper_graph () in
  let i = H.v g "i" in
  let walked =
    Walk.(
      start g [ i ] |> out |> out
      |> filter (fun v -> Digraph.vertex_name g v <> "i")
      |> dedup |> vertices)
  in
  Alcotest.(check bool) "no i" true
    (List.for_all (fun v -> v <> i) walked);
  let distinct = List.sort_uniq Int.compare walked in
  Alcotest.(check int) "dedup" (List.length distinct) (List.length walked);
  Alcotest.(check int) "limit" 2 Walk.(start g [ i ] |> out |> limit 2 |> count)

let test_walk_repeat_and_label_word () =
  let g = H.paper_graph () in
  let i = H.v g "i" in
  let alpha = H.l g "alpha" and beta = H.l g "beta" in
  let ab =
    Walk.(
      start g [ i ] |> repeat 2 out |> has_label_word [ alpha; beta ] |> paths)
  in
  Alcotest.(check int) "3 αβ paths from i" 3 (List.length ab);
  List.iter
    (fun p ->
      Alcotest.(check (list int)) "word" [ alpha; beta ] (Path.label_word p))
    ab

let test_walk_emit_depths () =
  let g = Generate.ring ~n:3 ~n_labels:1 in
  let v0 = Digraph.vertex g "v0" in
  let lengths =
    Walk.(start g [ v0 ] |> emit out ~max_depth:2 |> paths)
    |> List.map Path.length |> List.sort Int.compare
  in
  Alcotest.(check (list int)) "depths 0,1,2" [ 0; 1; 2 ] lengths

let test_walk_simple_pruning () =
  let g = Generate.ring ~n:3 ~n_labels:1 in
  let v0 = Digraph.vertex g "v0" in
  Alcotest.(check int) "3 hops wraps: not simple" 0
    Walk.(start g [ v0 ] |> repeat 3 out |> simple |> count);
  Alcotest.(check int) "2 hops simple" 1
    Walk.(start g [ v0 ] |> repeat 2 out |> simple |> count)

let test_walk_selector_step () =
  let g = H.paper_graph () in
  let i = H.v g "i" in
  let beta_step =
    Walk.(start g [ i ] |> step (Selector.label1 (H.l g "beta")) |> vertices)
  in
  Alcotest.(check (list int)) "i -β-> k" [ H.v g "k" ] beta_step

let qcheck_walk_equals_source_traversal =
  H.qtest ~count:60 "n-step walk = source traversal" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let vs = Array.of_list (Digraph.vertices g) in
      let v = Prng.pick rng vs in
      let n = 1 + Prng.int rng 3 in
      let via_walk = Walk.(start g [ v ] |> repeat n out |> path_set) in
      let via_algebra =
        Traversal.source g ~from:(Vertex.Set.singleton v) ~length:n
      in
      Path_set.equal via_walk via_algebra)

let qcheck_walk_step_equals_selector_traversal =
  H.qtest ~count:60 "selector walk = steps traversal" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let s1 = H.random_selector rng g in
      let s2 = H.random_selector rng g in
      let via_walk =
        Walk.(start_all g |> step s1 |> step s2 |> path_set)
      in
      (* steps-based traversal keeps only paths; walk from all vertices of
         V restricted to those whose first edge matches — same thing since
         start_all covers every possible tail *)
      let via_algebra = Traversal.steps g [ s1; s2 ] in
      Path_set.equal via_walk via_algebra)

(* --- CRPQ ------------------------------------------------------------------- *)

let test_crpq_basic_join () =
  let g = H.paper_graph () in
  (* α edge x→y and β edge y→x *)
  let q =
    Crpq.parse_exn g "select x, y where (x, [_,alpha,_], y), (y, [_,beta,_], x)"
  in
  let answers = Crpq.eval ~max_length:2 g q in
  let i = H.v g "i" and j = H.v g "j" and k = H.v g "k" in
  Alcotest.(check (list (list int))) "pairs"
    [ [ i; j ]; [ k; j ] ]
    (List.sort compare answers)

let test_crpq_projection () =
  let g = H.paper_graph () in
  (* project onto x only *)
  let q =
    Crpq.parse_exn g "select x where (x, [_,alpha,_], y), (y, [_,beta,_], x)"
  in
  let answers = Crpq.eval ~max_length:2 g q in
  Alcotest.(check (list (list int))) "sources"
    [ [ H.v g "i" ]; [ H.v g "k" ] ]
    (List.sort compare answers)

let test_crpq_nullable_atom () =
  let g = H.paper_graph () in
  (* E* relates every vertex to itself (among others): (x, E*, x) holds for
     all three vertices *)
  let q = Crpq.parse_exn g "select x where (x, E*, x)" in
  Alcotest.(check int) "all vertices" 3
    (Crpq.count ~max_length:2 g q)

let test_crpq_triangle () =
  let g = H.parallel_graph () in
  (* directed triangle a→b→c→a using any labels *)
  let q =
    Crpq.parse_exn g "select x, y, z where (x, E, y), (y, E, z), (z, E, x)"
  in
  let answers = Crpq.eval ~max_length:1 g q in
  Alcotest.(check int) "three rotations" 3 (List.length answers)

let test_crpq_validation () =
  let g = H.paper_graph () in
  (match Crpq.parse g "select q where (x, E, y)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "head variable not in atoms must fail");
  (match Crpq.parse g "select x, x where (x, E, y)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "repeated head variable must fail");
  match Crpq.parse g "select x where" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing atoms must fail"

let qcheck_crpq_single_atom_equals_endpoints =
  H.qtest ~count:60 "single-atom CRPQ = endpoint pairs" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr ~allow_product:false rng g in
      let q = Crpq.make ~head:[ "x"; "y" ] [ ("x", r, "y") ] in
      let via_crpq = Crpq.eval ~max_length:3 g q in
      let denoted = Expr.denote g ~max_length:3 r in
      let pairs =
        Path_set.endpoint_pairs
          (Path_set.filter (fun p -> not (Path.is_empty p)) denoted)
      in
      let expected =
        (if Expr.nullable r then
           List.map (fun v -> (v, v)) (Digraph.vertices g)
         else [])
        @ pairs
        |> List.sort_uniq compare
        |> List.map (fun (a, b) -> [ a; b ])
      in
      List.sort compare via_crpq = List.sort compare expected)

(* --- Optimizer ------------------------------------------------------------ *)

let test_simplify_identities () =
  let s = Expr.sel Selector.universe in
  let check_rewrites name input expected =
    let output, _ = Optimizer.simplify input in
    Alcotest.(check bool) name true (Expr.equal output expected)
  in
  check_rewrites "∅|r" (Expr.union Expr.empty s) s;
  check_rewrites "r|r" (Expr.union s s) s;
  check_rewrites "∅.r" (Expr.join Expr.empty s) Expr.empty;
  check_rewrites "ε.r" (Expr.join Expr.epsilon s) s;
  check_rewrites "ε><r" (Expr.product Expr.epsilon s) s;
  check_rewrites "∅*" (Expr.star Expr.empty) Expr.epsilon;
  check_rewrites "(r*)*" (Expr.star (Expr.star s)) (Expr.star s);
  check_rewrites "(ε|r)*" (Expr.star (Expr.union Expr.epsilon s)) (Expr.star s);
  check_rewrites "r*.r*" (Expr.join (Expr.star s) (Expr.star s)) (Expr.star s);
  check_rewrites "ε|r nullable" (Expr.union Expr.epsilon (Expr.star s)) (Expr.star s)

let test_simplify_selector_fusion () =
  let g = H.paper_graph () in
  let a = Expr.sel (Selector.label1 (H.l g "alpha")) in
  let b = Expr.sel (Selector.label1 (H.l g "beta")) in
  let fused, rewrites = Optimizer.simplify (Expr.union a b) in
  (match fused with
  | Expr.Sel (Selector.Union _) -> ()
  | _ -> Alcotest.fail "expected fused selector");
  Alcotest.(check bool) "rewrite recorded" true
    (List.mem "selector-fusion" rewrites)

let qcheck_simplify_preserves_denotation =
  H.qtest ~count:80 "simplify preserves denotation" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      let r', _ = Optimizer.simplify r in
      Path_set.equal (Expr.denote g ~max_length:3 r) (Expr.denote g ~max_length:3 r'))

let test_choose_strategy_anchored () =
  let g =
    Generate.uniform ~rng:(Prng.create 1) ~n_vertices:20 ~n_edges:100 ~n_labels:3
  in
  let anchored =
    Expr.join
      (Expr.sel (Selector.src1 (Digraph.vertex g "v0")))
      (Expr.sel Selector.universe)
  in
  let stats = Stat.profile g in
  let cost_of e = Mrpa_lint.Cost.analyze_expr ~stats g ~max_length:8 e in
  let strategy, _ = Optimizer.choose_strategy g (cost_of anchored) anchored in
  Alcotest.(check string) "bfs for anchored" "product-bfs"
    (Plan.strategy_name strategy);
  let unanchored = Expr.join (Expr.sel Selector.universe) (Expr.sel Selector.universe) in
  let strategy, _ = Optimizer.choose_strategy g (cost_of unanchored) unanchored in
  Alcotest.(check string) "stack for unanchored star-free" "stack-machine"
    (Plan.strategy_name strategy)

let test_plan_pp () =
  let g = H.paper_graph () in
  let p =
    Optimizer.plan ~max_length:4 g
      (Expr.union Expr.empty (Expr.sel Selector.universe))
  in
  let s = Format.asprintf "%a" Plan.pp p in
  Alcotest.(check bool) "mentions strategy" true
    (String.length s > 0 && p.Plan.rewrites <> [])

(* --- Eval / Engine ----------------------------------------------------------- *)

let qcheck_strategies_agree_end_to_end =
  H.qtest ~count:60 "eval strategies agree" H.with_graph_gen H.print_with_graph
    (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      let run strategy =
        (Engine.query_expr ~strategy ~max_length:3 g r).Engine.paths
      in
      let reference = run Plan.Reference in
      Path_set.equal reference (run Plan.Stack_machine)
      && Path_set.equal reference (run Plan.Product_bfs))

let test_engine_query_text () =
  let g = H.paper_graph () in
  match Engine.query g "[i,alpha,_] . [_,beta,_]" with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    (* (i,α,j)·(j,β,k|j|i): 3 paths; (i,α,k): k has no β out *)
    Alcotest.(check int) "3 αβ paths from i" 3 (Path_set.cardinal r.Engine.paths);
    Alcotest.(check int) "stats count" 3 r.Engine.stats.Eval.paths

let test_engine_parse_error_surfaces () =
  let g = H.paper_graph () in
  match Engine.query g "[i,alpha" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error msg ->
    Alcotest.(check bool) "offset in message" true
      (String.length msg > 0)

let test_engine_limit () =
  let g = Generate.complete ~n:4 ~n_labels:2 in
  match Engine.query ~limit:3 g "E" with
  | Error msg -> Alcotest.fail msg
  | Ok r -> Alcotest.(check int) "limited" 3 (Path_set.cardinal r.Engine.paths)

let test_engine_max_length_bounds_star () =
  let g = Generate.ring ~n:3 ~n_labels:1 in
  match Engine.query ~max_length:4 g "E*" with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    Alcotest.(check int) "1+3·4 paths" 13 (Path_set.cardinal r.Engine.paths);
    Alcotest.(check bool) "bounded" true (Path_set.max_length r.Engine.paths <= 4)

let test_engine_explain () =
  let g = H.paper_graph () in
  match Engine.explain g "[i,alpha,_] . E" with
  | Error msg -> Alcotest.fail msg
  | Ok text ->
    Alcotest.(check bool) "mentions plan" true
      (String.length text > 10)

let test_engine_run_seq_stream () =
  let g = H.paper_graph () in
  let plan =
    Optimizer.plan ~strategy:Plan.Product_bfs ~max_length:2 g
      (Expr.sel Selector.universe)
  in
  let first_two = List.of_seq (Seq.take 2 (Eval.run_seq g plan)) in
  Alcotest.(check int) "streamed" 2 (List.length first_two)

let qcheck_engine_count_matches_query =
  H.qtest ~count:60 "Engine.count = |query|" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      (* A path mode or a limit moves the count off the Counting DP; it
         must still be the size of the answer the request returns. *)
      let simple = aux mod 4 = 0 in
      let limit = if aux mod 5 = 0 then Some (aux mod 7) else None in
      fst (Engine.count_expr ~simple ~max_length:3 ?limit g r)
      = Path_set.cardinal
          (Engine.query_expr ~strategy:Plan.Reference ~simple ~max_length:3
             ?limit g r)
            .Engine.paths)

let test_engine_count_contract () =
  let g = H.count_graph () in
  List.iter
    (fun (row : H.count_row) ->
      match
        Engine.count_governed ~simple:row.H.c_simple
          ~max_length:row.H.c_max_length ?limit:row.H.c_limit g row.H.c_query
      with
      | Error msg -> Alcotest.fail msg
      | Ok (n, verdict) ->
        let name = H.count_row_name row in
        Alcotest.(check int) (name ^ " count") row.H.c_count n;
        Alcotest.(check string)
          (name ^ " verdict") row.H.c_verdict (Err.verdict_name verdict))
    H.count_rows;
  (* A plain count keeps the Counting DP: it holds no paths, so a live-path
     budget far below the answer cannot trip it. Materialising the same
     request, or forcing a strategy, does trip it. *)
  let budget () = Budget.create ~max_live:3 () in
  let check name (n, verdict) (n', verdict') =
    Alcotest.(check (pair int string))
      name (n', verdict')
      (n, Err.verdict_name verdict)
  in
  let plan =
    Optimizer.plan ~max_length:3 g (Result.get_ok (Parser.parse g "[_,k,_]*"))
  in
  check "plain count" (Engine.count_plan ~budget:(budget ()) g plan)
    (17, "complete");
  check "forced strategy"
    (Engine.count_plan ~strategy:Plan.Product_bfs ~budget:(budget ()) g plan)
    (3, "partial:memory");
  let r = Engine.query_plan ~budget:(budget ()) g plan in
  check "materialised" (Path_set.cardinal r.Engine.paths, r.Engine.verdict)
    (3, "partial:memory")

let test_engine_simple_flag () =
  let g = Generate.ring ~n:4 ~n_labels:1 in
  let all = Engine.query_exn ~max_length:6 g "E*" in
  let simple = Engine.query_exn ~simple:true ~max_length:6 g "E*" in
  Alcotest.(check bool) "restriction shrinks" true
    (Path_set.cardinal simple.Engine.paths
    < Path_set.cardinal all.Engine.paths);
  Alcotest.(check bool) "all simple" true
    (Path_set.fold
       (fun p acc -> acc && Path.is_simple p)
       simple.Engine.paths true);
  (* all strategies agree under ~simple *)
  List.iter
    (fun strategy ->
      let r = Engine.query_exn ~strategy ~simple:true ~max_length:6 g "E*" in
      Alcotest.(check bool)
        ("strategy agrees: " ^ Plan.strategy_name strategy)
        true
        (Path_set.equal r.Engine.paths simple.Engine.paths))
    [ Plan.Reference; Plan.Stack_machine; Plan.Product_bfs ]

let test_engine_count_text () =
  let g = H.paper_graph () in
  match Engine.count g "[_,beta,_] . [_,beta,_]" with
  | Error msg -> Alcotest.fail msg
  | Ok n -> Alcotest.(check int) "4 ββ paths" 4 n

(* Counts never wrap: on the 20-vertex complete graph the number of walks
   up to length 13 still fits an OCaml int, up to length 14 it does not.
   The DP, the sampler and the count front door all refuse the latter. *)
let test_count_overflow () =
  let g = Generate.complete ~n:20 ~n_labels:1 in
  let all = Expr.star (Expr.sel Selector.universe) in
  let fits = 887785206425426781 in
  Alcotest.(check int) "length 13 exact" fits
    (Mrpa_automata.Counting.count g all ~max_length:13);
  Alcotest.(check int) "sampler population" fits
    (Mrpa_automata.Sampler.population
       (Mrpa_automata.Sampler.prepare g all ~max_length:13));
  Alcotest.check_raises "length 14 count" Mrpa_automata.Counting.Overflow
    (fun () -> ignore (Mrpa_automata.Counting.count g all ~max_length:14));
  Alcotest.check_raises "length 14 sampler" Mrpa_automata.Counting.Overflow
    (fun () ->
      ignore
        (Mrpa_automata.Sampler.population
           (Mrpa_automata.Sampler.prepare g all ~max_length:14)));
  let count max_length = Engine.count_governed ~max_length g "[_,_,_]*" in
  Alcotest.(check (result (pair int string) string))
    "front door, length 13" (Ok (fits, "complete"))
    (Result.map (fun (n, v) -> (n, Err.verdict_name v)) (count 13));
  Alcotest.(check (result (pair int string) string))
    "front door, length 14" (Error Engine.overflow_error)
    (Result.map (fun (n, v) -> (n, Err.verdict_name v)) (count 14))

let test_engine_fig1_text_query () =
  let rng = Prng.create 123 in
  let g = Generate.fig1 ~rng ~n_noise_vertices:3 ~n_noise_edges:5 in
  let text =
    "[i,alpha,_] . [_,beta,_]* . (([_,alpha,j] . {(j,alpha,i)}) | [_,alpha,k])"
  in
  let r = Engine.query_exn ~max_length:6 g text in
  (* the fig1 skeleton guarantees at least the 2-hop witness i→j→(j,α,i)?
     no: guarantees (i,α,k) is reachable via... check non-emptiness only *)
  Alcotest.(check bool) "witnesses exist" true
    (not (Path_set.is_empty r.Engine.paths));
  (* every result must be accepted by the recogniser *)
  let accept = Mrpa_automata.Recognizer.cubic r.Engine.plan.Plan.optimized in
  Path_set.iter
    (fun p -> Alcotest.(check bool) "recognised" true (accept p))
    r.Engine.paths

(* --- Metrics / profiling ------------------------------------------------------ *)

let test_metrics_collector_basics () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr ~by:4 m "a";
  Metrics.set m "b" 7;
  Metrics.set_max m "hw" 3;
  Metrics.set_max m "hw" 9;
  Metrics.set_max m "hw" 2;
  Alcotest.(check (option int)) "incr accumulates" (Some 5) (Metrics.counter m "a");
  Alcotest.(check (option int)) "set overwrites" (Some 7) (Metrics.counter m "b");
  Alcotest.(check (option int)) "set_max keeps max" (Some 9)
    (Metrics.counter m "hw");
  Alcotest.(check (option int)) "absent counter" None (Metrics.counter m "zz");
  Alcotest.(check (list string)) "counters name-sorted" [ "a"; "b"; "hw" ]
    (List.map fst (Metrics.counters m));
  let v = Metrics.time m "s1" (fun () -> 42) in
  Alcotest.(check int) "time returns thunk value" 42 v;
  Metrics.time m "s2" ignore;
  Metrics.time m "s1" ignore;
  Alcotest.(check (list string)) "stages in first-use order" [ "s1"; "s2" ]
    (List.map fst (Metrics.stages m));
  List.iter
    (fun (name, ns) ->
      Alcotest.(check bool) (name ^ " non-negative") true (ns >= 0L))
    (Metrics.stages m);
  (* a raising thunk still records its stage *)
  (try Metrics.time m "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check bool) "stage recorded on raise" true
    (Metrics.stage_ns m "boom" <> None)

let test_metrics_json_shape () =
  let m = Metrics.create () in
  Metrics.time m "parse" ignore;
  Metrics.time m "execute" ignore;
  Metrics.set m "result.paths" 3;
  Metrics.set m "pathset.peak" 3;
  let json = Metrics.to_json m in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains needle))
    [
      "\"schema\":\"mrpa.profile/1\"";
      "\"stages\":[{\"stage\":\"parse\",\"ns\":";
      "{\"stage\":\"execute\",\"ns\":";
      "\"counters\":{\"pathset.peak\":3,\"result.paths\":3}";
    ]

let profiled_exn ?strategy ?simple ?limit ?(max_length = 8) g text =
  match Engine.query_profiled ?strategy ?simple ?limit ~max_length g text with
  | Error msg -> Alcotest.fail msg
  | Ok (r, m) -> (r, m)

let test_profile_pipeline_stages () =
  let g = H.paper_graph () in
  let _, m = profiled_exn g "[i,alpha,_] . [_,beta,_]" in
  Alcotest.(check (list string)) "pipeline order"
    [ "parse"; "lint"; "optimize"; "execute" ]
    (List.map fst (Metrics.stages m));
  List.iter
    (fun (name, ns) ->
      Alcotest.(check bool) (name ^ " >= 0") true (ns >= 0L))
    (Metrics.stages m)

let test_profile_counters_match_result () =
  let g = H.paper_graph () in
  List.iter
    (fun strategy ->
      let r, m = profiled_exn ~strategy g "[_,alpha,_] . [_,beta,_]" in
      let n = Path_set.cardinal r.Engine.paths in
      Alcotest.(check (option int))
        ("result.paths = cardinal: " ^ Plan.strategy_name strategy)
        (Some n)
        (Metrics.counter m "result.paths");
      Alcotest.(check bool)
        ("pathset.peak >= cardinal: " ^ Plan.strategy_name strategy)
        true
        (match Metrics.counter m "pathset.peak" with
        | Some peak -> peak >= n
        | None -> false))
    [ Plan.Reference; Plan.Stack_machine; Plan.Product_bfs ]

(* The profiled pipeline analyses once in its lint stage and hands the
   same statistics and cost to the planner, so its plan is exactly what
   [Optimizer.plan ~stats ~cost] builds, rewrites and notes included. *)
let test_profile_plan_reuses_analysis () =
  let fig1 =
    Generate.fig1 ~rng:(Prng.create 42) ~n_noise_vertices:20 ~n_noise_edges:60
  in
  List.iter
    (fun (name, g, text) ->
      List.iter
        (fun max_length ->
          let r, _ = profiled_exn ~max_length g text in
          let spanned =
            match Parser.parse_spanned g text with
            | Ok sp -> sp
            | Error _ -> Alcotest.fail text
          in
          let stats = Stat.profile g in
          let cost = Mrpa_lint.Cost.analyze ~stats g ~max_length spanned in
          let expected =
            Optimizer.plan ~stats ~cost ~max_length g (Spanned.strip spanned)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %S at %d" name text max_length)
            true
            (r.Engine.plan = expected))
        [ 2; 5 ])
    [
      ("paper", H.paper_graph (), "[i,alpha,_] . [_,beta,_]* . [_,alpha,_]");
      ("paper", H.paper_graph (), "(empty . [_,alpha,_]) | [_,beta,_]");
      ("parallel", H.parallel_graph (), "E . E*");
      ("count", H.count_graph (), "[_,_,_]* . [_,_,_]");
      ( "fig1",
        fig1,
        "[i,alpha,_] . [_,beta,_]* . (([_,alpha,j] . {(j,alpha,i)}) | \
         [_,alpha,k])" );
    ]

let test_stack_limit_bounds_materialisation () =
  (* Regression: ~limit used to fully materialise the denotation and then
     truncate. On K6 with E* and max_length 4 that is 4681 paths; with the
     limit pushed into the stack machine the run aborts at the first level,
     so the live-path high-water mark stays near |E| + k. *)
  let g = Generate.complete ~n:6 ~n_labels:1 in
  let run ?limit () =
    profiled_exn ~strategy:Plan.Stack_machine ~max_length:4 ?limit g "E*"
  in
  let full, m_full = run () in
  let limited, m_lim = run ~limit:5 () in
  Alcotest.(check int) "limit honoured" 5 (Path_set.cardinal limited.Engine.paths);
  Alcotest.(check bool) "limited ⊆ full" true
    (Path_set.subset limited.Engine.paths full.Engine.paths);
  let peak m =
    Option.value ~default:0 (Metrics.counter m "stack.peak_live_paths")
  in
  Alcotest.(check bool) "unlimited run materialises thousands" true
    (peak m_full > 1000);
  Alcotest.(check bool) "limited run stays bounded" true
    (peak m_lim <= Digraph.n_edges g + 5 + 1)

let test_run_seq_limit () =
  let g = Generate.complete ~n:4 ~n_labels:2 in
  List.iter
    (fun strategy ->
      let plan =
        Optimizer.plan ~strategy ~max_length:3 g (Expr.sel Selector.universe)
      in
      let got = List.of_seq (Eval.run_seq ~limit:5 g plan) in
      Alcotest.(check int)
        ("run_seq limit: " ^ Plan.strategy_name strategy)
        5 (List.length got);
      Alcotest.(check int)
        ("run_seq distinct: " ^ Plan.strategy_name strategy)
        5
        (Path_set.cardinal (Path_set.of_list got)))
    [ Plan.Reference; Plan.Stack_machine; Plan.Product_bfs ]

let qcheck_simple_limit_strategy_parity =
  H.qtest ~count:60 "simple+limit parity across strategies" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      let k = 1 + Prng.int rng 4 in
      let full =
        Path_set.restrict_simple (Expr.denote g ~max_length:3 r)
      in
      let expected = min k (Path_set.cardinal full) in
      List.for_all
        (fun strategy ->
          let got =
            (Engine.query_expr ~strategy ~simple:true ~limit:k ~max_length:3 g
               r)
              .Engine.paths
          in
          Path_set.cardinal got = expected
          && Path_set.subset got full
          && Path_set.fold (fun p acc -> acc && Path.is_simple p) got true)
        [ Plan.Reference; Plan.Stack_machine; Plan.Product_bfs ])

let () =
  Alcotest.run "mrpa_engine"
    [
      ( "lexer",
        [
          Alcotest.test_case "symbols" `Quick test_lexer_symbols;
          Alcotest.test_case "idents/ints" `Quick test_lexer_idents_and_ints;
          Alcotest.test_case "underscore" `Quick test_lexer_underscore;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
        ] );
      ( "parser",
        [
          Alcotest.test_case "selector forms" `Quick test_parse_selector_forms;
          Alcotest.test_case "precedence" `Quick test_parse_operators_precedence;
          Alcotest.test_case "repetition" `Quick test_parse_repetition;
          Alcotest.test_case "fig1 string" `Quick test_parse_fig1_string;
          Alcotest.test_case "keywords" `Quick test_parse_keywords;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "complement" `Quick test_parse_complement;
          Alcotest.test_case "let macros" `Quick test_parse_let_macros;
          Alcotest.test_case "macro errors" `Quick test_parse_macro_errors;
        ] );
      ( "unparse",
        [
          Alcotest.test_case "text roundtrips" `Quick test_unparse_roundtrip_texts;
          Alcotest.test_case "quoting" `Quick test_unparse_quotes_awkward_names;
          Alcotest.test_case "name-level atoms" `Quick
            test_unparse_atoms_roundtrip;
          qcheck_unparse_preserves_denotation;
        ] );
      ( "walk",
        [
          Alcotest.test_case "out" `Quick test_walk_out_steps;
          Alcotest.test_case "two steps" `Quick test_walk_two_steps_match_traversal;
          Alcotest.test_case "in/both" `Quick test_walk_in_and_both;
          Alcotest.test_case "filters" `Quick test_walk_filters_dedup_limit;
          Alcotest.test_case "repeat+word" `Quick test_walk_repeat_and_label_word;
          Alcotest.test_case "emit" `Quick test_walk_emit_depths;
          Alcotest.test_case "simple" `Quick test_walk_simple_pruning;
          Alcotest.test_case "selector step" `Quick test_walk_selector_step;
          qcheck_walk_equals_source_traversal;
          qcheck_walk_step_equals_selector_traversal;
        ] );
      ( "crpq",
        [
          Alcotest.test_case "basic join" `Quick test_crpq_basic_join;
          Alcotest.test_case "projection" `Quick test_crpq_projection;
          Alcotest.test_case "nullable atom" `Quick test_crpq_nullable_atom;
          Alcotest.test_case "triangle" `Quick test_crpq_triangle;
          Alcotest.test_case "validation" `Quick test_crpq_validation;
          qcheck_crpq_single_atom_equals_endpoints;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "identities" `Quick test_simplify_identities;
          Alcotest.test_case "selector fusion" `Quick test_simplify_selector_fusion;
          Alcotest.test_case "strategy choice" `Quick test_choose_strategy_anchored;
          Alcotest.test_case "plan pp" `Quick test_plan_pp;
          qcheck_simplify_preserves_denotation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "text query" `Quick test_engine_query_text;
          Alcotest.test_case "parse error" `Quick test_engine_parse_error_surfaces;
          Alcotest.test_case "limit" `Quick test_engine_limit;
          Alcotest.test_case "max_length" `Quick test_engine_max_length_bounds_star;
          Alcotest.test_case "explain" `Quick test_engine_explain;
          Alcotest.test_case "run_seq" `Quick test_engine_run_seq_stream;
          Alcotest.test_case "fig1 query" `Quick test_engine_fig1_text_query;
          Alcotest.test_case "simple flag" `Quick test_engine_simple_flag;
          Alcotest.test_case "count text" `Quick test_engine_count_text;
          Alcotest.test_case "count contract" `Quick test_engine_count_contract;
          Alcotest.test_case "count overflow is an error" `Quick
            test_count_overflow;
          qcheck_strategies_agree_end_to_end;
          qcheck_engine_count_matches_query;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "collector basics" `Quick
            test_metrics_collector_basics;
          Alcotest.test_case "json shape" `Quick test_metrics_json_shape;
          Alcotest.test_case "pipeline stages" `Quick
            test_profile_pipeline_stages;
          Alcotest.test_case "counters match result" `Quick
            test_profile_counters_match_result;
          Alcotest.test_case "profile plan reuses its analysis" `Quick
            test_profile_plan_reuses_analysis;
          Alcotest.test_case "limit bounds stack machine" `Quick
            test_stack_limit_bounds_materialisation;
          Alcotest.test_case "run_seq limit" `Quick test_run_seq_limit;
          qcheck_simple_limit_strategy_parity;
        ] );
    ]
