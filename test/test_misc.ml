(* Robustness and surface coverage: error paths, file-based I/O, printers,
   and small utilities not exercised elsewhere. *)

open Mrpa_graph
open Mrpa_core
module H = Helpers

let tmp_file suffix =
  Filename.temp_file "mrpa_test" suffix

(* --- File-based I/O ------------------------------------------------------ *)

let test_io_save_load_file () =
  let g = H.paper_graph () in
  let path = tmp_file ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save path g;
      let h = Io.load path in
      Alcotest.(check int) "|E| preserved" (Digraph.n_edges g) (Digraph.n_edges h);
      Alcotest.(check int) "|V| preserved" (Digraph.n_vertices g)
        (Digraph.n_vertices h))

let test_dot_save_file () =
  let g = H.paper_graph () in
  let path = tmp_file ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dot.save path g;
      let ic = open_in path in
      let first = input_line ic in
      close_in ic;
      Alcotest.(check bool) "digraph header" true
        (String.length first >= 7 && String.sub first 0 7 = "digraph"))

let test_graphml_save_file () =
  let g = H.paper_graph () in
  let path = tmp_file ".graphml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graphml.save path g;
      Alcotest.(check bool) "file non-empty" true
        ((Unix.stat path).Unix.st_size > 100))

let test_viz_save_file () =
  let g = H.paper_graph () in
  let a = Mrpa_automata.Glushkov.build (Expr.sel Selector.universe) in
  let path = tmp_file ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mrpa_automata.Viz.save ~graph:g path a;
      Alcotest.(check bool) "file non-empty" true
        ((Unix.stat path).Unix.st_size > 50))

(* --- Printers ------------------------------------------------------------- *)

let test_path_pp_strings () =
  Alcotest.(check string) "ε prints" "\xCE\xB5"
    (Format.asprintf "%a" Path.pp Path.empty);
  let p = Path.of_edges [ Edge.v 0 1 2; Edge.v 2 0 1 ] in
  Alcotest.(check string) "flattened form" "(0,1,2,2,0,1)"
    (Format.asprintf "%a" Path.pp p)

let test_named_printers () =
  let g = H.paper_graph () in
  let e = H.e g "i" "alpha" "j" in
  Alcotest.(check string) "edge named" "(i,alpha,j)"
    (Format.asprintf "%a" (Digraph.pp_edge g) e);
  Alcotest.(check string) "path named" "(i,alpha,j)"
    (Format.asprintf "%a" (Digraph.pp_path g) (Path.of_edge e));
  let s = Format.asprintf "%a" (Selector.pp_named g) (Selector.src1 (H.v g "i")) in
  Alcotest.(check string) "selector named" "[i,_,_]" s

let test_selector_pp_forms () =
  let s2 =
    Selector.pattern
      ~src:(Vertex.Set.of_list [ 1; 2 ])
      ~lbl:(Label.Set.singleton 0) ()
  in
  Alcotest.(check string) "set positions" "[{1,2},0,_]"
    (Format.asprintf "%a" Selector.pp s2);
  let su =
    Selector.union (Selector.src1 1) (Selector.edge (Edge.v 0 0 1))
  in
  let printed = Format.asprintf "%a" Selector.pp su in
  Alcotest.(check bool) "union prints" true (String.contains printed '|')

let test_path_set_pp () =
  let s = Path_set.of_list [ Path.empty; Path.of_edge (Edge.v 0 0 1) ] in
  let printed = Format.asprintf "%a" Path_set.pp s in
  Alcotest.(check bool) "braces" true
    (printed.[0] = '{' && printed.[String.length printed - 1] = '}')

let test_expr_pp_unicode () =
  Alcotest.(check string) "empty" "\xE2\x88\x85"
    (Format.asprintf "%a" Expr.pp Expr.empty);
  Alcotest.(check string) "epsilon" "\xCE\xB5"
    (Format.asprintf "%a" Expr.pp Expr.epsilon)

(* --- Error paths ------------------------------------------------------------ *)

let check_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_negative_bounds_rejected () =
  let g = H.paper_graph () in
  let u = Expr.sel Selector.universe in
  check_invalid "denote" (fun () -> Expr.denote g ~max_length:(-1) u);
  check_invalid "generate" (fun () ->
      Mrpa_automata.Generator.generate g u ~max_length:(-1));
  check_invalid "stack" (fun () ->
      Mrpa_automata.Stack_machine.run g u ~max_length:(-1));
  check_invalid "counting" (fun () ->
      Mrpa_automata.Counting.count g u ~max_length:(-1));
  check_invalid "sampler" (fun () ->
      Mrpa_automata.Sampler.prepare g u ~max_length:(-1));
  check_invalid "traversal" (fun () -> Traversal.complete g ~length:(-1));
  check_invalid "star" (fun () ->
      Path_set.star_bounded Path_set.epsilon ~max_length:(-1));
  check_invalid "plan" (fun () ->
      Mrpa_engine.Optimizer.plan ~max_length:(-1) g u);
  check_invalid "walk repeat" (fun () ->
      Mrpa_engine.Walk.(start g [] |> repeat (-1) Fun.id));
  check_invalid "label repeat" (fun () -> Label_expr.repeat Label_expr.epsilon (-1))

let test_prng_pick_errors () =
  let rng = Prng.create 0 in
  check_invalid "pick empty array" (fun () -> Prng.pick rng [||]);
  check_invalid "pick empty list" (fun () -> Prng.pick_list rng [])

let test_sampler_run_limited_negative () =
  let g = H.paper_graph () in
  let plan =
    Mrpa_engine.Optimizer.plan ~max_length:2 g (Expr.sel Selector.universe)
  in
  check_invalid "run_limited" (fun () ->
      Mrpa_engine.Eval.run_limited g plan ~limit:(-1))

let test_path_tail_head_exn () =
  check_invalid "tail_exn" (fun () -> Path.tail_exn Path.empty);
  check_invalid "head_exn" (fun () -> Path.head_exn Path.empty);
  check_invalid "sub" (fun () ->
      Path.sub (Path.of_edge (Edge.v 0 0 1)) ~pos:0 ~len:1)

(* --- Misc API surfaces ------------------------------------------------------- *)

let test_edge_universe () =
  let g = H.paper_graph () in
  let u = Digraph.edge_universe g in
  Alcotest.(check int) "cardinal" 7 (Edge.Set.cardinal u);
  Alcotest.(check bool) "member" true (Edge.Set.mem (H.e g "i" "alpha" "j") u)

let test_expr_utilities () =
  let u = Expr.sel Selector.universe in
  Alcotest.(check bool) "union_of []" true (Expr.equal (Expr.union_of []) Expr.empty);
  Alcotest.(check bool) "join_of []" true (Expr.equal (Expr.join_of []) Expr.epsilon);
  Alcotest.(check bool) "union_of [u]" true (Expr.equal (Expr.union_of [ u ]) u);
  Alcotest.(check int) "depth" 2 (Expr.depth (Expr.star u));
  Alcotest.(check bool) "compare reflexive" true (Expr.compare u u = 0)

let test_eval_run_seq_all_strategies () =
  let g = H.paper_graph () in
  let u = Expr.sel Selector.universe in
  List.iter
    (fun strategy ->
      let plan = Mrpa_engine.Optimizer.plan ~strategy ~max_length:1 g u in
      let n = Seq.length (Mrpa_engine.Eval.run_seq g plan) in
      Alcotest.(check int)
        ("run_seq " ^ Mrpa_engine.Plan.strategy_name strategy)
        7 n)
    [
      Mrpa_engine.Plan.Reference;
      Mrpa_engine.Plan.Stack_machine;
      Mrpa_engine.Plan.Product_bfs;
    ]

let test_engine_query_expr_direct () =
  let g = H.paper_graph () in
  let r =
    Mrpa_engine.Engine.query_expr ~max_length:1 g (Expr.sel Selector.universe)
  in
  Alcotest.(check int) "all edges" 7 (Path_set.cardinal r.Mrpa_engine.Engine.paths);
  Alcotest.(check bool) "stats time non-negative" true
    (r.Mrpa_engine.Engine.stats.Mrpa_engine.Eval.elapsed_s >= 0.0)

let test_subset_diagnostics () =
  let m = Mrpa_automata.Subset.make (Expr.star (Expr.sel Selector.universe)) in
  Alcotest.(check bool) "nullable" true (Mrpa_automata.Subset.nullable m);
  let init = Mrpa_automata.Subset.initial m in
  Alcotest.(check bool) "initial accepting" true
    (Mrpa_automata.Subset.accepting m init);
  Alcotest.(check bool) "cached >= 1" true
    (Mrpa_automata.Subset.n_cached_states m >= 1)

let test_crpq_pp_and_variables () =
  let g = H.paper_graph () in
  let q =
    Mrpa_engine.Crpq.parse_exn g
      "select x where (x, [_,alpha,_], y), (y, [_,beta,_], z)"
  in
  Alcotest.(check (list string)) "variables, head first" [ "x"; "y"; "z" ]
    (Mrpa_engine.Crpq.variables q);
  let printed = Format.asprintf "%a" Mrpa_engine.Crpq.pp q in
  Alcotest.(check bool) "pp mentions select" true
    (String.length printed > 10 && String.sub printed 0 6 = "select")

(* --- Render (JSON) ------------------------------------------------------------ *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let test_json_escaping () =
  let open Mrpa_engine.Render in
  Alcotest.(check string) "plain" "\"abc\"" (escape_string "abc");
  Alcotest.(check string) "quote" "\"a\\\"b\"" (escape_string "a\"b");
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (escape_string "a\\b");
  Alcotest.(check string) "newline" "\"a\\nb\"" (escape_string "a\nb");
  Alcotest.(check string) "control" "\"a\\u0001b\"" (escape_string "a\x01b")

let test_json_result_shape () =
  let g = H.paper_graph () in
  let r = Mrpa_engine.Engine.query_exn ~max_length:1 g "[i,alpha,_]" in
  let json = Mrpa_engine.Render.result_json g r in
  Alcotest.(check bool) "object" true (json.[0] = '{');
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true
        (contains ("\"" ^ field ^ "\":") json))
    [ "paths"; "count"; "elapsed_ms"; "strategy"; "rewrites" ];
  Alcotest.(check bool) "count is 2" true (contains "\"count\":2" json);
  Alcotest.(check bool) "edge fields" true (contains "\"label\":\"alpha\"" json)

let test_json_tuples () =
  let g = H.paper_graph () in
  let json =
    Mrpa_engine.Render.tuples_json g ~head:[ "x"; "y" ]
      [ [ H.v g "i"; H.v g "j" ] ]
  in
  Alcotest.(check string) "tuple object"
    "[{\"x\":\"i\",\"y\":\"j\"}]" json

let test_json_epsilon_path () =
  let g = H.paper_graph () in
  let json = Mrpa_engine.Render.path_json g Path.empty in
  Alcotest.(check bool) "empty edges array" true
    (contains "\"edges\":[]" json);
  Alcotest.(check bool) "length 0" true (contains "\"length\":0" json)

(* The exact bytes of a fixed result, with names that need escaping: the
   wire format is a contract, so any change to the writer shows here. *)
let test_json_result_bytes () =
  let g = Digraph.create () in
  let e1 = Digraph.add g "a\"b" "k\n" "c\\d" in
  let e2 = Digraph.add g "c\\d" "k\n" "\x01" in
  let r =
    {
      Mrpa_engine.Engine.paths =
        Path_set.of_list [ Path.of_edges [ e1; e2 ]; Path.of_edge e2 ];
      plan =
        Mrpa_engine.Optimizer.plan ~max_length:2 g
          (Expr.union (Expr.sel Selector.universe) Expr.empty);
      verdict = Mrpa_engine.Err.Complete;
      stats = { Mrpa_engine.Eval.paths = 2; elapsed_s = 0.0012344 };
    }
  in
  let edge1 = {|{"tail":"a\"b","label":"k\n","head":"c\\d"}|}
  and edge2 = {|{"tail":"c\\d","label":"k\n","head":"\u0001"}|} in
  Alcotest.(check string) "result bytes"
    ({|{"paths":[{"edges":[|} ^ edge2
   ^ {|],"label_word":["k\n"],"length":1,"joint":true},{"edges":[|}
   ^ edge1 ^ "," ^ edge2
   ^ {|],"label_word":["k\n","k\n"],"length":2,"joint":true}],"count":2,|}
   ^ {|"elapsed_ms":1.234,"strategy":"product-bfs","verdict":"complete",|}
   ^ {|"rewrites":["union-empty"]}|})
    (Mrpa_engine.Render.result_json g r);
  Alcotest.(check string) "envelope bytes" {|{"a\"k":1,"b\tc":[],"":{}}|}
    (Mrpa_engine.Render.obj
       [ ("a\"k", "1"); ("b\tc", "[]"); ("", Mrpa_engine.Render.obj []) ])

let () =
  Alcotest.run "mrpa_misc"
    [
      ( "file-io",
        [
          Alcotest.test_case "io save/load" `Quick test_io_save_load_file;
          Alcotest.test_case "dot save" `Quick test_dot_save_file;
          Alcotest.test_case "graphml save" `Quick test_graphml_save_file;
          Alcotest.test_case "viz save" `Quick test_viz_save_file;
        ] );
      ( "printers",
        [
          Alcotest.test_case "path pp" `Quick test_path_pp_strings;
          Alcotest.test_case "named" `Quick test_named_printers;
          Alcotest.test_case "selector forms" `Quick test_selector_pp_forms;
          Alcotest.test_case "path set" `Quick test_path_set_pp;
          Alcotest.test_case "expr unicode" `Quick test_expr_pp_unicode;
        ] );
      ( "errors",
        [
          Alcotest.test_case "negative bounds" `Quick test_negative_bounds_rejected;
          Alcotest.test_case "prng picks" `Quick test_prng_pick_errors;
          Alcotest.test_case "run_limited" `Quick test_sampler_run_limited_negative;
          Alcotest.test_case "path exn" `Quick test_path_tail_head_exn;
        ] );
      ( "render",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "result shape" `Quick test_json_result_shape;
          Alcotest.test_case "tuples" `Quick test_json_tuples;
          Alcotest.test_case "epsilon path" `Quick test_json_epsilon_path;
          Alcotest.test_case "result bytes" `Quick test_json_result_bytes;
        ] );
      ( "surfaces",
        [
          Alcotest.test_case "edge universe" `Quick test_edge_universe;
          Alcotest.test_case "expr utilities" `Quick test_expr_utilities;
          Alcotest.test_case "run_seq strategies" `Quick
            test_eval_run_seq_all_strategies;
          Alcotest.test_case "query_expr" `Quick test_engine_query_expr_direct;
          Alcotest.test_case "subset diagnostics" `Quick test_subset_diagnostics;
          Alcotest.test_case "crpq pp" `Quick test_crpq_pp_and_variables;
        ] );
    ]
