(* Tests for the static cost & cardinality analyzer: the Interval bound
   domain, the per-label degree profile it consumes, the structural and
   automaton-DP bounds it computes, the L010–L013 diagnostics, and — the
   part everything else leans on — property tests that the two headline
   numbers really are sound upper bounds for every evaluation backend. *)

open Mrpa_graph
open Mrpa_core
open Mrpa_lint
module H = Helpers
module I = Interval

(* --- Interval ------------------------------------------------------------ *)

let bound = Alcotest.testable I.pp_bound I.b_equal

let test_bound_arith () =
  Alcotest.check bound "add" (I.Fin 7) (I.b_add (I.Fin 3) (I.Fin 4));
  Alcotest.check bound "add inf" I.Inf (I.b_add (I.Fin 3) I.Inf);
  Alcotest.check bound "mul" (I.Fin 12) (I.b_mul (I.Fin 3) (I.Fin 4));
  Alcotest.check bound "mul by zero" (I.Fin 0) (I.b_mul (I.Fin 0) I.Inf);
  Alcotest.check bound "pow" (I.Fin 32) (I.b_pow (I.Fin 2) 5);
  Alcotest.check bound "pow zero" (I.Fin 1) (I.b_pow (I.Fin 9) 0);
  Alcotest.check bound "min" (I.Fin 3) (I.b_min (I.Fin 3) I.Inf);
  Alcotest.check bound "max" I.Inf (I.b_max (I.Fin 3) I.Inf);
  Alcotest.(check bool) "le" true (I.b_le (I.Fin 3) (I.Fin 3));
  Alcotest.(check bool) "le inf" true (I.b_le (I.Fin 3) I.Inf);
  Alcotest.(check bool) "gt" true (I.b_gt I.Inf (I.Fin max_int));
  Alcotest.(check bool) "exceeds" true (I.b_exceeds_int (I.Fin 11) 10);
  Alcotest.(check bool) "not exceeds" false (I.b_exceeds_int (I.Fin 10) 10);
  Alcotest.(check bool) "inf exceeds" true (I.b_exceeds_int I.Inf max_int);
  Alcotest.(check string) "to_string" "inf" (I.b_to_string I.Inf)

let test_bound_saturation () =
  (* Arithmetic that would overflow native ints must saturate to Inf, never
     wrap: a wrapped negative bound would claim a huge query is cheap. *)
  let big = I.fin (I.cap - 1) in
  Alcotest.check bound "mul saturates" I.Inf (I.b_mul big big);
  Alcotest.check bound "add saturates" I.Inf (I.b_add big big);
  Alcotest.check bound "pow saturates" I.Inf (I.b_pow (I.Fin 10) 62);
  Alcotest.check bound "fin clamps above cap" I.Inf (I.fin max_int);
  Alcotest.check bound "fin clamps below zero" (I.Fin 0) (I.fin (-5))

let test_interval_ops () =
  let iv = Alcotest.testable I.pp I.equal in
  Alcotest.check iv "add" (I.make 3 (I.Fin 7))
    (I.add (I.make 1 (I.Fin 3)) (I.make 2 (I.Fin 4)));
  Alcotest.check iv "hull" (I.make 1 (I.Fin 9))
    (I.hull (I.make 1 (I.Fin 3)) (I.make 4 (I.Fin 9)));
  Alcotest.(check bool) "mem" true (I.mem 2 (I.make 1 (I.Fin 3)));
  Alcotest.(check bool) "not mem" false (I.mem 4 (I.make 1 (I.Fin 3)));
  Alcotest.(check bool) "mem inf" true (I.mem 1_000_000 (I.make 0 I.Inf));
  Alcotest.check_raises "lo > hi rejected"
    (Invalid_argument "Interval.make: lo > hi") (fun () ->
      ignore (I.make 4 (I.Fin 3)))

let test_widen_stabilises () =
  (* The defining property of widening: any ascending chain stabilises
     after one application per direction — lo can only drop to 0, hi only
     jump to Inf. *)
  let a = I.make 2 (I.Fin 5) in
  let grow = I.make 1 (I.Fin 9) in
  let w1 = I.widen a grow in
  let w2 = I.widen w1 (I.hull w1 (I.make 0 (I.Fin 1_000))) in
  let w3 = I.widen w2 (I.hull w2 (I.make 0 I.Inf)) in
  Alcotest.(check bool) "first widen covers" true
    (I.mem 1 w1 && I.mem 9 w1);
  Alcotest.(check bool) "chain stabilises" true (I.equal w2 w3);
  Alcotest.(check bool) "fixpoint" true (I.equal w3 (I.widen w3 w3))

(* --- Stat.profile -------------------------------------------------------- *)

let test_stat_profile () =
  let g = H.paper_graph () in
  let p = Stat.profile g in
  Alcotest.(check int) "vertices" 3 p.Stat.vertices;
  Alcotest.(check int) "edges" 7 p.Stat.edges;
  Alcotest.(check int) "labels" 2 p.Stat.labels;
  (* i has out-edges alpha->j, alpha->k, beta->k. *)
  Alcotest.(check int) "max out degree" 3 p.Stat.max_out_degree;
  let alpha = H.l g "alpha" and beta = H.l g "beta" in
  let get l =
    match Stat.label_profile p l with
    | Some lp -> lp
    | None -> Alcotest.fail "label missing from profile"
  in
  let pa = get alpha and pb = get beta in
  Alcotest.(check int) "alpha edges" 3 pa.Stat.edges;
  Alcotest.(check int) "alpha distinct tails" 2 pa.Stat.distinct_tails;
  Alcotest.(check int) "alpha distinct heads" 2 pa.Stat.distinct_heads;
  Alcotest.(check int) "alpha max out (i: ->j,->k)" 2 pa.Stat.max_out;
  Alcotest.(check int) "alpha max in (j: i->,k->)" 2 pa.Stat.max_in;
  Alcotest.(check int) "beta edges" 4 pb.Stat.edges;
  Alcotest.(check int) "beta max out (j: ->k,->j,->i)" 3 pb.Stat.max_out;
  let sum_hist h = List.fold_left (fun a (_, n) -> a + n) 0 h in
  Alcotest.(check int) "alpha out histogram covers its tails"
    pa.Stat.distinct_tails
    (sum_hist pa.Stat.out_histogram)

(* --- Cost: structural bounds --------------------------------------------- *)

let analyze ?(max_length = 8) g e =
  let stats = Stat.profile g in
  Cost.analyze_expr ~stats g ~max_length e

let test_cost_epsilon_and_selector () =
  let g = H.paper_graph () in
  let c = analyze g Expr.epsilon in
  Alcotest.check bound "epsilon: one path" (I.Fin 1)
    c.Cost.root.Cost.card;
  (match c.Cost.root.Cost.len with
  | Some l -> Alcotest.(check bool) "epsilon: len [0,0]" true
      (I.equal l I.zero)
  | None -> Alcotest.fail "epsilon has a length interval");
  let alpha = Expr.sel (Selector.label_in (Label.Set.singleton (H.l g "alpha"))) in
  let ca = analyze g alpha in
  (* size_hint never underestimates, so the bound is >= the true 3. *)
  Alcotest.(check bool) "selector bound covers its edges" true
    (I.b_le (I.Fin 3) ca.Cost.root.Cost.card);
  let c0 = analyze g Expr.empty in
  Alcotest.check bound "empty: zero paths" (I.Fin 0) c0.Cost.root.Cost.card

let test_cost_union_and_star () =
  let g = H.paper_graph () in
  let alpha = Expr.sel (Selector.label_in (Label.Set.singleton (H.l g "alpha"))) in
  let beta = Expr.sel (Selector.label_in (Label.Set.singleton (H.l g "beta"))) in
  let cu = analyze g (Expr.union alpha beta) in
  let ca = analyze g alpha and cb = analyze g beta in
  Alcotest.(check bool) "union bound covers the sum" true
    (I.b_le
       (I.b_add ca.Cost.root.Cost.card cb.Cost.root.Cost.card)
       (I.b_add cu.Cost.root.Cost.card (I.Fin 0))
    || I.b_equal cu.Cost.root.Cost.card
         (I.b_add ca.Cost.root.Cost.card cb.Cost.root.Cost.card));
  let cs = analyze g (Expr.star alpha) in
  (match cs.Cost.root.Cost.len with
  | Some l ->
    Alcotest.(check int) "star len lo" 0 l.I.lo;
    Alcotest.check bound "star len hi widened" I.Inf l.I.hi
  | None -> Alcotest.fail "star has a length interval");
  Alcotest.(check bool) "star of nonempty admits epsilon" true
    (I.b_le (I.Fin 1) cs.Cost.root.Cost.card)

let test_cost_monotone_in_max_length () =
  let g = H.paper_graph () in
  let e =
    Expr.star (Expr.sel (Selector.label_in (Label.Set.singleton (H.l g "beta"))))
  in
  let c2 = analyze ~max_length:2 g e and c6 = analyze ~max_length:6 g e in
  Alcotest.(check bool) "paths bound grows with the length bound" true
    (I.b_le c2.Cost.predicted_paths c6.Cost.predicted_paths);
  Alcotest.(check bool) "cost bound grows with the length bound" true
    (I.b_le c2.Cost.predicted_cost c6.Cost.predicted_cost)

(* A dense one-relation graph: complete digraph (with loops) on [n]
   vertices, fan-out n at every vertex — the shape L010/L011 exist for. *)
let dense_graph n =
  let g = Digraph.create () in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      ignore
        (Digraph.add g (Printf.sprintf "v%d" i) "dense" (Printf.sprintf "v%d" j))
    done
  done;
  g

let codes ds = List.map (fun d -> d.Diagnostic.code) ds

let test_l010_dense_star () =
  let g = dense_graph 32 in
  let e = Expr.star (Expr.sel Selector.universe) in
  let c = analyze g e in
  let ds = Cost.diagnostics c in
  Alcotest.(check bool) "L010 fires on a dense star" true
    (List.mem "L010" (codes ds));
  (* The paper graph at a modest bound stays below the threshold: the
     structural bound is ~7^4, nowhere near a million. *)
  let quiet = Cost.diagnostics (analyze ~max_length:4 (H.paper_graph ()) e) in
  Alcotest.(check bool) "no L010 on a tiny graph" false
    (List.mem "L010" (codes quiet))

let test_l011_blowup_join () =
  let g = dense_graph 32 in
  let u = Expr.sel Selector.universe in
  let c = analyze g (Expr.product u (Expr.product u u)) in
  let ds = Cost.diagnostics c in
  Alcotest.(check bool) "L011 fires on a blowup product" true
    (List.mem "L011" (codes ds));
  (* Innermost blame: exactly one L011, on the inner product, not also on
     the outer one the bound merely propagates through. *)
  Alcotest.(check int) "single innermost L011" 1
    (List.length (List.filter (( = ) "L011") (codes ds)))

let test_l012_budget_infeasible () =
  let g = dense_graph 8 in
  let c = analyze g (Expr.star (Expr.sel Selector.universe)) in
  let broke = Cost.budget_check ~fuel:10 c in
  Alcotest.(check bool) "L012 fires on tiny fuel" true
    (List.mem "L012" (codes broke));
  let rich = Cost.budget_check ~fuel:max_int c in
  Alcotest.(check (list string)) "no L012 with ample fuel" [] (codes rich);
  let slow = Cost.budget_check ~deadline_ms:0.0001 c in
  Alcotest.(check bool) "L012 fires on a hopeless deadline" true
    (List.mem "L012" (codes slow))

let test_l013_zero_selectivity () =
  let g = H.paper_graph () in
  let u () = Expr.sel Selector.universe in
  let rec chain n = if n = 1 then u () else Expr.join (u ()) (chain (n - 1)) in
  let c = analyze ~max_length:3 g (chain 5) in
  Alcotest.(check bool) "L013 fires when min length exceeds the bound" true
    (List.mem "L013" (codes (Cost.diagnostics c)));
  Alcotest.check bound "and the bound is zero paths" (I.Fin 0)
    c.Cost.predicted_paths;
  let fits = analyze ~max_length:8 g (chain 5) in
  Alcotest.(check bool) "quiet when the chain fits" false
    (List.mem "L013" (codes (Cost.diagnostics fits)))

(* --- Soundness: the bounds really bound every backend --------------------- *)

let strategies =
  [ Mrpa_engine.Plan.Reference;
    Mrpa_engine.Plan.Stack_machine;
    Mrpa_engine.Plan.Product_bfs ]

(* For a random graph and expression, no backend may return more paths
   than [predicted_paths] nor spend more fuel than [predicted_cost]. This
   is the contract the planner and the server's admission control rely
   on: analysis runs on the {e unoptimised} expression, evaluation on the
   full pipeline (rewrites included), so the test also checks that
   rewriting never grows the denotation past the static bound. *)
let qcheck_bounds_sound =
  H.qtest ~count:120 "predicted paths/cost bound every backend"
    H.with_graph_gen H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let e = H.random_expr rng g in
      let max_length = 1 + Prng.int rng 4 in
      let stats = Stat.profile g in
      let c = Cost.analyze_expr ~stats g ~max_length e in
      (* violation = the actual count strictly exceeds the finite bound *)
      let exceeds n = function I.Inf -> false | I.Fin p -> n > p in
      let check_one strategy =
        let budget = Mrpa_engine.Budget.unlimited () in
        let r = Mrpa_engine.Engine.query_expr ~strategy ~stats ~max_length ~budget g e in
        let n = Path_set.cardinal r.Mrpa_engine.Engine.paths in
        if exceeds n c.Cost.predicted_paths then
          QCheck2.Test.fail_reportf
            "%s returned %d paths > predicted %s (max_length=%d)"
            (Mrpa_engine.Plan.strategy_name strategy)
            n
            (I.b_to_string c.Cost.predicted_paths)
            max_length
        else if
          exceeds (Mrpa_engine.Budget.fuel_used budget) c.Cost.predicted_cost
        then
          QCheck2.Test.fail_reportf
            "%s spent %d fuel > predicted %s (max_length=%d)"
            (Mrpa_engine.Plan.strategy_name strategy)
            (Mrpa_engine.Budget.fuel_used budget)
            (I.b_to_string c.Cost.predicted_cost)
            max_length
        else true
      in
      List.for_all check_one strategies
      &&
      (* the counting backend too: distinct-path count and its fuel. *)
      let budget = Mrpa_engine.Budget.unlimited () in
      let n, _verdict = Mrpa_engine.Engine.count_expr ~max_length ~budget g e in
      (not (exceeds n c.Cost.predicted_paths))
      && not (exceeds (Mrpa_engine.Budget.fuel_used budget) c.Cost.predicted_cost))

(* The planner consumes [peak_frontier]; sanity-check it is at least the
   real frontier on a concrete case: the paper graph's [beta*] from j
   reaches {j,i,k} so some level holds >= 2 walks. *)
let test_peak_frontier_positive () =
  let g = H.paper_graph () in
  let e =
    Expr.star (Expr.sel (Selector.label_in (Label.Set.singleton (H.l g "beta"))))
  in
  let c = analyze g e in
  Alcotest.(check bool) "frontier bound is positive" true
    (I.b_le (I.Fin 1) c.Cost.peak_frontier)

(* --- Cold path: a plan-cache miss costs O(|query|), not O(|E|) ----------- *)

(* A social graph and one four times its size: the larger holds the
   smaller unchanged (same ids) plus three more drawn under other seeds,
   with renamed vertices. An anchor in the first copy has the same
   neighbourhood in both graphs while |E| grows fourfold. *)
let social_pair () =
  let draw seed =
    Generate.social ~rng:(Prng.create seed) ~n_people:2_000 ~n_orgs:100
      ~n_projects:200
  in
  let small = draw 1 in
  let large = Digraph.copy small in
  for k = 2 to 4 do
    let h = draw k in
    let name v = Printf.sprintf "c%d.%s" k (Digraph.vertex_name h v) in
    Digraph.iter_edges
      (fun e ->
        ignore
          (Digraph.add large (name (Edge.tail e))
             (Digraph.label_name h (Edge.label e))
             (name (Edge.head e))))
      h
  done;
  Alcotest.(check bool) "four times the edges" true
    (Digraph.n_edges large >= 4 * Digraph.n_edges small * 9 / 10);
  (Mrpa_server.Snapshot.of_graph small, Mrpa_server.Snapshot.of_graph large)

let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let check_flat what small large =
  if Float.abs (small -. large) > 0.1 *. Float.max small large then
    Alcotest.failf "%s allocates %.0f words on the small graph, %.0f on the \
                    4x one" what small large

let compile snap ~max_length query =
  match Mrpa_server.Snapshot.compile snap ~max_length ~simple:false query with
  | Ok c -> c
  | Error e -> Alcotest.failf "%s: %s" query e

let five_step anchor =
  Printf.sprintf
    "[%s,knows,_] . [_,knows,_] . [_,knows,_] . [_,knows,_] . [_,works_for,_]"
    anchor

let test_compile_flat () =
  let words snap =
    (* the first compile warms whatever a snapshot sets up once *)
    ignore (compile snap ~max_length:5 (five_step "p1999"));
    minor_words (fun () -> compile snap ~max_length:5 (five_step "p1500"))
  in
  let small, large = social_pair () in
  check_flat "Snapshot.compile" (words small) (words large)

let test_count_flat () =
  let words snap =
    let c = compile snap ~max_length:2 "[p1500,knows,_] . [_,works_for,_]" in
    let g = Mrpa_server.Snapshot.graph snap in
    let n = ref 0 in
    let w =
      minor_words (fun () ->
          n := fst (Mrpa_engine.Engine.count_plan g c.Mrpa_server.Snapshot.plan))
    in
    Alcotest.(check bool) "the anchor has answers" true (!n > 0);
    w
  in
  let small, large = social_pair () in
  check_flat "Engine.count_plan" (words small) (words large)

(* Random add/remove sequences over a small fixed vocabulary. *)
type op = Add of int * int * int | Remove of int * int * int

let ops_gen =
  QCheck2.Gen.(
    list_size (int_range 0 60)
      (let* add = bool in
       let* t = int_bound 4 and* l = int_bound 2 and* h = int_bound 4 in
       return (if add then Add (t, l, h) else Remove (t, l, h))))

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Add (t, l, h) -> Printf.sprintf "+%d%d%d" t l h
         | Remove (t, l, h) -> Printf.sprintf "-%d%d%d" t l h)
       ops)

let graph_of_ops ops =
  let g = Digraph.create () in
  let vs = Array.init 5 (fun i -> Digraph.vertex g (Printf.sprintf "v%d" i)) in
  let ls = Array.init 3 (fun i -> Digraph.label g (Printf.sprintf "l%d" i)) in
  List.iter
    (fun op ->
      match op with
      | Add (t, l, h) -> ignore (Digraph.add_edge g (Edge.v vs.(t) ls.(l) vs.(h)))
      | Remove (t, l, h) ->
        ignore (Digraph.remove_edge g (Edge.v vs.(t) ls.(l) vs.(h))))
    ops;
  g

let counts_agree g =
  List.for_all
    (fun l ->
      Digraph.n_edges_with_label g l
      = List.length (Digraph.edges_with_label g l))
    (Digraph.labels g)
  && List.for_all
       (fun v ->
         Digraph.out_degree g v = List.length (Digraph.out_edges g v)
         && Digraph.in_degree g v = List.length (Digraph.in_edges g v))
       (Digraph.vertices g)

let qcheck_label_counts =
  H.qtest ~count:300 "per-label counts match the buckets" ops_gen print_ops
    (fun ops -> counts_agree (graph_of_ops ops))

let qcheck_freeze_keeps_order =
  H.qtest ~count:300 "accessors return the same lists after freeze" ops_gen
    print_ops (fun ops ->
      let g = graph_of_ops ops in
      let reads () =
        ( Digraph.edges g,
          List.map (Digraph.out_edges g) (Digraph.vertices g),
          List.map (Digraph.in_edges g) (Digraph.vertices g),
          List.map (Digraph.edges_with_label g) (Digraph.labels g) )
      in
      let before = reads () in
      Digraph.freeze g;
      reads () = before && counts_agree g)

let () =
  Alcotest.run "cost"
    [
      ( "interval",
        [
          Alcotest.test_case "bound arithmetic" `Quick test_bound_arith;
          Alcotest.test_case "saturation" `Quick test_bound_saturation;
          Alcotest.test_case "interval ops" `Quick test_interval_ops;
          Alcotest.test_case "widening stabilises" `Quick test_widen_stabilises;
        ] );
      ( "profile",
        [ Alcotest.test_case "per-label profile" `Quick test_stat_profile ] );
      ( "bounds",
        [
          Alcotest.test_case "epsilon/selector/empty" `Quick
            test_cost_epsilon_and_selector;
          Alcotest.test_case "union and star" `Quick test_cost_union_and_star;
          Alcotest.test_case "monotone in max_length" `Quick
            test_cost_monotone_in_max_length;
          Alcotest.test_case "peak frontier" `Quick test_peak_frontier_positive;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "L010 dense star" `Quick test_l010_dense_star;
          Alcotest.test_case "L011 blowup join" `Quick test_l011_blowup_join;
          Alcotest.test_case "L012 budget infeasible" `Quick
            test_l012_budget_infeasible;
          Alcotest.test_case "L013 zero selectivity" `Quick
            test_l013_zero_selectivity;
        ] );
      ("soundness", [ qcheck_bounds_sound ]);
      ( "cold path",
        [
          Alcotest.test_case "compile allocation flat in |E|" `Quick
            test_compile_flat;
          Alcotest.test_case "anchored count allocation flat in |E|" `Quick
            test_count_flat;
          qcheck_label_counts;
          qcheck_freeze_keeps_order;
        ] );
    ]
