open Mrpa_graph
open Mrpa_core
open Mrpa_automata
module H = Helpers

(* The paper's Figure 1 expression over the fixture graph:
   [i,α,_] ./∘ [_,β,_]* ./∘ (([_,α,j] ./∘ {(j,α,i)}) ∪ [_,α,k]) *)
let fig1_expr g =
  let i = H.v g "i" and j = H.v g "j" and k = H.v g "k" in
  let alpha = H.l g "alpha" and beta = H.l g "beta" in
  let open Expr.Dsl in
  Expr.sel (Selector.pattern ~src:(Vertex.Set.singleton i) ~lbl:(Label.Set.singleton alpha) ())
  <.> Expr.star (Expr.sel (Selector.label1 beta))
  <.> (Expr.sel (Selector.pattern ~lbl:(Label.Set.singleton alpha) ~dst:(Vertex.Set.singleton j) ())
       <.> Expr.edge (Edge.make ~tail:j ~label:alpha ~head:i)
      <|> Expr.sel (Selector.pattern ~lbl:(Label.Set.singleton alpha) ~dst:(Vertex.Set.singleton k) ()))

(* --- Glushkov ----------------------------------------------------------- *)

let test_glushkov_counts () =
  let g = H.paper_graph () in
  let a = Glushkov.build (fig1_expr g) in
  (* positions: [i,α,_], [_,β,_], [_,α,j], {(j,α,i)}, [_,α,k] *)
  Alcotest.(check int) "positions" 5 a.Glushkov.n_positions;
  Alcotest.(check bool) "not nullable" false a.Glushkov.nullable;
  Alcotest.(check (list int)) "first = the anchored α-selector" [ 1 ]
    a.Glushkov.first

let test_glushkov_nullable_star () =
  let a = Glushkov.build (Expr.star (Expr.sel Selector.universe)) in
  Alcotest.(check bool) "nullable" true a.Glushkov.nullable;
  Alcotest.(check bool) "accepts ε" true (Glushkov.accepts a Path.empty)

let test_glushkov_accepts_single_edges () =
  let g = H.paper_graph () in
  let a = Glushkov.build (Expr.sel (Selector.label1 (H.l g "beta"))) in
  Alcotest.(check bool) "β edge accepted" true
    (Glushkov.accepts a (Path.of_edge (H.e g "j" "beta" "k")));
  Alcotest.(check bool) "α edge rejected" false
    (Glushkov.accepts a (Path.of_edge (H.e g "i" "alpha" "j")));
  Alcotest.(check bool) "ε rejected" false (Glushkov.accepts a Path.empty)

let test_glushkov_join_requires_adjacency () =
  let g = H.paper_graph () in
  let e1 = H.e g "i" "alpha" "j" and e2 = H.e g "i" "beta" "k" in
  let r = Expr.join (Expr.edge e1) (Expr.edge e2) in
  let a = Glushkov.build r in
  Alcotest.(check bool) "disjoint pair rejected under join" false
    (Glushkov.accepts a (Path.of_edges [ e1; e2 ]));
  let rp = Expr.product (Expr.edge e1) (Expr.edge e2) in
  Alcotest.(check bool) "accepted under product" true
    (Glushkov.accepts (Glushkov.build rp) (Path.of_edges [ e1; e2 ]))

let test_glushkov_product_then_join () =
  (* (A ×∘ B) ./∘ C with B nullable: boundary between A and C must still be
     free (the LCA is the product). *)
  let g = H.paper_graph () in
  let e1 = H.e g "i" "alpha" "j" and e2 = H.e g "i" "beta" "k" in
  let r =
    Expr.join
      (Expr.product (Expr.edge e1) (Expr.opt (Expr.edge e2)))
      (Expr.sel Selector.universe)
  in
  let a = Glushkov.build r in
  (* e1 then (skip e2) then any edge: join boundary now applies between e1
     and the universe edge because the product's right side is empty. *)
  let e_jk = H.e g "j" "beta" "k" in
  Alcotest.(check bool) "joint continuation ok" true
    (Glushkov.accepts a (Path.of_edges [ e1; e_jk ]));
  Alcotest.(check bool) "disjoint continuation rejected" false
    (Glushkov.accepts a (Path.of_edges [ e1; e2 ]))

(* --- Recognizer strategies ----------------------------------------------- *)

let test_fig1_recognizer_positive_negative () =
  let g = H.paper_graph () in
  let r = fig1_expr g in
  let accept = Recognizer.cubic r in
  let e = H.e g in
  (* i -α-> j, j -β-> k? no: must end with α arriving at j (then (j,α,i)) or k *)
  Alcotest.(check bool) "i α j · j β k · k α j · (j,α,i)" true
    (accept
       (Path.of_edges
          [ e "i" "alpha" "j"; e "j" "beta" "k"; e "k" "alpha" "j"; e "j" "alpha" "i" ]));
  Alcotest.(check bool) "i α k direct: needs α-arrival at k after first α" false
    (accept (Path.of_edge (e "i" "alpha" "k")));
  Alcotest.(check bool) "two α hops to k" true
    (accept (Path.of_edges [ e "i" "alpha" "j"; e "j" "alpha" "i" ]) = false);
  Alcotest.(check bool) "i α j then j α i: label ok? second must arrive at j or k"
    false
    (accept (Path.of_edges [ e "i" "alpha" "j"; e "j" "alpha" "i" ]));
  (* β-loop in the middle *)
  Alcotest.(check bool) "with β loop" true
    (accept
       (Path.of_edges
          [ e "i" "alpha" "j"; e "j" "beta" "j"; e "j" "beta" "i"; e "i" "alpha" "k" ]))

let strategies_agree g r path =
  let expected = Recognizer.cubic r path in
  List.for_all
    (fun (_, strategy) ->
      Recognizer.make ~strategy ~graph:g r path = expected)
    Recognizer.strategies

let qcheck_strategies_agree_on_walks =
  H.qtest ~count:150 "all strategies agree (walks)" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      let p = H.random_walk rng g 4 in
      strategies_agree g r p)

let qcheck_strategies_agree_on_random_paths =
  H.qtest ~count:150 "all strategies agree (random, possibly disjoint)"
    H.with_graph_gen H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      let p = H.random_path rng g 4 in
      strategies_agree g r p)

let qcheck_recognizer_matches_denotation =
  H.qtest ~count:100 "accepts p ⟺ p ∈ denote" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      let p = H.random_path rng g 3 in
      let denoted = Expr.denote g ~max_length:3 r in
      Recognizer.cubic r p = Path_set.mem p denoted)

let test_recognizer_epsilon () =
  let r_null = Expr.opt (Expr.sel Selector.universe) in
  let r_strict = Expr.sel Selector.universe in
  List.iter
    (fun (name, strategy) ->
      let g = H.paper_graph () in
      let accepts = Recognizer.make ~strategy ~graph:g r_null in
      Alcotest.(check bool) (name ^ " nullable accepts ε") true (accepts Path.empty);
      let accepts = Recognizer.make ~strategy ~graph:g r_strict in
      Alcotest.(check bool) (name ^ " strict rejects ε") false (accepts Path.empty))
    Recognizer.strategies

let test_recognizer_empty_expr () =
  let g = H.paper_graph () in
  List.iter
    (fun (name, strategy) ->
      let accepts = Recognizer.make ~strategy ~graph:g Expr.empty in
      Alcotest.(check bool) (name ^ " ∅ rejects ε") false (accepts Path.empty);
      Alcotest.(check bool) (name ^ " ∅ rejects edge") false
        (accepts (Path.of_edge (H.e g "i" "alpha" "j"))))
    Recognizer.strategies

(* --- DFA ------------------------------------------------------------------ *)

let test_dfa_minimize_not_larger () =
  let g = H.paper_graph () in
  let d = Dfa.create g (fig1_expr g) in
  let m = Dfa.minimize d in
  Alcotest.(check bool) "minimize shrinks or equals" true
    (Dfa.n_states m <= Dfa.n_states d);
  Alcotest.(check bool) "some letters" true (Dfa.n_letters d > 0)

let qcheck_dfa_equals_nfa =
  H.qtest ~count:100 "dfa ≡ nfa on graph paths" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      let d = Dfa.create g r in
      let a = Glushkov.build r in
      let p = H.random_path rng g 4 in
      Dfa.accepts d p = Glushkov.accepts a p)

let qcheck_min_dfa_equals_dfa =
  H.qtest ~count:100 "minimized dfa ≡ dfa" H.with_graph_gen H.print_with_graph
    (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      let d = Dfa.create g r in
      let m = Dfa.minimize d in
      let p = H.random_path rng g 4 in
      Dfa.accepts d p = Dfa.accepts m p)

let test_lazy_dfa_caches () =
  let g = H.paper_graph () in
  let d = Subset.make (fig1_expr g) in
  let e = H.e g in
  let p =
    Path.of_edges [ e "i" "alpha" "j"; e "j" "beta" "i"; e "i" "alpha" "k" ]
  in
  Alcotest.(check bool) "accepts" true (Subset.accepts d p);
  let states_after_one = Subset.n_cached_states d in
  Alcotest.(check bool) "cached something" true (states_after_one > 0);
  Alcotest.(check bool) "accepts again" true (Subset.accepts d p);
  Alcotest.(check int) "no new states on repeat" states_after_one
    (Subset.n_cached_states d)

(* --- Generators ------------------------------------------------------------ *)

let reference g r ~max_length = Expr.denote g ~max_length r

let test_fig1_generator_agreement () =
  let rng = Prng.create 99 in
  let g = Generate.fig1 ~rng ~n_noise_vertices:4 ~n_noise_edges:8 in
  let r = fig1_expr g in
  let expected = reference g r ~max_length:5 in
  Alcotest.check H.path_set "product BFS = denotation" expected
    (Generator.generate g r ~max_length:5);
  Alcotest.check H.path_set "stack machine = denotation" expected
    (Stack_machine.run g r ~max_length:5);
  Alcotest.(check bool) "non-trivial (skeleton guarantees witnesses)" true
    (Path_set.cardinal expected >= 2)

let qcheck_generator_equals_denotation =
  H.qtest ~count:80 "product BFS = denotation" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      Path_set.equal
        (Generator.generate g r ~max_length:3)
        (reference g r ~max_length:3))

let qcheck_stack_machine_equals_denotation =
  H.qtest ~count:80 "stack machine = denotation" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      Path_set.equal
        (Stack_machine.run g r ~max_length:3)
        (reference g r ~max_length:3))

let qcheck_generated_accepted_by_recognizer =
  H.qtest ~count:60 "generated paths are recognised" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      let accept = Recognizer.cubic r in
      Path_set.fold
        (fun p acc -> acc && accept p)
        (Generator.generate g r ~max_length:3)
        true)

let test_generator_max_paths () =
  let g = Generate.complete ~n:4 ~n_labels:2 in
  let r = Expr.sel Selector.universe in
  let s = Generator.generate ~max_paths:5 g r ~max_length:1 in
  Alcotest.(check int) "limited" 5 (Path_set.cardinal s)

let test_generator_exists_count () =
  let g = H.paper_graph () in
  let beta2 = Expr.repeat (Expr.sel (Selector.label1 (H.l g "beta"))) 2 in
  Alcotest.(check bool) "exists ββ" true (Generator.exists g beta2 ~max_length:2);
  (* bb joint pairs: (j,b,k)? k has no b out. (j,b,j)(j,b,.) 3, (j,b,i)(i,b,k) 1,
     (i,b,k)? k no b out. total 4 *)
  Alcotest.(check int) "count ββ" 4 (Generator.count g beta2 ~max_length:2)

let test_stack_machine_trace () =
  let g = H.paper_graph () in
  let r =
    Expr.join
      (Expr.sel (Selector.label1 (H.l g "alpha")))
      (Expr.sel (Selector.label1 (H.l g "beta")))
  in
  let depths = ref [] in
  let trace entry = depths := entry.Stack_machine.depth :: !depths in
  let result = Stack_machine.run ~trace g r ~max_length:2 in
  Alcotest.(check bool) "some paths" true (not (Path_set.is_empty result));
  Alcotest.(check bool) "trace observed all depths" true
    (List.mem 0 !depths && List.mem 1 !depths && List.mem 2 !depths)

let test_generator_epsilon_only () =
  let g = H.paper_graph () in
  Alcotest.check H.path_set "ε expression" Path_set.epsilon
    (Generator.generate g Expr.epsilon ~max_length:3);
  Alcotest.check H.path_set "∅ expression" Path_set.empty
    (Generator.generate g Expr.empty ~max_length:3);
  Alcotest.check H.path_set "stack machine ε" Path_set.epsilon
    (Stack_machine.run g Expr.epsilon ~max_length:3)

let test_generator_to_seq_lazy () =
  let g = Generate.complete ~n:5 ~n_labels:2 in
  let a = Glushkov.build (Expr.plus (Expr.sel Selector.universe)) in
  (* taking 3 elements of the stream must not enumerate everything *)
  let seq = Generator.to_seq g a ~max_length:4 in
  let taken = List.of_seq (Seq.take 3 seq) in
  Alcotest.(check int) "took 3" 3 (List.length taken)

(* --- Counting (DP) ----------------------------------------------------------- *)

let qcheck_counting_equals_denotation_cardinal =
  H.qtest ~count:80 "Counting.count = |denote|" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      Counting.count g r ~max_length:3
      = Path_set.cardinal (Expr.denote g ~max_length:3 r))

let test_counting_by_length_ring () =
  let g = Generate.ring ~n:4 ~n_labels:1 in
  let r = Expr.star (Expr.sel Selector.universe) in
  let counts = Counting.count_by_length g r ~max_length:5 in
  (* ring of 4: one joint walk per start per length; ε counts once *)
  Alcotest.(check (array int)) "per-length counts" [| 1; 4; 4; 4; 4; 4 |] counts

let test_counting_scales_past_enumeration () =
  (* complete graph: |denote| explodes; counting must stay cheap and exact. *)
  let g = Generate.complete ~n:6 ~n_labels:2 in
  let r = Expr.star (Expr.sel Selector.universe) in
  let counts = Counting.count_by_length g r ~max_length:4 in
  (* length-k joint walks: (n(n-1)k_labels) * ((n-1)*k_labels)^(k-1) =
     60 * 10^(k-1) *)
  Alcotest.(check int) "len 1" 60 counts.(1);
  Alcotest.(check int) "len 2" 600 counts.(2);
  Alcotest.(check int) "len 3" 6000 counts.(3);
  Alcotest.(check int) "len 4" 60000 counts.(4)

let test_counting_with_product_expr () =
  let g = H.paper_graph () in
  let u = Expr.sel Selector.universe in
  let r = Expr.product u u in
  Alcotest.(check int) "product counts all pairs" (7 * 7)
    (Counting.count g r ~max_length:2 - 0);
  Alcotest.(check int) "matches denotation"
    (Path_set.cardinal (Expr.denote g ~max_length:2 r))
    (Counting.count g r ~max_length:2)

(* --- Simple-path generation (ref [8]) ------------------------------------------ *)

let qcheck_simple_generation_equals_filter =
  H.qtest ~count:80 "generate ~simple = filter is_simple" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      Path_set.equal
        (Generator.generate ~simple:true g r ~max_length:3)
        (Path_set.restrict_simple (Generator.generate g r ~max_length:3)))

let test_simple_generation_complete_graph () =
  let g = Generate.complete ~n:4 ~n_labels:1 in
  let r = Expr.repeat (Expr.sel Selector.universe) 2 in
  (* simple 2-paths in K4: 4·3·2 ordered vertex triples *)
  Alcotest.(check int) "24 simple 2-paths" 24
    (Path_set.cardinal (Generator.generate ~simple:true g r ~max_length:2));
  (* unrestricted: 4·3·3 walks *)
  Alcotest.(check int) "36 walks" 36
    (Path_set.cardinal (Generator.generate g r ~max_length:2))

let test_simple_generation_terminates_on_cycle () =
  let g = Generate.ring ~n:5 ~n_labels:1 in
  let r = Expr.star (Expr.sel Selector.universe) in
  (* huge bound is fine: simple paths self-limit at n-1 hops *)
  let s = Generator.generate ~simple:true g r ~max_length:50 in
  (* ε + paths of length 1..4 from each of 5 starts *)
  Alcotest.(check int) "1 + 5·4" 21 (Path_set.cardinal s)

(* --- Equivalence (bound-free) -------------------------------------------------- *)

let test_equivalence_footnote8_unbounded () =
  let g = H.paper_graph () in
  let r = Expr.sel (Selector.label1 (H.l g "beta")) in
  (* the footnote-8 identities, with no length bound anywhere *)
  Alcotest.(check bool) "R+ = R.R*" true
    (Dfa.equivalent g (Expr.plus r) (Expr.join r (Expr.star r)));
  Alcotest.(check bool) "R? = R|eps" true
    (Dfa.equivalent g (Expr.opt r) (Expr.union r Expr.epsilon));
  Alcotest.(check bool) "R** = R*" true
    (Dfa.equivalent g (Expr.star (Expr.star r)) (Expr.star r));
  Alcotest.(check bool) "R*.R* = R*" true
    (Dfa.equivalent g (Expr.join (Expr.star r) (Expr.star r)) (Expr.star r))

let test_equivalence_distinguishes () =
  let g = H.paper_graph () in
  let a = Expr.sel (Selector.label1 (H.l g "alpha")) in
  let b = Expr.sel (Selector.label1 (H.l g "beta")) in
  Alcotest.(check bool) "a ≠ b" false (Dfa.equivalent g a b);
  Alcotest.(check bool) "a ≠ a.a" false (Dfa.equivalent g a (Expr.join a a));
  Alcotest.(check bool) "a* ≠ a+" false (Dfa.equivalent g (Expr.star a) (Expr.plus a))

let test_inclusion_identities () =
  let g = H.paper_graph () in
  let a = Expr.sel (Selector.label1 (H.l g "alpha")) in
  Alcotest.(check bool) "R ⊆ R*" true (Dfa.included g a (Expr.star a));
  Alcotest.(check bool) "R+ ⊆ R*" true
    (Dfa.included g (Expr.plus a) (Expr.star a));
  Alcotest.(check bool) "R* ⊄ R+" false
    (Dfa.included g (Expr.star a) (Expr.plus a));
  Alcotest.(check bool) "R ⊆ R|Q" true
    (Dfa.included g a (Expr.union a (Expr.sel (Selector.label1 (H.l g "beta")))));
  Alcotest.(check bool) "∅ ⊆ anything" true (Dfa.included g Expr.empty a)

let qcheck_inclusion_consistent_with_equivalence =
  H.qtest ~count:60 "equivalent = mutual inclusion" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r1 = H.random_expr rng g in
      let r2 = H.random_expr rng g in
      Dfa.equivalent g r1 r2
      = (Dfa.included g r1 r2 && Dfa.included g r2 r1))

let qcheck_inclusion_implies_denotation_subset =
  H.qtest ~count:60 "included ⟹ denotation subset" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r1 = H.random_expr rng g in
      let r2 = H.random_expr rng g in
      (not (Dfa.included g r1 r2))
      || Path_set.subset (Expr.denote g ~max_length:4 r1)
           (Expr.denote g ~max_length:4 r2))

let qcheck_simplify_equivalent_unbounded =
  H.qtest ~count:80 "optimiser rewrites are bound-free equivalences"
    H.with_graph_gen H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      let r', _ = Mrpa_engine.Optimizer.simplify r in
      Dfa.equivalent g r r')

let qcheck_equivalence_implies_equal_denotation =
  H.qtest ~count:80 "equivalent ⟹ equal denotations" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r1 = H.random_expr rng g in
      let r2 = H.random_expr rng g in
      (not (Dfa.equivalent g r1 r2))
      || Path_set.equal (Expr.denote g ~max_length:4 r1)
           (Expr.denote g ~max_length:4 r2))

(* --- Viz ------------------------------------------------------------------------ *)

let test_viz_fig1_dot () =
  let g = H.paper_graph () in
  let dot = Viz.expr_to_dot ~name:"fig1" ~graph:g (fig1_expr g) in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "digraph header" true (contains "digraph \"fig1\"" dot);
  Alcotest.(check bool) "start point" true (contains "start -> q0" dot);
  (* Figure 1's transition labels, with names resolved *)
  Alcotest.(check bool) "anchored alpha label" true (contains "[i,alpha,_]" dot);
  Alcotest.(check bool) "explicit edge set" true (contains "{(j,alpha,i)}" dot);
  (* the two arrival states are accepting: doublecircle appears *)
  Alcotest.(check bool) "accepting states" true (contains "doublecircle" dot);
  (* pure-join expression: no dashed (free) transitions *)
  Alcotest.(check bool) "no dashed edges" false (contains "dashed" dot)

let test_viz_product_dashed () =
  let u = Expr.sel Selector.universe in
  let dot = Viz.expr_to_dot (Expr.join (Expr.product u u) u) in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "product boundary dashed" true (contains "dashed" dot)

(* --- Sampler ------------------------------------------------------------------ *)

let qcheck_sampler_population_equals_count =
  H.qtest ~count:60 "Sampler.population = Counting.count" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      Sampler.population (Sampler.prepare g r ~max_length:3)
      = Counting.count g r ~max_length:3)

let qcheck_sampler_draws_denoted_paths =
  H.qtest ~count:60 "samples lie in the denotation" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let r = H.random_expr rng g in
      let denoted = Expr.denote g ~max_length:3 r in
      let samples = Sampler.sample_expr ~rng g r ~max_length:3 10 in
      List.for_all (fun p -> Path_set.mem p denoted) samples)

let test_sampler_empty_population () =
  let g = H.paper_graph () in
  let s = Sampler.prepare g Expr.empty ~max_length:3 in
  Alcotest.(check int) "population 0" 0 (Sampler.population s);
  Alcotest.(check (option H.path)) "draw none" None
    (Sampler.draw s (Prng.create 1));
  Alcotest.(check (list H.path)) "sample empty" []
    (Sampler.sample s (Prng.create 1) 5)

let test_sampler_uniformity () =
  (* ring of 3, paths of length exactly 2: population 3; frequencies of
     3000 draws should be near-uniform. *)
  let g = Generate.ring ~n:3 ~n_labels:1 in
  let r = Expr.repeat (Expr.sel Selector.universe) 2 in
  let s = Sampler.prepare g r ~max_length:2 in
  Alcotest.(check int) "population" 3 (Sampler.population s);
  let rng = Prng.create 77 in
  let counts = Path.Tbl.create 8 in
  for _ = 1 to 3000 do
    match Sampler.draw s rng with
    | None -> Alcotest.fail "unexpected empty draw"
    | Some p ->
      Path.Tbl.replace counts p
        (1 + Option.value ~default:0 (Path.Tbl.find_opt counts p))
  done;
  Alcotest.(check int) "all three paths seen" 3 (Path.Tbl.length counts);
  Path.Tbl.iter
    (fun _ c ->
      Alcotest.(check bool) "frequency near 1000" true (c > 800 && c < 1200))
    counts

let test_sampler_mixed_lengths () =
  (* E | E.E on the paper graph: lengths 1 and 2 both drawable *)
  let g = H.paper_graph () in
  let u = Expr.sel Selector.universe in
  let r = Expr.union u (Expr.join u u) in
  let s = Sampler.prepare g r ~max_length:2 in
  let rng = Prng.create 5 in
  let lengths =
    List.sort_uniq Int.compare
      (List.map Path.length (Sampler.sample s rng 200))
  in
  Alcotest.(check (list int)) "both lengths drawn" [ 1; 2 ] lengths

let () =
  Alcotest.run "mrpa_automata"
    [
      ( "glushkov",
        [
          Alcotest.test_case "fig1 counts" `Quick test_glushkov_counts;
          Alcotest.test_case "nullable star" `Quick test_glushkov_nullable_star;
          Alcotest.test_case "single edges" `Quick test_glushkov_accepts_single_edges;
          Alcotest.test_case "join adjacency" `Quick
            test_glushkov_join_requires_adjacency;
          Alcotest.test_case "product/join boundary" `Quick
            test_glushkov_product_then_join;
        ] );
      ( "recognizer",
        [
          Alcotest.test_case "fig1 cases" `Quick test_fig1_recognizer_positive_negative;
          Alcotest.test_case "epsilon" `Quick test_recognizer_epsilon;
          Alcotest.test_case "empty expr" `Quick test_recognizer_empty_expr;
          qcheck_strategies_agree_on_walks;
          qcheck_strategies_agree_on_random_paths;
          qcheck_recognizer_matches_denotation;
        ] );
      ( "dfa",
        [
          Alcotest.test_case "minimize" `Quick test_dfa_minimize_not_larger;
          Alcotest.test_case "lazy cache" `Quick test_lazy_dfa_caches;
          qcheck_dfa_equals_nfa;
          qcheck_min_dfa_equals_dfa;
        ] );
      ( "generator",
        [
          Alcotest.test_case "fig1 agreement" `Quick test_fig1_generator_agreement;
          Alcotest.test_case "max_paths" `Quick test_generator_max_paths;
          Alcotest.test_case "exists/count" `Quick test_generator_exists_count;
          Alcotest.test_case "stack trace" `Quick test_stack_machine_trace;
          Alcotest.test_case "epsilon/empty" `Quick test_generator_epsilon_only;
          Alcotest.test_case "lazy stream" `Quick test_generator_to_seq_lazy;
          qcheck_generator_equals_denotation;
          qcheck_stack_machine_equals_denotation;
          qcheck_generated_accepted_by_recognizer;
        ] );
      ( "counting",
        [
          Alcotest.test_case "ring by length" `Quick test_counting_by_length_ring;
          Alcotest.test_case "scales" `Quick test_counting_scales_past_enumeration;
          Alcotest.test_case "with product" `Quick test_counting_with_product_expr;
          qcheck_counting_equals_denotation_cardinal;
        ] );
      ( "simple",
        [
          Alcotest.test_case "complete graph" `Quick
            test_simple_generation_complete_graph;
          Alcotest.test_case "terminates on cycle" `Quick
            test_simple_generation_terminates_on_cycle;
          qcheck_simple_generation_equals_filter;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "footnote 8 unbounded" `Quick
            test_equivalence_footnote8_unbounded;
          Alcotest.test_case "distinguishes" `Quick test_equivalence_distinguishes;
          Alcotest.test_case "inclusion identities" `Quick test_inclusion_identities;
          qcheck_inclusion_consistent_with_equivalence;
          qcheck_inclusion_implies_denotation_subset;
          qcheck_simplify_equivalent_unbounded;
          qcheck_equivalence_implies_equal_denotation;
        ] );
      ( "viz",
        [
          Alcotest.test_case "fig1 dot" `Quick test_viz_fig1_dot;
          Alcotest.test_case "product dashed" `Quick test_viz_product_dashed;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "empty population" `Quick test_sampler_empty_population;
          Alcotest.test_case "uniformity" `Quick test_sampler_uniformity;
          Alcotest.test_case "mixed lengths" `Quick test_sampler_mixed_lengths;
          qcheck_sampler_population_equals_count;
          qcheck_sampler_draws_denoted_paths;
        ] );
    ]
