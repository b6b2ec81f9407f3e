open Mrpa_graph
module H = Helpers

(* --- Prng ------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  for _ = 1 to 100 do
    let f = Prng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (f >= 0.0 && f < 2.5)
  done

let test_prng_int_hits_all_residues () =
  let rng = Prng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Prng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all residues reached" true (Array.for_all Fun.id seen)

let test_prng_invalid () =
  let rng = Prng.create 0 in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0));
  Alcotest.check_raises "range" (Invalid_argument "Prng.int_in_range: lo > hi")
    (fun () -> ignore (Prng.int_in_range rng ~lo:3 ~hi:2))

let test_prng_shuffle_is_permutation () =
  let rng = Prng.create 9 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_split_independent () =
  let parent = Prng.create 5 in
  let child = Prng.split parent in
  let c1 = Prng.next_int64 child in
  let p1 = Prng.next_int64 parent in
  Alcotest.(check bool) "streams differ" true (c1 <> p1)

let test_prng_geometric () =
  let rng = Prng.create 3 in
  for _ = 1 to 200 do
    Alcotest.(check bool) "non-negative" true (Prng.geometric rng 0.5 >= 0)
  done;
  Alcotest.(check int) "p=1 is 0" 0 (Prng.geometric rng 1.0)

let test_prng_bernoulli_extremes () =
  let rng = Prng.create 13 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 never" false (Prng.bernoulli rng 0.0)
  done;
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always" true (Prng.bernoulli rng 1.0)
  done

(* --- Interner --------------------------------------------------------- *)

let test_interner_basic () =
  let t = Interner.create () in
  let a = Interner.intern t "alpha" in
  let b = Interner.intern t "beta" in
  Alcotest.(check int) "first id" 0 a;
  Alcotest.(check int) "second id" 1 b;
  Alcotest.(check int) "idempotent" a (Interner.intern t "alpha");
  Alcotest.(check string) "name" "alpha" (Interner.name t a);
  Alcotest.(check (option int)) "find" (Some 1) (Interner.find t "beta");
  Alcotest.(check (option int)) "find missing" None (Interner.find t "gamma");
  Alcotest.(check int) "cardinal" 2 (Interner.cardinal t)

let test_interner_growth () =
  let t = Interner.create ~capacity:2 () in
  for i = 0 to 99 do
    Alcotest.(check int) "sequential ids" i (Interner.intern t (string_of_int i))
  done;
  Alcotest.(check int) "cardinal" 100 (Interner.cardinal t);
  Alcotest.(check string) "lookup survives growth" "57" (Interner.name t 57)

let test_interner_copy_independent () =
  let t = Interner.create () in
  ignore (Interner.intern t "x");
  let c = Interner.copy t in
  ignore (Interner.intern c "y");
  Alcotest.(check int) "copy grew" 2 (Interner.cardinal c);
  Alcotest.(check int) "original untouched" 1 (Interner.cardinal t)

let test_interner_name_unknown () =
  let t = Interner.create () in
  Alcotest.check_raises "unknown id" (Invalid_argument "Interner.name: unknown id")
    (fun () -> ignore (Interner.name t 3));
  Alcotest.(check (option string)) "name_opt" None (Interner.name_opt t 3)

let test_interner_to_list_order () =
  let t = Interner.create () in
  List.iter (fun s -> ignore (Interner.intern t s)) [ "c"; "a"; "b" ];
  Alcotest.(check (list (pair int string)))
    "insertion order"
    [ (0, "c"); (1, "a"); (2, "b") ]
    (Interner.to_list t)

(* --- Edge ------------------------------------------------------------- *)

let test_edge_projections () =
  (* γ⁻, γ⁺ and ω on a concrete edge, as in §II. *)
  let e = Edge.v 1 7 2 in
  Alcotest.(check int) "tail" 1 (Edge.tail e);
  Alcotest.(check int) "label" 7 (Edge.label e);
  Alcotest.(check int) "head" 2 (Edge.head e);
  Alcotest.(check bool) "loop" false (Edge.is_loop e);
  Alcotest.(check bool) "loop true" true (Edge.is_loop (Edge.v 3 0 3))

let test_edge_adjacent () =
  Alcotest.(check bool) "adjacent" true (Edge.adjacent (Edge.v 1 0 2) (Edge.v 2 1 3));
  Alcotest.(check bool) "not adjacent" false
    (Edge.adjacent (Edge.v 1 0 2) (Edge.v 3 1 2))

let test_edge_reverse () =
  let e = Edge.v 1 5 2 in
  Alcotest.check H.edge "reverse" (Edge.v 2 5 1) (Edge.reverse e);
  Alcotest.check H.edge "involution" e (Edge.reverse (Edge.reverse e))

let test_edge_order_total () =
  let es = [ Edge.v 0 0 0; Edge.v 0 0 1; Edge.v 0 1 0; Edge.v 1 0 0 ] in
  let sorted = List.sort Edge.compare es in
  Alcotest.(check (list H.edge)) "lexicographic by tail,label,head" es sorted

(* --- Path ------------------------------------------------------------- *)

let path_ij = Edge.v 0 0 1 (* (i,α,j) with i=0,j=1,α=0 *)
let path_jk = Edge.v 1 1 2 (* (j,β,k) *)

let test_path_empty () =
  Alcotest.(check int) "length ε" 0 (Path.length Path.empty);
  Alcotest.(check bool) "is_empty" true (Path.is_empty Path.empty);
  Alcotest.(check (option int)) "tail" None (Path.tail Path.empty);
  Alcotest.(check (option int)) "head" None (Path.head Path.empty);
  Alcotest.(check bool) "ε joint" true (Path.is_joint Path.empty)

let test_path_singleton () =
  let p = Path.of_edge path_ij in
  Alcotest.(check int) "length" 1 (Path.length p);
  Alcotest.check H.edge "σ(p,1)" path_ij (Path.nth p 1);
  Alcotest.(check (option int)) "γ⁻" (Some 0) (Path.tail p);
  Alcotest.(check (option int)) "γ⁺" (Some 1) (Path.head p);
  Alcotest.(check bool) "joint" true (Path.is_joint p)

let test_path_concat_paper_example () =
  (* §II: concatenating (i,α,j) and (j,β,k) gives (i,α,j,j,β,k). *)
  let p = Path.concat (Path.of_edge path_ij) (Path.of_edge path_jk) in
  Alcotest.(check int) "length 2" 2 (Path.length p);
  Alcotest.check H.edge "σ(a,1)" path_ij (Path.nth p 1);
  Alcotest.check H.edge "σ(a,2)" path_jk (Path.nth p 2);
  Alcotest.(check (list int)) "ω′(a) = αβ" [ 0; 1 ] (Path.label_word p);
  Alcotest.(check bool) "joint" true (Path.is_joint p);
  Alcotest.(check (list int)) "itinerary" [ 0; 1; 2 ] (Path.vertices p)

let test_path_nth_bounds () =
  let p = Path.of_edge path_ij in
  Alcotest.check_raises "σ(p,0)"
    (Invalid_argument "Path.nth: index out of [1, length]") (fun () ->
      ignore (Path.nth p 0));
  Alcotest.check_raises "σ(p,2)"
    (Invalid_argument "Path.nth: index out of [1, length]") (fun () ->
      ignore (Path.nth p 2));
  Alcotest.(check (option H.edge)) "nth_opt ok" (Some path_ij) (Path.nth_opt p 1);
  Alcotest.(check (option H.edge)) "nth_opt out" None (Path.nth_opt p 5)

let test_path_disjoint_detected () =
  let p = Path.concat (Path.of_edge path_ij) (Path.of_edge (Edge.v 5 0 6)) in
  Alcotest.(check bool) "disjoint" false (Path.is_joint p);
  Alcotest.(check int) "length still 2" 2 (Path.length p)

let test_path_sub_and_visits () =
  let p = Path.of_edges [ path_ij; path_jk; Edge.v 2 0 1 ] in
  Alcotest.check H.path "sub middle" (Path.of_edge path_jk)
    (Path.sub p ~pos:2 ~len:1);
  Alcotest.check H.path "sub all" p (Path.sub p ~pos:1 ~len:3);
  Alcotest.(check bool) "visits j" true (Path.visits p 1);
  Alcotest.(check bool) "visits 9" false (Path.visits p 9)

let test_path_adjacent_epsilon () =
  (* the join side condition: ε is adjacent to everything. *)
  let p = Path.of_edge path_ij in
  Alcotest.(check bool) "ε ∘ p" true (Path.adjacent Path.empty p);
  Alcotest.(check bool) "p ∘ ε" true (Path.adjacent p Path.empty);
  Alcotest.(check bool) "p ∘ p" false (Path.adjacent p p);
  Alcotest.(check bool) "p ∘ jk" true (Path.adjacent p (Path.of_edge path_jk))

let qcheck_monoid_laws =
  H.qtest ~count:200 "path monoid laws" H.with_graph_gen H.print_with_graph
    (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let a = H.random_path rng g 4 in
      let b = H.random_path rng g 4 in
      let c = H.random_path rng g 4 in
      let open Path in
      equal (concat (concat a b) c) (concat a (concat b c))
      && equal (concat empty a) a
      && equal (concat a empty) a
      && length (concat a b) = length a + length b)

let qcheck_label_word_homomorphism =
  H.qtest ~count:200 "ω′ is a monoid homomorphism" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let a = H.random_path rng g 4 in
      let b = H.random_path rng g 4 in
      Path.label_word (Path.concat a b) = Path.label_word a @ Path.label_word b)

let qcheck_walks_are_joint =
  H.qtest ~count:200 "random walks are joint" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      Path.is_joint (H.random_walk rng g 6))

let qcheck_path_compare_total_order =
  H.qtest ~count:200 "path compare consistent with equal" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let a = H.random_path rng g 3 in
      let b = H.random_path rng g 3 in
      Path.equal a b = (Path.compare a b = 0)
      && Path.compare a b = -Path.compare b a)

(* --- Digraph ---------------------------------------------------------- *)

let test_digraph_add_and_indices () =
  let g = H.paper_graph () in
  Alcotest.(check int) "|V|" 3 (Digraph.n_vertices g);
  Alcotest.(check int) "|E|" 7 (Digraph.n_edges g);
  Alcotest.(check int) "|Ω|" 2 (Digraph.n_labels g);
  let i = H.v g "i" and j = H.v g "j" in
  Alcotest.(check int) "out i" 3 (Digraph.out_degree g i);
  Alcotest.(check int) "in j" 3 (Digraph.in_degree g j);
  let beta = H.l g "beta" in
  Alcotest.(check int) "beta edges" 4
    (List.length (Digraph.edges_with_label g beta))

let test_digraph_set_semantics () =
  let g = Digraph.create () in
  let e = Digraph.add g "a" "r" "b" in
  Alcotest.(check bool) "dup rejected" false (Digraph.add_edge g e);
  Alcotest.(check int) "|E|=1" 1 (Digraph.n_edges g)

let test_digraph_unknown_ids_rejected () =
  let g = Digraph.create () in
  ignore (Digraph.add g "a" "r" "b");
  Alcotest.check_raises "unknown tail"
    (Invalid_argument "Digraph.add_edge: unknown tail vertex") (fun () ->
      ignore (Digraph.add_edge g (Edge.v 99 0 0)))

let test_digraph_remove () =
  let g = H.paper_graph () in
  let e = H.e g "i" "alpha" "j" in
  Alcotest.(check bool) "removed" true (Digraph.remove_edge g e);
  Alcotest.(check bool) "gone" false (Digraph.mem_edge g e);
  Alcotest.(check bool) "remove again" false (Digraph.remove_edge g e);
  Alcotest.(check int) "|E|" 6 (Digraph.n_edges g);
  Alcotest.(check int) "out i shrank" 2 (Digraph.out_degree g (H.v g "i"));
  (* vertex survives edge removal *)
  Alcotest.(check bool) "vertex kept" true (Digraph.mem_vertex g (H.v g "i"))

let test_digraph_successors_filtered () =
  let g = H.paper_graph () in
  let j = H.v g "j" and beta = H.l g "beta" in
  let succ = List.sort Int.compare (Digraph.successors g ~label:beta j) in
  (* j -beta-> k, j, i *)
  Alcotest.(check (list int)) "β-successors of j"
    [ H.v g "i"; H.v g "j"; H.v g "k" ]
    (List.sort Int.compare succ);
  Alcotest.(check (list int)) "α-predecessors of j"
    [ H.v g "i"; H.v g "k" ]
    (List.sort Int.compare (Digraph.predecessors g ~label:(H.l g "alpha") j))

let test_digraph_copy_independent () =
  let g = H.paper_graph () in
  let h = Digraph.copy g in
  ignore (Digraph.add h "x" "alpha" "y");
  Alcotest.(check int) "copy grew" (Digraph.n_edges g + 1) (Digraph.n_edges h);
  Alcotest.(check int) "original intact" 3 (Digraph.n_vertices g);
  (* ids preserved by copy *)
  Alcotest.(check string) "names preserved" "i" (Digraph.vertex_name h (H.v g "i"))

(* A random graph under churn: the recipe's edges with interleaved
   removals, an isolated vertex and up to two labels that carry no edge. *)
let churned_graph (recipe, aux) =
  let source = H.graph_of_recipe recipe in
  let rng = Prng.create aux in
  let g = Digraph.create () in
  List.iter
    (fun e ->
      ignore
        (Digraph.add g
           (Digraph.vertex_name source (Edge.tail e))
           (Digraph.label_name source (Edge.label e))
           (Digraph.vertex_name source (Edge.head e)));
      if Prng.bernoulli rng 0.25 then
        ignore (Digraph.remove_edge g (Prng.pick_list rng (Digraph.edges g))))
    (Digraph.edges source);
  ignore (Digraph.vertex g "isolated");
  for i = 1 to Prng.int rng 3 do
    ignore (Digraph.label g (Printf.sprintf "edgeless%d" i))
  done;
  g

(* Everything a reader can see of a graph: edges and every index list in
   order, every count, every name and its lookup, and membership of every
   triple over V x Omega x V. *)
let observe g =
  let vs = Digraph.vertices g and ls = Digraph.labels g in
  ( ( Digraph.edges g,
      Digraph.n_vertices g,
      Digraph.n_edges g,
      Digraph.n_labels g ),
    List.map
      (fun v ->
        let name = Digraph.vertex_name g v in
        ( (name, Digraph.find_vertex g name),
          (Digraph.out_edges g v, Digraph.out_degree g v),
          (Digraph.in_edges g v, Digraph.in_degree g v) ))
      vs,
    List.map
      (fun l ->
        let name = Digraph.label_name g l in
        ( (name, Digraph.find_label g name),
          Digraph.edges_with_label g l,
          Digraph.n_edges_with_label g l ))
      ls,
    List.concat_map
      (fun tail ->
        List.concat_map
          (fun label ->
            List.map
              (fun head -> Digraph.mem_edge g (Edge.make ~tail ~label ~head))
              vs)
          ls)
      vs )

(* Add an edge between a new vertex and a new label, one between old
   names, and remove an edge. *)
let mutate g =
  ignore (Digraph.add g "fresh" "fresh_label" (Digraph.vertex_name g 0));
  ignore (Digraph.add g (Digraph.vertex_name g 0) (Digraph.label_name g 0)
            (Digraph.vertex_name g 0));
  match Digraph.edges g with
  | e :: _ -> ignore (Digraph.remove_edge g e)
  | [] -> ()

let qcheck_frozen_copy_equals_copy_then_freeze =
  H.qtest ~count:200 "frozen_copy = copy + freeze, and isolated"
    H.with_graph_gen H.print_with_graph (fun input ->
      let g = churned_graph input in
      let reference = Digraph.copy g in
      Digraph.freeze reference;
      let frozen = Digraph.frozen_copy g in
      let live = Digraph.copy g in
      let seen = observe g in
      let same = observe frozen = observe reference && observe live = seen in
      (* No bucket is shared: mutating the source leaves both copies as
         they were, and mutating the live copy leaves the source alone. *)
      mutate g;
      let seen_after = observe g in
      let isolated_from_source = observe frozen = seen && observe live = seen in
      mutate live;
      mutate live;
      let isolated_from_copy = observe g = seen_after in
      (* A copy of a frozen graph: frozen shares, live reverses. *)
      let from_frozen =
        observe (Digraph.frozen_copy frozen) = seen
        && observe (Digraph.copy frozen) = seen
        && not (Digraph.is_frozen (Digraph.copy frozen))
      in
      same && Digraph.is_frozen frozen && isolated_from_source
      && isolated_from_copy && from_frozen)

let test_digraph_edge_insertion_order () =
  let g = Digraph.create () in
  let e1 = Digraph.add g "a" "r" "b" in
  let e2 = Digraph.add g "b" "r" "c" in
  let e3 = Digraph.add g "a" "r" "c" in
  Alcotest.(check (list H.edge)) "insertion order" [ e1; e2; e3 ] (Digraph.edges g);
  Alcotest.(check (list H.edge)) "out order" [ e1; e3 ]
    (Digraph.out_edges g (H.v g "a"))

let test_digraph_materialise_reverse () =
  let g = H.paper_graph () in
  let alpha = H.l g "alpha" in
  let n_alpha = List.length (Digraph.edges_with_label g alpha) in
  let rev = Digraph.materialise_reverse g alpha in
  Alcotest.(check string) "label name" "alpha_rev" (Digraph.label_name g rev);
  Alcotest.(check int) "one reversed edge per original" n_alpha
    (List.length (Digraph.edges_with_label g rev));
  Alcotest.(check bool) "(j,alpha_rev,i) present" true
    (Digraph.mem_edge g
       (Edge.make ~tail:(H.v g "j") ~label:rev ~head:(H.v g "i")));
  (* idempotent *)
  let before = Digraph.n_edges g in
  let rev' = Digraph.materialise_reverse g alpha in
  Alcotest.(check int) "same label id" rev rev';
  Alcotest.(check int) "no new edges" before (Digraph.n_edges g)

let test_path_is_simple () =
  let e = Edge.v in
  Alcotest.(check bool) "ε simple" true (Path.is_simple Path.empty);
  Alcotest.(check bool) "edge simple" true (Path.is_simple (Path.of_edge (e 0 0 1)));
  Alcotest.(check bool) "loop not simple" false
    (Path.is_simple (Path.of_edge (e 0 0 0)));
  Alcotest.(check bool) "chain simple" true
    (Path.is_simple (Path.of_edges [ e 0 0 1; e 1 0 2 ]));
  Alcotest.(check bool) "revisit not simple" false
    (Path.is_simple (Path.of_edges [ e 0 0 1; e 1 0 0 ]));
  (* disjoint path: itinerary is tails + final head *)
  Alcotest.(check bool) "disjoint fresh vertices simple" true
    (Path.is_simple (Path.of_edges [ e 0 0 1; e 2 0 3 ]));
  Alcotest.(check bool) "disjoint tail revisit not simple" false
    (Path.is_simple (Path.of_edges [ e 0 0 1; e 0 0 3 ]))

let qcheck_is_simple_matches_definition =
  H.qtest ~count:200 "is_simple = itinerary duplicate-free" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let p = H.random_path rng g 4 in
      let vs = Path.vertices p in
      let distinct = List.sort_uniq Int.compare vs in
      Path.is_simple p = (List.length distinct = List.length vs))

(* --- Generate --------------------------------------------------------- *)

let test_generate_uniform_counts () =
  let g =
    Generate.uniform ~rng:(Prng.create 1) ~n_vertices:10 ~n_edges:30 ~n_labels:3
  in
  Alcotest.(check int) "|V|" 10 (Digraph.n_vertices g);
  Alcotest.(check int) "|E|" 30 (Digraph.n_edges g);
  Alcotest.(check bool) "|Ω| ≤ 3" true (Digraph.n_labels g <= 3)

let test_generate_uniform_deterministic () =
  let g1 =
    Generate.uniform ~rng:(Prng.create 5) ~n_vertices:8 ~n_edges:20 ~n_labels:2
  in
  let g2 =
    Generate.uniform ~rng:(Prng.create 5) ~n_vertices:8 ~n_edges:20 ~n_labels:2
  in
  Alcotest.(check (list H.edge)) "same edges" (Digraph.edges g1) (Digraph.edges g2)

let test_generate_uniform_too_many_edges () =
  Alcotest.check_raises "overfull"
    (Invalid_argument "Generate.uniform: more edges than distinct triples")
    (fun () ->
      ignore
        (Generate.uniform ~rng:(Prng.create 0) ~n_vertices:2 ~n_edges:13
           ~n_labels:3))

let test_generate_ring () =
  let g = Generate.ring ~n:6 ~n_labels:2 in
  Alcotest.(check int) "|E|" 6 (Digraph.n_edges g);
  List.iter
    (fun v ->
      Alcotest.(check int) "out=1" 1 (Digraph.out_degree g v);
      Alcotest.(check int) "in=1" 1 (Digraph.in_degree g v))
    (Digraph.vertices g)

let test_generate_lattice () =
  let g = Generate.lattice ~rows:3 ~cols:4 in
  Alcotest.(check int) "|V|" 12 (Digraph.n_vertices g);
  (* edges: right 3*(4-1) + down (3-1)*4 *)
  Alcotest.(check int) "|E|" 17 (Digraph.n_edges g)

let test_generate_star () =
  let g = Generate.star ~n_leaves:5 in
  let hub = H.v g "hub" in
  Alcotest.(check int) "hub out" 5 (Digraph.out_degree g hub);
  Alcotest.(check int) "|V|" 6 (Digraph.n_vertices g)

let test_generate_complete () =
  let g = Generate.complete ~n:4 ~n_labels:2 in
  Alcotest.(check int) "|E| = n(n-1)k" 24 (Digraph.n_edges g)

let test_generate_layered_is_dag () =
  let g =
    Generate.layered ~rng:(Prng.create 2) ~layers:4 ~width:3 ~fanout:2
      ~n_labels:2
  in
  (* all edges go from layer l to layer l+1: vertex ids are layer-major *)
  Digraph.iter_edges
    (fun e ->
      let layer v = Vertex.to_int v / 3 in
      Alcotest.(check int) "forward edge" (layer (Edge.tail e) + 1)
        (layer (Edge.head e)))
    g

let test_generate_preferential_degrees () =
  let g =
    Generate.preferential ~rng:(Prng.create 3) ~n_vertices:50 ~out_degree:2
      ~n_labels:2
  in
  Alcotest.(check int) "|V|" 50 (Digraph.n_vertices g);
  Alcotest.(check bool) "some edges" true (Digraph.n_edges g > 40)

let test_generate_social_schema () =
  let g = Generate.social ~rng:(Prng.create 4) ~n_people:30 ~n_orgs:3 ~n_projects:5 in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exists") true
        (Option.is_some (Digraph.find_label g name)))
    [ "knows"; "works_for"; "member_of"; "created"; "likes" ];
  (* every person works somewhere *)
  let works_for = H.l g "works_for" in
  Alcotest.(check int) "works_for edges" 30
    (List.length (Digraph.edges_with_label g works_for))

let test_generate_knowledge_base () =
  let g = Generate.knowledge_base ~rng:(Prng.create 6) ~n_entities:30 in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exists") true
        (Option.is_some (Digraph.find_label g name)))
    [ "acted_in"; "directed"; "influenced"; "married_to"; "born_in"; "set_in" ]

let test_generate_bipartite () =
  let g =
    Generate.bipartite ~rng:(Prng.create 8) ~left:5 ~right:7 ~n_edges:20
      ~n_labels:2
  in
  Alcotest.(check int) "|V|" 12 (Digraph.n_vertices g);
  Alcotest.(check int) "|E|" 20 (Digraph.n_edges g);
  (* all edges left -> right *)
  Digraph.iter_edges
    (fun e ->
      let tn = Digraph.vertex_name g (Edge.tail e) in
      let hn = Digraph.vertex_name g (Edge.head e) in
      Alcotest.(check bool) "left to right" true (tn.[0] = 'l' && hn.[0] = 'r'))
    g

let test_generate_tree () =
  let g = Generate.tree ~branching:3 ~depth:2 in
  (* 1 + 3 + 9 vertices, 12 edges *)
  Alcotest.(check int) "|V|" 13 (Digraph.n_vertices g);
  Alcotest.(check int) "|E|" 12 (Digraph.n_edges g);
  let root = Digraph.vertex g "n0" in
  Alcotest.(check int) "root out" 3 (Digraph.out_degree g root);
  Alcotest.(check int) "root in" 0 (Digraph.in_degree g root);
  (* every non-root vertex has exactly one parent *)
  List.iter
    (fun v ->
      if not (Vertex.equal v root) then
        Alcotest.(check int) "one parent" 1 (Digraph.in_degree g v))
    (Digraph.vertices g)

let test_generate_fig1_skeleton () =
  let g = Generate.fig1 ~rng:(Prng.create 7) ~n_noise_vertices:5 ~n_noise_edges:10 in
  List.iter
    (fun (t, l, h) ->
      Alcotest.(check bool)
        (Printf.sprintf "(%s,%s,%s) present" t l h)
        true
        (Digraph.mem_edge g (H.e g t l h)))
    [ ("i", "alpha", "j"); ("j", "alpha", "i"); ("i", "alpha", "k") ]

(* --- Stat ---------------------------------------------------------------- *)

let test_stat_degree_summaries () =
  let g = Generate.star ~n_leaves:4 in
  let od = Stat.out_degrees g in
  Alcotest.(check int) "max out (hub)" 4 od.Stat.max_degree;
  Alcotest.(check int) "min out (leaf)" 0 od.Stat.min_degree;
  Alcotest.(check (float 1e-9)) "mean out" 0.8 od.Stat.mean;
  Alcotest.(check (float 1e-9)) "median out" 0.0 od.Stat.median;
  let id = Stat.in_degrees g in
  Alcotest.(check int) "max in" 1 id.Stat.max_degree

let test_stat_density_reciprocity () =
  let g = H.paper_graph () in
  (* density = 7 / (9 * 2) *)
  Alcotest.(check (float 1e-9)) "density" (7.0 /. 18.0) (Stat.density g);
  (* mirrored same-label edges: only the loop (j,beta,j) *)
  Alcotest.(check (float 1e-9)) "reciprocity" (1.0 /. 7.0) (Stat.reciprocity g);
  let g2 = Digraph.create () in
  ignore (Digraph.add g2 "a" "r" "b");
  ignore (Digraph.add g2 "b" "r" "a");
  ignore (Digraph.add g2 "a" "r" "c");
  Alcotest.(check (float 1e-9)) "2 of 3 mirrored" (2.0 /. 3.0)
    (Stat.reciprocity g2);
  (* loops count as reciprocated *)
  let g3 = Digraph.create () in
  ignore (Digraph.add g3 "a" "r" "a");
  Alcotest.(check (float 1e-9)) "loop" 1.0 (Stat.reciprocity g3)

let test_stat_parallel_and_cooccurrence () =
  let g = H.parallel_graph () in
  (* a→b has {r0,r1}, b→c has {r0,r1,r2}, c→a has {r0}: 2 parallel pairs *)
  Alcotest.(check int) "parallel pairs" 2 (Stat.parallel_pairs g);
  let co = Stat.label_cooccurrence g in
  let r0 = H.l g "r0" and r1 = H.l g "r1" in
  let find a b = List.find_opt (fun (x, y, _) -> x = a && y = b) co in
  (match find r0 r1 with
  | Some (_, _, c) -> Alcotest.(check int) "r0&r1 on 2 pairs" 2 c
  | None -> Alcotest.fail "missing co-occurrence entry");
  match find r0 r0 with
  | Some (_, _, c) -> Alcotest.(check int) "r0 on 3 pairs" 3 c
  | None -> Alcotest.fail "missing diagonal entry"

let test_stat_histograms () =
  let g = H.paper_graph () in
  let hist = Stat.label_histogram g in
  (match hist with
  | (top, 4) :: _ ->
    Alcotest.(check string) "beta is most frequent" "beta"
      (Digraph.label_name g top)
  | _ -> Alcotest.fail "unexpected histogram head");
  let dh = Stat.degree_histogram g in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 dh in
  Alcotest.(check int) "histogram covers all vertices" 3 total

let test_stat_per_label_degrees () =
  let g = H.paper_graph () in
  let s = Stat.out_degrees_of_label g (H.l g "alpha") in
  (* α out-degrees: i:2, j:0, k:1 *)
  Alcotest.(check int) "max" 2 s.Stat.max_degree;
  Alcotest.(check (float 1e-9)) "mean" 1.0 s.Stat.mean

(* The profile written the slow, obvious way, from the edge list alone. *)
let naive_profile g =
  let edges = Digraph.edges g in
  let vs = Digraph.vertices g in
  let count p = List.length (List.filter p edges) in
  let side l endpoint =
    let degrees =
      List.filter_map
        (fun v ->
          match
            count (fun e ->
                Label.equal (Edge.label e) l && Vertex.equal (endpoint e) v)
          with
          | 0 -> None
          | d -> Some d)
        vs
    in
    let distinct = List.sort_uniq compare degrees in
    ( List.length degrees,
      List.fold_left max 0 degrees,
      List.map
        (fun d -> (d, List.length (List.filter (( = ) d) degrees)))
        distinct )
  in
  let degree endpoint =
    List.fold_left
      (fun acc v ->
        max acc (count (fun e -> Vertex.equal (endpoint e) v)))
      0 vs
  in
  {
    Stat.vertices = List.length vs;
    edges = List.length edges;
    labels = Digraph.n_labels g;
    max_out_degree = degree Edge.tail;
    max_in_degree = degree Edge.head;
    per_label =
      Array.of_list
        (List.map
           (fun l ->
             let distinct_tails, max_out, out_histogram = side l Edge.tail in
             let distinct_heads, max_in, in_histogram = side l Edge.head in
             {
               Stat.label = l;
               edges = count (fun e -> Label.equal (Edge.label e) l);
               distinct_tails;
               distinct_heads;
               max_out;
               max_in;
               out_histogram;
               in_histogram;
             })
           (Digraph.labels g));
  }

let qcheck_profile_equals_naive =
  H.qtest ~count:200 "profile = naive profile from the edge list"
    H.with_graph_gen H.print_with_graph (fun input ->
      let g = churned_graph input in
      let expected = naive_profile g in
      Stat.profile g = expected && Stat.profile (Digraph.frozen_copy g) = expected)

(* --- Io / Dot ---------------------------------------------------------- *)

let graphs_isomorphic_by_name g h =
  (* same named vertex set and named edge set *)
  let named_edges g =
    List.sort compare
      (List.map
         (fun e ->
           ( Digraph.vertex_name g (Edge.tail e),
             Digraph.label_name g (Edge.label e),
             Digraph.vertex_name g (Edge.head e) ))
         (Digraph.edges g))
  in
  let named_vertices g =
    List.sort compare (List.map (Digraph.vertex_name g) (Digraph.vertices g))
  in
  named_edges g = named_edges h && named_vertices g = named_vertices h

let test_io_roundtrip_fixture () =
  let g = H.paper_graph () in
  let h = Io.of_string (Io.to_string g) in
  Alcotest.(check bool) "roundtrip" true (graphs_isomorphic_by_name g h)

let test_io_preserves_isolated_vertices () =
  let g = Digraph.create () in
  ignore (Digraph.vertex g "lonely");
  ignore (Digraph.add g "a" "r" "b");
  let h = Io.of_string (Io.to_string g) in
  Alcotest.(check bool) "lonely kept" true
    (Option.is_some (Digraph.find_vertex h "lonely"))

let test_io_comments_and_blanks () =
  let g = Io.of_string "# comment\n\na\tr\tb\n  \nb\tr\tc\n" in
  Alcotest.(check int) "two edges" 2 (Digraph.n_edges g)

let test_io_malformed () =
  (try
     ignore (Io.of_string "a\tb\n");
     Alcotest.fail "expected Malformed"
   with
  | Io.Malformed (line, _) -> Alcotest.(check int) "line number" 1 line)

let qcheck_io_roundtrip =
  H.qtest ~count:50 "io roundtrip on random graphs" H.recipe_gen H.print_recipe
    (fun recipe ->
      let g = H.graph_of_recipe recipe in
      graphs_isomorphic_by_name g (Io.of_string (Io.to_string g)))

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let test_io_preserves_edgeless_labels () =
  let g = Digraph.create () in
  ignore (Digraph.label g "unused");
  ignore (Digraph.add g "a" "r" "b");
  let text = Io.to_string g in
  let h = Io.of_string text in
  Alcotest.(check bool) "unused label kept" true
    (Option.is_some (Digraph.find_label h "unused"));
  Alcotest.(check int) "no extra label" 2 (Digraph.n_labels h);
  Alcotest.(check bool) "written as a directive" true
    (contains "label\tunused\n" text);
  (* A graph whose labels all carry edges writes no label directive. *)
  Alcotest.(check bool) "no directive when every label is used" false
    (contains "label\t" (Io.to_string (H.paper_graph ())))

let test_graphml_output () =
  let g = H.paper_graph () in
  let xml = Graphml.to_string g in
  Alcotest.(check bool) "xml declaration" true
    (String.length xml > 5 && String.sub xml 0 5 = "<?xml");
  Alcotest.(check bool) "node with name" true
    (contains "<data key=\"labelV\">i</data>" xml);
  Alcotest.(check bool) "edge with label" true
    (contains "<data key=\"labelE\">alpha</data>" xml);
  Alcotest.(check bool) "closes" true (contains "</graphml>" xml)

let test_graphml_escaping () =
  let g = Digraph.create () in
  ignore (Digraph.add g "a<b" "r&s" "c\"d");
  let xml = Graphml.to_string g in
  Alcotest.(check bool) "lt escaped" true (contains "a&lt;b" xml);
  Alcotest.(check bool) "amp escaped" true (contains "r&amp;s" xml);
  Alcotest.(check bool) "quot escaped" true (contains "c&quot;d" xml);
  Alcotest.(check bool) "raw not present" false (contains ">a<b<" xml)

(* --- Weights -------------------------------------------------------------- *)

let test_weights_resolution_order () =
  let g = H.paper_graph () in
  let w = Weights.create ~default:2.0 () in
  let alpha = H.l g "alpha" in
  let e_ij = H.e g "i" "alpha" "j" in
  let e_ik = H.e g "i" "alpha" "k" in
  Alcotest.(check (float 1e-9)) "default" 2.0 (Weights.weight w e_ij);
  Weights.set_label w alpha 5.0;
  Alcotest.(check (float 1e-9)) "label override" 5.0 (Weights.weight w e_ij);
  Weights.set_edge w e_ij 7.5;
  Alcotest.(check (float 1e-9)) "edge override wins" 7.5 (Weights.weight w e_ij);
  Alcotest.(check (float 1e-9)) "sibling keeps label weight" 5.0
    (Weights.weight w e_ik);
  (* β edges still default *)
  Alcotest.(check (float 1e-9)) "beta default" 2.0
    (Weights.weight w (H.e g "j" "beta" "k"))

let test_weights_total () =
  let g = H.paper_graph () in
  let w = Weights.create ~default:3.0 () in
  let p = Path.of_edges [ H.e g "i" "alpha" "j"; H.e g "j" "beta" "k" ] in
  Alcotest.(check (float 1e-9)) "sum" 6.0 (Weights.total w p);
  Alcotest.(check (float 1e-9)) "epsilon" 0.0 (Weights.total w Path.empty)

let test_weights_roundtrip () =
  let g = H.paper_graph () in
  let w = Weights.create ~default:1.5 () in
  Weights.set_label w (H.l g "alpha") 4.0;
  Weights.set_edge w (H.e g "j" "beta" "i") 0.25;
  let w' = Weights.of_string g (Weights.to_string g w) in
  Alcotest.(check (float 1e-9)) "default survives" 1.5 (Weights.default w');
  Alcotest.(check (float 1e-9)) "label survives" 4.0
    (Weights.weight w' (H.e g "i" "alpha" "j"));
  Alcotest.(check (float 1e-9)) "edge survives" 0.25
    (Weights.weight w' (H.e g "j" "beta" "i"))

let test_weights_malformed () =
  let g = H.paper_graph () in
  (try
     ignore (Weights.of_string g "label\tnosuch\t2.0");
     Alcotest.fail "expected Malformed"
   with Weights.Malformed (line, _) -> Alcotest.(check int) "line" 1 line);
  try
    ignore (Weights.of_string g "nonsense");
    Alcotest.fail "expected Malformed"
  with Weights.Malformed _ -> ()

(* --- Journal -------------------------------------------------------------- *)

let with_tmp_journal f =
  let path = Filename.temp_file "mrpa_journal" ".log" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_journal_records_and_replays () =
  with_tmp_journal (fun path ->
      let g = Digraph.create () in
      let j = Journal.attach g path in
      ignore (Digraph.add g "a" "r" "b");
      ignore (Digraph.add g "b" "r" "c");
      let e_ab = H.e g "a" "r" "b" in
      ignore (Digraph.remove_edge g e_ab);
      Alcotest.(check int) "three entries" 3 (Journal.entries_written j);
      Journal.close j;
      let h = Journal.replay path in
      Alcotest.(check int) "one edge survives" 1 (Digraph.n_edges h);
      Alcotest.(check bool) "b->c present" true
        (Digraph.mem_edge h (H.e h "b" "r" "c"));
      Alcotest.(check bool) "a kept as vertex" true
        (Option.is_some (Digraph.find_vertex h "a")))

let test_journal_reopen_continues () =
  with_tmp_journal (fun path ->
      let g = Digraph.create () in
      let j = Journal.attach g path in
      ignore (Digraph.add g "a" "r" "b");
      Journal.close j;
      (* reopen: replay then continue *)
      let g2 = Digraph.create () in
      let j2 = Journal.attach g2 path in
      Alcotest.(check int) "replayed" 1 (Digraph.n_edges g2);
      ignore (Digraph.add g2 "b" "r" "c");
      Journal.sync j2;
      Journal.close j2;
      let g3 = Journal.replay path in
      Alcotest.(check int) "both edges" 2 (Digraph.n_edges g3))

let test_journal_compact () =
  with_tmp_journal (fun path ->
      let g = Digraph.create () in
      let j = Journal.attach g path in
      for i = 0 to 9 do
        ignore (Digraph.add g (Printf.sprintf "v%d" i) "r" "hub")
      done;
      (* churn: remove half *)
      for i = 0 to 4 do
        ignore
          (Digraph.remove_edge g (H.e g (Printf.sprintf "v%d" i) "r" "hub"))
      done;
      let size_before = (Unix.stat path).Unix.st_size in
      Journal.compact j;
      let size_after = (Unix.stat path).Unix.st_size in
      Alcotest.(check bool) "snapshot smaller" true (size_after < size_before);
      (* still appendable and still replayable *)
      ignore (Digraph.add g "extra" "r" "hub");
      Journal.close j;
      let h = Journal.replay path in
      Alcotest.(check int) "6 edges after compaction+append" 6 (Digraph.n_edges h);
      Alcotest.(check bool) "isolated removed-edge vertices survive" true
        (Option.is_some (Digraph.find_vertex h "v0")))

(* Compaction keeps labels that carry no edge (a [label] record each, after
   the edges); a graph whose labels all carry edges compacts as before. *)
let test_journal_compact_keeps_edgeless_labels () =
  with_tmp_journal (fun path ->
      let g = Digraph.create () in
      let j = Journal.attach g path in
      ignore (Digraph.add g "a" "r" "b");
      let e = Digraph.add g "a" "s" "b" in
      ignore (Digraph.label g "unused");
      ignore (Digraph.remove_edge g e);
      Journal.compact j;
      Journal.close j;
      let text = In_channel.with_open_bin path In_channel.input_all in
      let h = Journal.replay path in
      let names gr = List.map (Digraph.label_name gr) (Digraph.labels gr) in
      Alcotest.(check (list string)) "label universe" [ "r"; "s"; "unused" ]
        (names h);
      Alcotest.(check int) "one edge" 1 (Digraph.n_edges h);
      Alcotest.(check bool) "a label record" true
        (contains "\tlabel\tunused\n" text);
      Alcotest.(check bool) "replayed by apply_payload" true
        (Journal.apply_payload h "label\tlater" = Ok ()
        && Option.is_some (Digraph.find_label h "later")));
  with_tmp_journal (fun path ->
      let g = Digraph.create () in
      let j = Journal.attach g path in
      ignore (Digraph.add g "a" "r" "b");
      Journal.compact j;
      Journal.close j;
      Alcotest.(check bool) "no label record when every label is used" false
        (contains "\tlabel\t" (In_channel.with_open_bin path In_channel.input_all)))

let test_journal_closed_stops_recording () =
  with_tmp_journal (fun path ->
      let g = Digraph.create () in
      let j = Journal.attach g path in
      ignore (Digraph.add g "a" "r" "b");
      Journal.close j;
      ignore (Digraph.add g "b" "r" "c");
      let h = Journal.replay path in
      Alcotest.(check int) "only pre-close edge" 1 (Digraph.n_edges h))

let test_observer_deregistration () =
  let g = Digraph.create () in
  let hits_a = ref 0 and hits_b = ref 0 and removals = ref 0 in
  let obs_a = fun (_ : Edge.t) -> incr hits_a in
  let obs_b = fun (_ : Edge.t) -> incr hits_b in
  let obs_r = fun (_ : Edge.t) -> incr removals in
  Digraph.on_edge_added g obs_a;
  Digraph.on_edge_added g obs_b;
  Digraph.on_edge_removed g obs_r;
  ignore (Digraph.add g "a" "r" "b");
  Alcotest.(check int) "both added-observers fired" 2 (!hits_a + !hits_b);
  (* deregister one: only the other keeps firing *)
  Digraph.off_edge_added g obs_a;
  ignore (Digraph.add g "b" "r" "c");
  Alcotest.(check int) "a detached" 1 !hits_a;
  Alcotest.(check int) "b still attached" 2 !hits_b;
  (* deregistering an unknown closure is a no-op *)
  Digraph.off_edge_added g (fun (_ : Edge.t) -> ());
  ignore (Digraph.add g "c" "r" "d");
  Alcotest.(check int) "b unaffected by stranger removal" 3 !hits_b;
  Digraph.off_edge_removed g obs_r;
  ignore (Digraph.remove_edge g (H.e g "a" "r" "b"));
  Alcotest.(check int) "removed-observer detached" 0 !removals

let test_freeze_rejects_mutation () =
  let g = H.paper_graph () in
  let n = Digraph.n_edges g in
  Digraph.freeze g;
  Alcotest.(check bool) "is_frozen" true (Digraph.is_frozen g);
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "add rejected" true
    (raises (fun () -> Digraph.add g "x" "r" "y"));
  Alcotest.(check bool) "remove rejected" true
    (raises (fun () -> Digraph.remove_edge g (H.e g "i" "alpha" "j")));
  Alcotest.(check bool) "observer registration rejected" true
    (raises (fun () -> Digraph.on_edge_added g (fun _ -> ())));
  Alcotest.(check bool) "unknown-name interning rejected" true
    (raises (fun () -> Digraph.vertex g "brand_new"));
  (* pure reads still work *)
  Alcotest.(check int) "reads unaffected" n (Digraph.n_edges g);
  Alcotest.(check bool) "known name resolves" true
    (Digraph.mem_edge g (H.e g "i" "alpha" "j"))

let test_journal_compact_leaves_no_tmp () =
  with_tmp_journal (fun path ->
      let g = Digraph.create () in
      let j = Journal.attach g path in
      ignore (Digraph.add g "a" "r" "b");
      ignore (Digraph.remove_edge g (H.e g "a" "r" "b"));
      ignore (Digraph.add g "a" "r" "c");
      Journal.compact j;
      (* the fsync'd temporary snapshot must have been renamed away *)
      Alcotest.(check bool) "no .compact tmp file" false
        (Sys.file_exists (path ^ ".compact"));
      (* and the journal must still be recording into the compacted file *)
      ignore (Digraph.add g "c" "r" "d");
      Journal.close j;
      let h = Journal.replay path in
      Alcotest.(check int) "compacted + appended state" 2 (Digraph.n_edges h));
  (* compacting a closed journal is a usage error, not silent corruption *)
  with_tmp_journal (fun path ->
      let g = Digraph.create () in
      let j = Journal.attach g path in
      Journal.close j;
      Alcotest.(check bool) "compact after close raises" true
        (match Journal.compact j with
        | () -> false
        | exception Invalid_argument _ -> true))

let test_journal_close_detaches_observers () =
  with_tmp_journal (fun path ->
      let g = Digraph.create () in
      let j = Journal.attach g path in
      ignore (Digraph.add g "a" "r" "b");
      Journal.close j;
      (* after close the journal's observers are gone from the graph, so
         churning the graph touches neither the file nor the closed
         channel (a non-detached observer would raise on the closed
         channel or grow the file) *)
      let size_at_close = (Unix.stat path).Unix.st_size in
      for i = 0 to 99 do
        ignore (Digraph.add g (Printf.sprintf "v%d" i) "r" "hub")
      done;
      ignore (Digraph.remove_edge g (H.e g "v0" "r" "hub"));
      Alcotest.(check int) "file untouched after close"
        size_at_close
        (Unix.stat path).Unix.st_size)

let qcheck_journal_roundtrip_random_churn =
  H.qtest ~count:40 "journal replay = live graph under churn" H.with_graph_gen
    H.print_with_graph (fun (recipe, aux) ->
      with_tmp_journal (fun path ->
          let g = Digraph.create () in
          let j = Journal.attach g path in
          (* churn: build the recipe graph through the journal, with
             interleaved removals *)
          let source = H.graph_of_recipe recipe in
          let rng = Prng.create aux in
          List.iter
            (fun e ->
              ignore
                (Digraph.add g
                   (Digraph.vertex_name source (Edge.tail e))
                   (Digraph.label_name source (Edge.label e))
                   (Digraph.vertex_name source (Edge.head e)));
              if Prng.bernoulli rng 0.2 then begin
                match Digraph.edges g with
                | [] -> ()
                | es -> ignore (Digraph.remove_edge g (Prng.pick_list rng es))
              end)
            (Digraph.edges source);
          Journal.close j;
          let h = Journal.replay path in
          let edges_of gr =
            List.sort compare
              (List.map
                 (fun e ->
                   ( Digraph.vertex_name gr (Edge.tail e),
                     Digraph.label_name gr (Edge.label e),
                     Digraph.vertex_name gr (Edge.head e) ))
                 (Digraph.edges gr))
          in
          edges_of g = edges_of h))

let test_dot_output () =
  let g = H.paper_graph () in
  let dot = Dot.to_string ~name:"paper" g in
  Alcotest.(check bool) "header" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "edge line" true
    (contains "\"i\" -> \"j\" [label=\"alpha\"" dot);
  Alcotest.(check bool) "closes" true (contains "}" dot)

let () =
  Alcotest.run "mrpa_graph"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "residues" `Quick test_prng_int_hits_all_residues;
          Alcotest.test_case "invalid args" `Quick test_prng_invalid;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle_is_permutation;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "geometric" `Quick test_prng_geometric;
          Alcotest.test_case "bernoulli" `Quick test_prng_bernoulli_extremes;
        ] );
      ( "interner",
        [
          Alcotest.test_case "basic" `Quick test_interner_basic;
          Alcotest.test_case "growth" `Quick test_interner_growth;
          Alcotest.test_case "copy" `Quick test_interner_copy_independent;
          Alcotest.test_case "unknown" `Quick test_interner_name_unknown;
          Alcotest.test_case "order" `Quick test_interner_to_list_order;
        ] );
      ( "edge",
        [
          Alcotest.test_case "projections" `Quick test_edge_projections;
          Alcotest.test_case "adjacent" `Quick test_edge_adjacent;
          Alcotest.test_case "reverse" `Quick test_edge_reverse;
          Alcotest.test_case "order" `Quick test_edge_order_total;
        ] );
      ( "path",
        [
          Alcotest.test_case "empty" `Quick test_path_empty;
          Alcotest.test_case "singleton" `Quick test_path_singleton;
          Alcotest.test_case "paper concat" `Quick test_path_concat_paper_example;
          Alcotest.test_case "nth bounds" `Quick test_path_nth_bounds;
          Alcotest.test_case "disjoint" `Quick test_path_disjoint_detected;
          Alcotest.test_case "sub/visits" `Quick test_path_sub_and_visits;
          Alcotest.test_case "epsilon adjacency" `Quick test_path_adjacent_epsilon;
          Alcotest.test_case "is_simple" `Quick test_path_is_simple;
          qcheck_is_simple_matches_definition;
          qcheck_monoid_laws;
          qcheck_label_word_homomorphism;
          qcheck_walks_are_joint;
          qcheck_path_compare_total_order;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "indices" `Quick test_digraph_add_and_indices;
          Alcotest.test_case "set semantics" `Quick test_digraph_set_semantics;
          Alcotest.test_case "unknown ids" `Quick test_digraph_unknown_ids_rejected;
          Alcotest.test_case "remove" `Quick test_digraph_remove;
          Alcotest.test_case "successors" `Quick test_digraph_successors_filtered;
          Alcotest.test_case "copy" `Quick test_digraph_copy_independent;
          qcheck_frozen_copy_equals_copy_then_freeze;
          Alcotest.test_case "order" `Quick test_digraph_edge_insertion_order;
          Alcotest.test_case "materialise reverse" `Quick
            test_digraph_materialise_reverse;
          Alcotest.test_case "observer deregistration" `Quick
            test_observer_deregistration;
          Alcotest.test_case "freeze" `Quick test_freeze_rejects_mutation;
        ] );
      ( "generate",
        [
          Alcotest.test_case "uniform counts" `Quick test_generate_uniform_counts;
          Alcotest.test_case "uniform determinism" `Quick
            test_generate_uniform_deterministic;
          Alcotest.test_case "uniform overfull" `Quick
            test_generate_uniform_too_many_edges;
          Alcotest.test_case "ring" `Quick test_generate_ring;
          Alcotest.test_case "lattice" `Quick test_generate_lattice;
          Alcotest.test_case "star" `Quick test_generate_star;
          Alcotest.test_case "complete" `Quick test_generate_complete;
          Alcotest.test_case "layered dag" `Quick test_generate_layered_is_dag;
          Alcotest.test_case "preferential" `Quick
            test_generate_preferential_degrees;
          Alcotest.test_case "social schema" `Quick test_generate_social_schema;
          Alcotest.test_case "knowledge base" `Quick test_generate_knowledge_base;
          Alcotest.test_case "bipartite" `Quick test_generate_bipartite;
          Alcotest.test_case "tree" `Quick test_generate_tree;
          Alcotest.test_case "fig1 skeleton" `Quick test_generate_fig1_skeleton;
        ] );
      ( "stat",
        [
          Alcotest.test_case "degree summaries" `Quick test_stat_degree_summaries;
          Alcotest.test_case "density/reciprocity" `Quick
            test_stat_density_reciprocity;
          Alcotest.test_case "parallel/cooccurrence" `Quick
            test_stat_parallel_and_cooccurrence;
          Alcotest.test_case "histograms" `Quick test_stat_histograms;
          Alcotest.test_case "per-label degrees" `Quick test_stat_per_label_degrees;
          qcheck_profile_equals_naive;
        ] );
      ( "weights",
        [
          Alcotest.test_case "resolution order" `Quick test_weights_resolution_order;
          Alcotest.test_case "total" `Quick test_weights_total;
          Alcotest.test_case "roundtrip" `Quick test_weights_roundtrip;
          Alcotest.test_case "malformed" `Quick test_weights_malformed;
        ] );
      ( "journal",
        [
          Alcotest.test_case "record/replay" `Quick test_journal_records_and_replays;
          Alcotest.test_case "reopen" `Quick test_journal_reopen_continues;
          Alcotest.test_case "compact" `Quick test_journal_compact;
          Alcotest.test_case "compact crash-safety" `Quick
            test_journal_compact_leaves_no_tmp;
          Alcotest.test_case "compact keeps edgeless labels" `Quick
            test_journal_compact_keeps_edgeless_labels;
          Alcotest.test_case "close" `Quick test_journal_closed_stops_recording;
          Alcotest.test_case "close detaches observers" `Quick
            test_journal_close_detaches_observers;
          qcheck_journal_roundtrip_random_churn;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip_fixture;
          Alcotest.test_case "isolated vertices" `Quick
            test_io_preserves_isolated_vertices;
          Alcotest.test_case "edgeless labels" `Quick
            test_io_preserves_edgeless_labels;
          Alcotest.test_case "comments" `Quick test_io_comments_and_blanks;
          Alcotest.test_case "malformed" `Quick test_io_malformed;
          qcheck_io_roundtrip;
          Alcotest.test_case "dot" `Quick test_dot_output;
          Alcotest.test_case "graphml" `Quick test_graphml_output;
          Alcotest.test_case "graphml escaping" `Quick test_graphml_escaping;
        ] );
    ]
