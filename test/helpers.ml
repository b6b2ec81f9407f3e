(* Shared test infrastructure: Alcotest testables, deterministic fixture
   graphs, and QCheck generators for graphs, paths, selectors and
   expressions. *)

open Mrpa_graph
open Mrpa_core

(* --- Alcotest testables --------------------------------------------- *)

let edge = Alcotest.testable Edge.pp Edge.equal
let path = Alcotest.testable Path.pp Path.equal
let path_set = Alcotest.testable Path_set.pp Path_set.equal
let vertex_set =
  Alcotest.testable
    (fun fmt s ->
      Format.fprintf fmt "{%s}"
        (String.concat "," (List.map string_of_int (Vertex.Set.elements s))))
    Vertex.Set.equal

(* --- Fixture graphs -------------------------------------------------- *)

(* The concrete multi-relational graph used in the paper's §II worked
   example: edges over vertices i, j, k and labels alpha, beta. *)
let paper_graph () =
  let g = Digraph.create () in
  List.iter
    (fun (t, l, h) -> ignore (Digraph.add g t l h))
    [
      ("i", "alpha", "j");
      ("j", "beta", "k");
      ("k", "alpha", "j");
      ("j", "beta", "j");
      ("j", "beta", "i");
      ("i", "alpha", "k");
      ("i", "beta", "k");
    ];
  g

(* A graph with parallel edges under distinct labels (label ambiguity). *)
let parallel_graph () =
  let g = Digraph.create () in
  List.iter
    (fun (t, l, h) -> ignore (Digraph.add g t l h))
    [
      ("a", "r0", "b");
      ("a", "r1", "b");
      ("b", "r0", "c");
      ("b", "r1", "c");
      ("b", "r2", "c");
      ("c", "r0", "a");
    ];
  g

(* The count-contract fixture: a->b, b->a, b->c, c->a under one label k.
   Each row is a count request whose path mode or limit shapes the
   answer, with the count and verdict every front door (engine, server,
   router) must report. *)
let count_graph () =
  let g = Digraph.create () in
  List.iter
    (fun (t, h) -> ignore (Digraph.add g t "k" h))
    [ ("a", "b"); ("b", "a"); ("b", "c"); ("c", "a") ];
  g

type count_row = {
  c_query : string;
  c_max_length : int;
  c_simple : bool;
  c_limit : int option;
  c_count : int;
  c_verdict : string;
}

let count_rows =
  let row ?(max_length = 8) ?(simple = false) ?limit c_query c_count c_verdict =
    { c_query; c_max_length = max_length; c_simple = simple; c_limit = limit;
      c_count; c_verdict }
  in
  [
    row "[_,k,_]*" ~max_length:3 ~simple:true 8 "complete";
    row "[_,k,_]*" ~max_length:3 ~simple:true ~limit:2 2 "partial:limit";
    row "[_,k,_]" ~limit:0 0 "partial:limit";
    (* A limit equal to the answer still reports the limit: evaluation
       stops at it without looking further. *)
    row "[_,k,_]" ~limit:4 4 "partial:limit";
  ]

let count_row_name r =
  Printf.sprintf "%s max_length=%d%s%s" r.c_query r.c_max_length
    (if r.c_simple then " simple" else "")
    (match r.c_limit with Some n -> Printf.sprintf " limit=%d" n | None -> "")

let v g name = Digraph.vertex g name
let l g name = Digraph.label g name
let e g tn ln hn = Edge.make ~tail:(v g tn) ~label:(l g ln) ~head:(v g hn)

(* --- QCheck generators ----------------------------------------------- *)

(* Graphs are generated by seed so shrinking stays meaningful and failures
   print a reproducible recipe. *)
type graph_recipe = { seed : int; n_vertices : int; n_edges : int; n_labels : int }

let graph_of_recipe r =
  Generate.uniform ~rng:(Prng.create r.seed) ~n_vertices:r.n_vertices
    ~n_edges:r.n_edges ~n_labels:r.n_labels

let recipe_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n_vertices = int_range 2 8 in
    let* n_labels = int_range 1 3 in
    let max_edges = min 20 (n_vertices * n_vertices * n_labels) in
    let* n_edges = int_range 1 max_edges in
    return { seed; n_vertices; n_edges; n_labels })

let print_recipe r =
  Printf.sprintf "{seed=%d; n=%d; m=%d; k=%d}" r.seed r.n_vertices r.n_edges
    r.n_labels

(* Random edge of a recipe graph, identified by index. *)
let edges_array g = Array.of_list (Digraph.edges g)

(* Random (possibly disjoint) path over a graph: pick random edges. *)
let random_path rng g max_len =
  let edges = edges_array g in
  let len = Prng.int rng (max_len + 1) in
  if Array.length edges = 0 then Path.empty
  else Path.of_edges (List.init len (fun _ -> Prng.pick rng edges))

(* Random joint path: a random walk. *)
let random_walk rng g max_len =
  let edges = edges_array g in
  if Array.length edges = 0 then Path.empty
  else begin
    let start = Prng.pick rng edges in
    let target = Prng.int rng (max_len + 1) in
    let rec extend acc last n =
      if n >= target then List.rev acc
      else
        match Digraph.out_edges g (Edge.head last) with
        | [] -> List.rev acc
        | out ->
          let next = Prng.pick_list rng out in
          extend (next :: acc) next (n + 1)
    in
    if target = 0 then Path.empty else Path.of_edges (extend [ start ] start 1)
  end

(* Random selector over a graph's vertices/labels. *)
let random_selector rng g =
  let vertices = Array.of_list (Digraph.vertices g) in
  let labels = Array.of_list (Digraph.labels g) in
  let vset () =
    let n = 1 + Prng.int rng 2 in
    Vertex.Set.of_list (List.init n (fun _ -> Prng.pick rng vertices))
  in
  let lset () =
    let n = 1 + Prng.int rng (min 2 (Array.length labels)) in
    Label.Set.of_list (List.init n (fun _ -> Prng.pick rng labels))
  in
  match Prng.int rng 6 with
  | 0 -> Selector.universe
  | 1 -> Selector.src_in (vset ())
  | 2 -> Selector.dst_in (vset ())
  | 3 -> Selector.label_in (lset ())
  | 4 ->
    let edges = edges_array g in
    if Array.length edges = 0 then Selector.universe
    else Selector.edge (Prng.pick rng edges)
  | _ ->
    Selector.pattern ~src:(vset ()) ~lbl:(lset ()) ()

(* Random regular path expression of bounded size. *)
let random_expr ?(allow_product = true) rng g =
  let rec build depth =
    if depth = 0 then
      match Prng.int rng 5 with
      | 0 -> Expr.epsilon
      | _ -> Expr.sel (random_selector rng g)
    else
      match Prng.int rng (if allow_product then 6 else 5) with
      | 0 -> Expr.union (build (depth - 1)) (build (depth - 1))
      | 1 | 2 -> Expr.join (build (depth - 1)) (build (depth - 1))
      | 3 -> Expr.star (build (depth - 1))
      | 4 -> build 0
      | _ -> Expr.product (build (depth - 1)) (build (depth - 1))
  in
  build (1 + Prng.int rng 2)

(* Package: recipe + derived seed for paths/exprs. *)
let with_graph_gen =
  QCheck2.Gen.(
    let* r = recipe_gen in
    let* aux_seed = int_bound 1_000_000 in
    return (r, aux_seed))

let print_with_graph (r, aux) = Printf.sprintf "%s aux=%d" (print_recipe r) aux

let qtest ?(count = 100) name gen print f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print gen f)
