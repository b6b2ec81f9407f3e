(* Experiment harness.

   The paper has no empirical evaluation (no tables; one figure), so this
   executable regenerates the experiment suite of DESIGN.md §2/§5: EXP-F1
   reproduces Figure 1, EXP-T1..T11 measure each quantitative claim the
   paper makes in prose, and EXP-T12, T14..T16 measure the guardrails, the
   journal format, the static cost model and the server caches. Serving
   performance is measured out of process by perfbench/, not here. Run
   with no arguments to execute everything at the default scale; pass
   experiment names (fig1, micro, join-vs-product, traversals, join-order,
   recognizers, generators, counting, label-regex, optimizer, semirings,
   projection, views, label-loss, guardrails, journal, cost, zipf) to
   select, and "--full" for larger sweeps. Pass "--json FILE" to also
   write a machine-readable run summary (schema mrpa.bench/1):
   per-experiment wall time, the journal/cost/zipf rows, and engine
   execution profiles for a fixed set of representative queries. *)

open Mrpa_graph
open Mrpa_core
open Mrpa_automata
open Mrpa_analysis
open Mrpa_baseline
module Optimizer = Mrpa_engine.Optimizer
module Metrics = Mrpa_engine.Metrics

(* Wall-clock timing on CLOCK_MONOTONIC: benchmark intervals must not jump
   with NTP slews or manual clock changes, which Unix.gettimeofday does. *)
let time f =
  let t0 = Metrics.now_ns () in
  let r = f () in
  (r, Int64.to_float (Metrics.elapsed_ns ~since:t0) /. 1e9)

let ms t = Printf.sprintf "%.2f" (1000.0 *. t)

(* --- Minimal aligned-table printer ----------------------------------- *)

let print_table ~title ~header rows =
  let all = header :: rows in
  let widths =
    List.fold_left
      (fun acc row ->
        List.mapi
          (fun i cell -> max (List.nth acc i) (String.length cell))
          row)
      (List.map (fun _ -> 0) header)
      all
  in
  let render row =
    String.concat "  "
      (List.mapi
         (fun i cell -> cell ^ String.make (List.nth widths i - String.length cell) ' ')
         row)
  in
  Printf.printf "\n%s\n" title;
  Printf.printf "%s\n" (render header);
  Printf.printf "%s\n" (String.make (String.length (render header)) '-');
  List.iter (fun row -> Printf.printf "%s\n" (render row)) rows;
  flush stdout

let section id claim =
  Printf.printf "\n=== %s ===\n%s\n" id claim;
  flush stdout

(* --- Shared fixtures --------------------------------------------------- *)

(* The Figure 1 expression, built against any graph that names i, j, k,
   alpha, beta. *)
let fig1_expr g =
  let i = Digraph.vertex g "i"
  and j = Digraph.vertex g "j"
  and k = Digraph.vertex g "k" in
  let alpha = Digraph.label g "alpha" and beta = Digraph.label g "beta" in
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

(* --- EXP-F1: Figure 1 --------------------------------------------------- *)

let exp_fig1 ~full =
  section "EXP-F1 (Figure 1)"
    "The paper's only figure: the automaton for [i,a,_] . [_,b,_]* .\n\
     (([_,a,j] . {(j,a,i)}) | [_,a,k]). Four independent implementations\n\
     must produce the same path set: the reference denotation, the paper's\n\
     stack machine (SIV-B), product-graph BFS, and recognising (SIV-A) the\n\
     complete source traversal from i.";
  let sizes =
    if full then [ (5, 15); (20, 60); (50, 170); (100, 400) ]
    else [ (5, 15); (20, 60); (40, 130) ]
  in
  let max_length = 5 in
  let rows =
    List.map
      (fun (nv, ne) ->
        let g =
          Generate.fig1 ~rng:(Prng.create 42) ~n_noise_vertices:nv
            ~n_noise_edges:ne
        in
        let r = fig1_expr g in
        let reference, t_ref = time (fun () -> Expr.denote g ~max_length r) in
        let stack, t_stack = time (fun () -> Stack_machine.run g r ~max_length) in
        let bfs, t_bfs = time (fun () -> Generator.generate g r ~max_length) in
        let filtered, t_filter =
          time (fun () ->
              let i = Vertex.Set.singleton (Digraph.vertex g "i") in
              let accept = Recognizer.make ~strategy:Recognizer.Nfa r in
              let acc = ref Path_set.empty in
              for len = 1 to max_length do
                let candidates = Traversal.source g ~from:i ~length:len in
                acc := Path_set.union !acc (Path_set.filter accept candidates)
              done;
              !acc)
        in
        let agree =
          Path_set.equal reference stack
          && Path_set.equal reference bfs
          && Path_set.equal reference filtered
        in
        [
          string_of_int (Digraph.n_vertices g);
          string_of_int (Digraph.n_edges g);
          string_of_int (Path_set.cardinal reference);
          ms t_ref;
          ms t_stack;
          ms t_bfs;
          ms t_filter;
          string_of_bool agree;
        ])
      sizes
  in
  print_table
    ~title:"Figure 1: four implementations, one path set (times in ms)"
    ~header:
      [ "|V|"; "|E|"; "paths"; "denote"; "stack"; "bfs"; "recognise"; "agree" ]
    rows

(* --- EXP-T1: core-operation micro-costs (bechamel) ----------------------- *)

let exp_micro ~full =
  section "EXP-T1 (micro)"
    "Cost of each core operation of SII: concatenation, projections,\n\
     jointness, union, concatenative join, concatenative product.";
  let g =
    Generate.uniform ~rng:(Prng.create 7) ~n_vertices:40
      ~n_edges:(if full then 400 else 200)
      ~n_labels:3
  in
  let edges = Array.of_list (Digraph.edges g) in
  let rng = Prng.create 11 in
  let walk len =
    Path.of_edges
      (List.init len (fun _ -> edges.(Prng.int rng (Array.length edges))))
  in
  let p8 = walk 8 and q8 = walk 8 in
  let edge_set = Path_set.all_edges g in
  let half =
    Path_set.of_edges (List.filteri (fun i _ -> i mod 2 = 0) (Digraph.edges g))
  in
  let small_set =
    Path_set.of_edges (List.filteri (fun i _ -> i < 30) (Digraph.edges g))
  in
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"core"
      [
        Test.make ~name:"concat-8+8" (Staged.stage (fun () -> Path.concat p8 q8));
        Test.make ~name:"sigma-nth" (Staged.stage (fun () -> Path.nth p8 5));
        Test.make ~name:"label-word-8"
          (Staged.stage (fun () -> Path.label_word p8));
        Test.make ~name:"is-joint-8" (Staged.stage (fun () -> Path.is_joint p8));
        Test.make ~name:"union-half"
          (Staged.stage (fun () -> Path_set.union edge_set half));
        Test.make ~name:"join-ExE"
          (Staged.stage (fun () -> Path_set.join edge_set edge_set));
        Test.make ~name:"product-30x30"
          (Staged.stage (fun () -> Path_set.product small_set small_set));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let estimate =
          match Analyze.OLS.estimates ols_result with
          | Some [ e ] -> Printf.sprintf "%.1f" e
          | Some _ | None -> "n/a"
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "n/a"
        in
        [ name; estimate; r2 ] :: acc)
      results []
    |> List.sort compare
  in
  print_table ~title:"Core operation costs (OLS estimate)"
    ~header:[ "operation"; "ns/run"; "r^2" ]
    rows

(* --- EXP-T2: join vs product (footnote 7) --------------------------------- *)

let exp_join_vs_product ~full =
  section "EXP-T2 (join vs product)"
    "Footnote 7: R ./o Q is a subset of R ><o Q and 'a more efficient use of\n\
     resources' when only joint paths are wanted. We compute E ./o E directly\n\
     and as a filtered Cartesian product.";
  let sizes = if full then [ 50; 100; 200; 400; 800 ] else [ 50; 100; 200; 400 ] in
  let rows =
    List.map
      (fun m ->
        let g =
          Generate.uniform ~rng:(Prng.create 13) ~n_vertices:(max 8 (m / 5))
            ~n_edges:m ~n_labels:3
        in
        let e = Path_set.all_edges g in
        let joined, t_join = time (fun () -> Path_set.join e e) in
        let filtered, t_filtered =
          time (fun () -> Path_set.restrict_joint (Path_set.product e e))
        in
        [
          string_of_int m;
          string_of_int (Path_set.cardinal joined);
          string_of_int (m * m);
          ms t_join;
          ms t_filtered;
          Printf.sprintf "%.1fx" (t_filtered /. max 1e-9 t_join);
          string_of_bool (Path_set.equal joined filtered);
        ])
      sizes
  in
  print_table
    ~title:"E ./o E: indexed join vs filtered Cartesian product (times in ms)"
    ~header:
      [ "|E|"; "|join|"; "|product|"; "join"; "prod+filter"; "speedup"; "sound" ]
    rows

(* --- EXP-T3: traversal idioms (SIII) --------------------------------------- *)

let exp_traversals ~full =
  section "EXP-T3 (traversal idioms)"
    "SIII: complete traversal vs source/destination/labeled restriction.\n\
     Restricting the join operands shrinks both the result and the work.";
  let layers = 6 and width = if full then 12 else 8 in
  let g =
    Generate.layered ~rng:(Prng.create 17) ~layers ~width ~fanout:3 ~n_labels:4
  in
  let v0 = Digraph.vertex g "l0_0" in
  let r0 = Digraph.label g "r0" in
  let rows = ref [] in
  for length = 1 to 4 do
    let complete, t_complete = time (fun () -> Traversal.complete g ~length) in
    let source, t_source =
      time (fun () -> Traversal.source g ~from:(Vertex.Set.singleton v0) ~length)
    in
    let target = Digraph.vertex g (Printf.sprintf "l%d_0" length) in
    let dest, t_dest =
      time (fun () ->
          Traversal.destination g ~into:(Vertex.Set.singleton target) ~length)
    in
    let labeled, t_labeled =
      time (fun () ->
          Traversal.labeled g
            ~labels:(List.init length (fun _ -> Label.Set.singleton r0)))
    in
    let between, t_between =
      time (fun () ->
          Traversal.between g ~from:(Vertex.Set.singleton v0)
            ~into:(Vertex.Set.singleton target) ~length)
    in
    rows :=
      [
        string_of_int length;
        Printf.sprintf "%d/%s" (Path_set.cardinal complete) (ms t_complete);
        Printf.sprintf "%d/%s" (Path_set.cardinal source) (ms t_source);
        Printf.sprintf "%d/%s" (Path_set.cardinal dest) (ms t_dest);
        Printf.sprintf "%d/%s" (Path_set.cardinal labeled) (ms t_labeled);
        Printf.sprintf "%d/%s" (Path_set.cardinal between) (ms t_between);
      ]
      :: !rows
  done;
  print_table
    ~title:
      (Printf.sprintf "Layered DAG (%d layers x %d, |E|=%d): paths/ms per idiom"
         layers width (Digraph.n_edges g))
    ~header:[ "len"; "complete"; "source"; "destination"; "labeled"; "between" ]
    (List.rev !rows)

(* --- EXP-T3b: join-order planning ------------------------------------------------ *)

let exp_join_order ~full =
  section "EXP-T3b (join-order planning)"
    "SIII says restriction limits the derived set; associativity of ./o\n\
     means the restriction can be applied FIRST regardless of where it sits\n\
     in the chain. Left-to-right evaluation of a destination-anchored chain\n\
     pays for the unanchored prefix; pivoting at the anchor does not.";
  let layers = 6 and width = if full then 12 else 8 in
  let g =
    Generate.layered ~rng:(Prng.create 73) ~layers ~width ~fanout:3 ~n_labels:4
  in
  let rows =
    List.map
      (fun len ->
        (* anchor at the best-connected vertex of layer [len] *)
        let target =
          List.fold_left
            (fun best slot ->
              let v = Digraph.vertex g (Printf.sprintf "l%d_%d" len slot) in
              if Digraph.in_degree g v > Digraph.in_degree g best then v
              else best)
            (Digraph.vertex g (Printf.sprintf "l%d_0" len))
            (List.init width Fun.id)
        in
        let chain =
          List.init len (fun idx ->
              if idx = len - 1 then Selector.dst_in (Vertex.Set.singleton target)
              else Selector.universe)
        in
        let ltr, t_ltr = time (fun () -> Traversal.steps g chain) in
        let planned, t_planned = time (fun () -> Traversal.steps_planned g chain) in
        [
          string_of_int len;
          string_of_int (Path_set.cardinal ltr);
          ms t_ltr;
          ms t_planned;
          Printf.sprintf "%.1fx" (t_ltr /. max 1e-9 t_planned);
          string_of_bool (Path_set.equal ltr planned);
        ])
      [ 2; 3; 4 ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "Destination-anchored chain on layered DAG (|E|=%d): left-to-right vs planned"
         (Digraph.n_edges g))
    ~header:[ "len"; "paths"; "left-to-right"; "planned"; "speedup"; "agree" ]
    rows

(* --- EXP-T4: recognizer strategies (SIV-A) ----------------------------------- *)

let exp_recognizers ~full =
  section "EXP-T4 (recognizer strategies)"
    "SIV-A: one regular path expression, five recognition strategies. The\n\
     corpus mixes accepted and rejected paths; all strategies must agree.";
  let g =
    Generate.fig1 ~rng:(Prng.create 23)
      ~n_noise_vertices:(if full then 60 else 30)
      ~n_noise_edges:(if full then 250 else 100)
  in
  let r = fig1_expr g in
  let rng = Prng.create 29 in
  let edges = Array.of_list (Digraph.edges g) in
  let corpus =
    let walks =
      List.init
        (if full then 3000 else 1000)
        (fun _ ->
          let start = edges.(Prng.int rng (Array.length edges)) in
          let rec extend acc last n =
            if n = 0 then List.rev acc
            else
              match Digraph.out_edges g (Edge.head last) with
              | [] -> List.rev acc
              | out ->
                let next = List.nth out (Prng.int rng (List.length out)) in
                extend (next :: acc) next (n - 1)
          in
          Path.of_edges (extend [ start ] start (Prng.int rng 6)))
    in
    let accepted = Path_set.elements (Expr.denote g ~max_length:5 r) in
    walks @ accepted
  in
  let n_corpus = List.length corpus in
  let strategies =
    [
      ("cubic", Recognizer.Cubic);
      ("nfa", Recognizer.Nfa);
      ("lazy-dfa", Recognizer.Lazy_dfa);
      ("eager-dfa", Recognizer.Eager_dfa);
      ("min-dfa", Recognizer.Min_dfa);
    ]
  in
  let rows =
    List.map
      (fun (name, strategy) ->
        let accept, t_build =
          time (fun () -> Recognizer.make ~strategy ~graph:g r)
        in
        let n_accepted, t_run =
          time (fun () ->
              List.fold_left
                (fun acc p -> if accept p then acc + 1 else acc)
                0 corpus)
        in
        [
          name;
          ms t_build;
          ms t_run;
          Printf.sprintf "%.2f" (1e6 *. t_run /. float_of_int n_corpus);
          string_of_int n_accepted;
        ])
      strategies
  in
  let a = Glushkov.build r in
  let d = Dfa.create g r in
  let m = Dfa.minimize d in
  print_table
    ~title:
      (Printf.sprintf
         "Recognising %d paths (|V|=%d |E|=%d); nfa states=%d dfa states=%d min=%d"
         n_corpus (Digraph.n_vertices g) (Digraph.n_edges g)
         (Glushkov.n_states a) (Dfa.n_states d) (Dfa.n_states m))
    ~header:[ "strategy"; "build(ms)"; "run(ms)"; "us/path"; "accepted" ]
    rows

(* --- EXP-T5: generator strategies (SIV-B) ------------------------------------- *)

let exp_generators ~full =
  section "EXP-T5 (generator strategies)"
    "SIV-B: the paper's set-at-a-time single-stack machine vs path-at-a-time\n\
     product-graph BFS, on an anchored starred expression, sweeping the\n\
     length bound; then on unanchored joins and stars, with and without a\n\
     limit.";
  let g =
    Generate.fig1 ~rng:(Prng.create 31)
      ~n_noise_vertices:(if full then 50 else 25)
      ~n_noise_edges:(if full then 220 else 90)
  in
  let r = fig1_expr g in
  let lengths = if full then [ 2; 3; 4; 5; 6; 7 ] else [ 2; 3; 4; 5; 6 ] in
  let rows =
    List.map
      (fun max_length ->
        let stack, t_stack = time (fun () -> Stack_machine.run g r ~max_length) in
        let bfs, t_bfs = time (fun () -> Generator.generate g r ~max_length) in
        [
          string_of_int max_length;
          string_of_int (Path_set.cardinal stack);
          ms t_stack;
          ms t_bfs;
          Printf.sprintf "%.1fx" (t_stack /. max 1e-9 t_bfs);
          string_of_bool (Path_set.equal stack bfs);
        ])
      lengths
  in
  print_table
    ~title:
      (Printf.sprintf "Figure-1 expression on |V|=%d |E|=%d (times in ms)"
         (Digraph.n_vertices g) (Digraph.n_edges g))
    ~header:[ "maxlen"; "paths"; "stack"; "bfs"; "stack/bfs"; "agree" ]
    rows;
  (* The unanchored sweep behind the planner's Stack_machine pick
     (Optimizer.choose_strategy picks it for unanchored queries with a
     small predicted frontier). Both strategies run through the engine
     (parse, plan, evaluate), best of three, with and without a limit. *)
  let module Engine = Mrpa_engine.Engine in
  let module Plan = Mrpa_engine.Plan in
  let run g query ~max_length ?limit strategy =
    let runs =
      List.init 3 (fun _ ->
          time (fun () -> Engine.query_exn ~strategy ~max_length ?limit g query))
    in
    ( (fst (List.hd runs)).Engine.paths,
      List.fold_left (fun b (_, t) -> Float.min b t) infinity runs )
  in
  let uniform seed n m =
    Generate.uniform ~rng:(Prng.create seed) ~n_vertices:n ~n_edges:m
      ~n_labels:4
  in
  let cases =
    [
      ("fig1+noise", g, "[_,alpha,_] . [_,beta,_]*", 3);
      ("uniform 25/120/4", uniform 37 25 120, "[_,r0,_] . [_,r1,_]", 2);
      ("uniform 1000/5000/4", uniform 41 1000 5000, "[_,r0,_] . [_,r1,_]", 3);
      ("K24 x 2", Generate.complete ~n:24 ~n_labels:2, "[_,r0,_] . [_,r0,_]", 3);
    ]
  in
  let rows =
    List.concat_map
      (fun (name, g, query, max_length) ->
        List.map
          (fun limit ->
            let stack, t_stack = run g query ~max_length ?limit Plan.Stack_machine in
            let bfs, t_bfs = run g query ~max_length ?limit Plan.Product_bfs in
            (* Under a limit each strategy may keep a different subset. *)
            let agree =
              if limit = None then Path_set.equal stack bfs
              else Path_set.cardinal stack = Path_set.cardinal bfs
            in
            let pick = (Engine.query_exn ~max_length ?limit g query).Engine.plan in
            [
              name;
              query;
              string_of_int max_length;
              (match limit with Some l -> string_of_int l | None -> "-");
              Plan.strategy_name pick.Plan.strategy;
              string_of_int (Path_set.cardinal stack);
              ms t_stack;
              ms t_bfs;
              Printf.sprintf "%.2fx" (t_bfs /. max 1e-9 t_stack);
              string_of_bool agree;
            ])
          [ None; Some 100 ])
      cases
  in
  print_table
    ~title:
      "Unanchored traversals, forced strategy (times in ms; speedup > 1 means \
       the stack machine wins)"
    ~header:
      [ "graph"; "query"; "maxlen"; "limit"; "pick"; "paths"; "stack"; "bfs";
        "speedup"; "agree" ]
    rows

(* --- EXP-T5b: counting vs enumeration ------------------------------------------ *)

let exp_counting ~full =
  section "EXP-T5b (counting vs enumeration)"
    "Counting distinct paths via DP over the determinised automaton x graph\n\
     product, against materialising the whole set. Enumeration pays the\n\
     output size; the DP pays configurations.";
  let n = if full then 8 else 6 in
  let g = Generate.complete ~n ~n_labels:2 in
  let r = Expr.star (Expr.sel Selector.universe) in
  let lengths = if full then [ 2; 3; 4; 5; 6 ] else [ 2; 3; 4; 5 ] in
  let rows =
    List.map
      (fun max_length ->
        let counts, t_dp = time (fun () -> Counting.count_by_length g r ~max_length) in
        let total = Array.fold_left ( + ) 0 counts in
        (* enumerate only while feasible *)
        let enum_cell, enum_time =
          if total <= 200_000 then begin
            let s, t = time (fun () -> Generator.generate g r ~max_length) in
            (string_of_int (Path_set.cardinal s), ms t)
          end
          else ("(skipped)", "-")
        in
        [
          string_of_int max_length;
          string_of_int total;
          ms t_dp;
          enum_cell;
          enum_time;
        ])
      lengths
  in
  print_table
    ~title:
      (Printf.sprintf "E* on complete graph K%d x 2 labels: DP count vs enumeration"
         n)
    ~header:[ "maxlen"; "count(DP)"; "dp(ms)"; "count(enum)"; "enum(ms)" ]
    rows;
  (* the same counts drive an exactly-uniform sampler: drawing from a
     population enumeration cannot touch *)
  let deepest = List.fold_left max 0 lengths in
  let sampler, t_prep =
    time (fun () -> Sampler.prepare g r ~max_length:deepest)
  in
  let samples, t_draw = time (fun () -> Sampler.sample sampler (Prng.create 3) 1000) in
  print_table
    ~title:"Uniform sampling from the same denotation (1000 draws)"
    ~header:[ "population"; "prepare(ms)"; "1000 draws(ms)"; "distinct lengths" ]
    [
      [
        string_of_int (Sampler.population sampler);
        ms t_prep;
        ms t_draw;
        string_of_int
          (List.length
             (List.sort_uniq Int.compare (List.map Path.length samples)));
      ];
    ]

(* --- EXP-T8: label-alphabet vs edge-alphabet recognition ------------------------- *)

let exp_label_regex ~full =
  section "EXP-T8 (label vs edge alphabet)"
    "SIV-A closes by contrasting expressions over E with Mendelzon & Wood's\n\
     expressions over Omega (ref [8]). For label-only queries both exist:\n\
     the Omega-regex recognises ω'(a) by Brzozowski derivatives; the\n\
     E-regex embeds each label as [_,a,_] and runs the automaton machinery.";
  let g =
    Generate.uniform ~rng:(Prng.create 47) ~n_vertices:30
      ~n_edges:(if full then 400 else 180)
      ~n_labels:3
  in
  let r0 = Digraph.label g "r0"
  and r1 = Digraph.label g "r1"
  and r2 = Digraph.label g "r2" in
  let lr =
    (* r0 . (r1 | r2)* . r0 *)
    Label_expr.(concat (lbl r0) (concat (star (union (lbl r1) (lbl r2)))
      (lbl r0)))
  in
  let er = Label_expr.to_expr lr in
  let rng = Prng.create 53 in
  let edges = Array.of_list (Digraph.edges g) in
  let corpus =
    List.init
      (if full then 5000 else 2000)
      (fun _ ->
        let start = edges.(Prng.int rng (Array.length edges)) in
        let rec extend acc last k =
          if k = 0 then List.rev acc
          else
            match Digraph.out_edges g (Edge.head last) with
            | [] -> List.rev acc
            | out ->
              let next = List.nth out (Prng.int rng (List.length out)) in
              extend (next :: acc) next (k - 1)
        in
        Path.of_edges (extend [ start ] start (Prng.int rng 6)))
  in
  let n_corpus = List.length corpus in
  let strategies =
    [
      ("omega-derivatives", fun p -> Label_expr.accepts_path lr p);
      ("edge-cubic", Recognizer.make ~strategy:Recognizer.Cubic er);
      ("edge-nfa", Recognizer.make ~strategy:Recognizer.Nfa er);
      ("edge-lazy-dfa", Recognizer.make ~strategy:Recognizer.Lazy_dfa er);
    ]
  in
  let rows =
    List.map
      (fun (name, accept) ->
        let n_accepted, t_run =
          time (fun () ->
              List.fold_left
                (fun acc p -> if accept p then acc + 1 else acc)
                0 corpus)
        in
        [
          name;
          ms t_run;
          Printf.sprintf "%.2f" (1e6 *. t_run /. float_of_int n_corpus);
          string_of_int n_accepted;
        ])
      strategies
  in
  print_table
    ~title:
      (Printf.sprintf "Recognising %d walks with r0.(r1|r2)*.r0 (|E|=%d)"
         n_corpus (Digraph.n_edges g))
    ~header:[ "recogniser"; "run(ms)"; "us/path"; "accepted" ]
    rows

(* --- EXP-T9: optimiser ablation ---------------------------------------------------- *)

let exp_optimizer ~full =
  section "EXP-T9 (optimiser ablation)"
    "Algebraic rewrites (unit/zero laws, star collapses, selector fusion)\n\
     before evaluation. Same strategy, same answers; redundant structure\n\
     costs real time when evaluated naively.";
  let g =
    Generate.uniform ~rng:(Prng.create 59) ~n_vertices:20
      ~n_edges:(if full then 200 else 120)
      ~n_labels:3
  in
  let a = Expr.sel (Selector.label1 (Digraph.label g "r0")) in
  let b = Expr.sel (Selector.label1 (Digraph.label g "r1")) in
  let redundant =
    (* (∅ | a) . (b | b) . (a | ∅) . ε-laden star *)
    Expr.join
      (Expr.join
         (Expr.join (Expr.union Expr.empty a) (Expr.union b b))
         (Expr.union a Expr.empty))
      (Expr.star (Expr.union Expr.epsilon (Expr.union b b)))
  in
  let optimized, rewrites = Optimizer.simplify redundant in
  let max_length = 5 in
  let run expr = Stack_machine.run g expr ~max_length in
  let res_naive, t_naive = time (fun () -> run redundant) in
  let res_opt, t_opt = time (fun () -> run optimized) in
  let gen_naive, tg_naive = time (fun () -> Generator.generate g redundant ~max_length) in
  let gen_opt, tg_opt = time (fun () -> Generator.generate g optimized ~max_length) in
  print_table
    ~title:
      (Printf.sprintf
         "Redundant expression (%d nodes) vs optimised (%d nodes); rewrites: %s"
         (Expr.size redundant) (Expr.size optimized)
         (String.concat ", " rewrites))
    ~header:[ "evaluator"; "naive(ms)"; "optimised(ms)"; "speedup"; "same answer" ]
    [
      [
        "stack-machine";
        ms t_naive;
        ms t_opt;
        Printf.sprintf "%.1fx" (t_naive /. max 1e-9 t_opt);
        string_of_bool (Path_set.equal res_naive res_opt);
      ];
      [
        "product-bfs";
        ms tg_naive;
        ms tg_opt;
        Printf.sprintf "%.1fx" (tg_naive /. max 1e-9 tg_opt);
        string_of_bool (Path_set.equal gen_naive gen_opt);
      ];
    ]

(* --- EXP-T6: SIV-C projection + single-relational algorithms ------------------- *)

let jaccard_top_k k a b =
  let top v = List.map fst (Centrality.top_k k v) in
  let sa = List.sort_uniq Int.compare (top a) in
  let sb = List.sort_uniq Int.compare (top b) in
  let inter = List.filter (fun x -> List.mem x sb) sa in
  let union = List.sort_uniq Int.compare (sa @ sb) in
  float_of_int (List.length inter) /. float_of_int (List.length union)

let exp_projection ~full =
  section "EXP-T6 (semantically-rich projection)"
    "SIV-C: derive E_ab (knows . works_for) via the path algebra and via the\n\
     boolean matrix product of adjacency slices (the tensor route of ref [5]);\n\
     run PageRank downstream and compare against the label-blind projection\n\
     the paper warns about.";
  let sizes = if full then [ 50; 150; 400; 1000 ] else [ 50; 150; 400 ] in
  let rows =
    List.map
      (fun n_people ->
        let g =
          Generate.social ~rng:(Prng.create 41) ~n_people
            ~n_orgs:(max 2 (n_people / 20))
            ~n_projects:(max 3 (n_people / 10))
        in
        let knows = Digraph.label g "knows" in
        let works_for = Digraph.label g "works_for" in
        let via_join, t_join =
          time (fun () -> Projection.path_derived g [ knows; works_for ])
        in
        let via_matrix, t_matrix =
          time (fun () ->
              Simple_graph.of_sparse_bool
                (Projection.path_derived_matrix g [ knows; works_for ]))
        in
        let agree = Simple_graph.equal via_join via_matrix in
        let pr_derived, t_pr = time (fun () -> Centrality.pagerank via_join) in
        let blind = Projection.label_blind g in
        let pr_blind = Centrality.pagerank blind in
        let overlap = jaccard_top_k 10 pr_derived pr_blind in
        [
          string_of_int n_people;
          string_of_int (Digraph.n_edges g);
          string_of_int (Simple_graph.n_edges via_join);
          ms t_join;
          ms t_matrix;
          string_of_bool agree;
          ms t_pr;
          Printf.sprintf "%.2f" overlap;
        ])
      sizes
  in
  print_table
    ~title:
      "E_knows.works_for: join vs matrix; PageRank; top-10 overlap with \
       label-blind"
    ~header:
      [ "people"; "|E|"; "|E_ab|"; "join"; "matrix"; "agree"; "pagerank"; "jaccard" ]
    rows

(* --- EXP-T7: label loss in the binary algebra (SII) ----------------------------- *)

let exp_label_loss ~full =
  section "EXP-T7 (path-label loss)"
    "SII's closing argument: joining binary relations (the V* algebra of\n\
     ref [4]) loses edge labels. We traverse the same graphs with both\n\
     algebras and count how many binary results cannot recover their path\n\
     label. Invariant: ternary path count = total candidate label words.";
  let cases =
    let base = [ (6, 40, 4, 2); (6, 80, 4, 2); (6, 120, 4, 2); (8, 120, 4, 3) ] in
    if full then base @ [ (8, 200, 5, 3); (10, 300, 5, 3) ] else base
  in
  let rows =
    List.map
      (fun (n, m, k, len) ->
        let g =
          Generate.uniform ~rng:(Prng.create 43) ~n_vertices:n ~n_edges:m
            ~n_labels:k
        in
        let ternary, t_ternary =
          time (fun () -> Path_set.join_power (Path_set.all_edges g) len)
        in
        let binary, t_binary =
          time (fun () -> Vpath_set.join_power (Vpath_set.of_digraph g) len)
        in
        let census = Label_recovery.census g binary in
        let pct_ambiguous =
          100.0
          *. float_of_int census.Label_recovery.ambiguous
          /. float_of_int (max 1 census.Label_recovery.total)
        in
        [
          Printf.sprintf "%d/%d/%d" n m k;
          string_of_int len;
          string_of_int (Path_set.cardinal ternary);
          string_of_int (Vpath_set.cardinal binary);
          Printf.sprintf "%.1f%%" pct_ambiguous;
          string_of_int census.Label_recovery.max_words;
          string_of_bool
            (census.Label_recovery.total_words = Path_set.cardinal ternary);
          ms t_ternary;
          ms t_binary;
        ])
      cases
  in
  print_table
    ~title:"Ternary (E*) vs binary (V*) traversal: ambiguity of label recovery"
    ~header:
      [
        "n/m/k";
        "len";
        "ternary";
        "binary";
        "ambiguous";
        "max words";
        "invariant";
        "t_E*";
        "t_V*";
      ]
    rows

(* --- EXP-T10: semiring aggregation vs enumeration -------------------------------- *)

let exp_semirings ~full =
  section "EXP-T10 (semiring aggregation)"
    "One traversal policy, several aggregations by change of semiring\n\
     (footnote 6's 'more machinery' as structure): cheapest / most reliable /\n\
     widest / count, via DP on the automaton product, against aggregating an\n\
     enumerated path set.";
  let open Mrpa_semiring in
  let n = if full then 40 else 25 in
  let g =
    Generate.uniform ~rng:(Prng.create 61) ~n_vertices:n
      ~n_edges:(if full then 350 else 180)
      ~n_labels:3
  in
  let expr =
    (* r0 . (r1|r2)* . r0 — an unanchored policy with a star *)
    let l name = Expr.sel (Selector.label1 (Digraph.label g name)) in
    Expr.join
      (Expr.join (l "r0") (Expr.star (Expr.union (l "r1") (l "r2"))))
      (l "r0")
  in
  let cost e = float_of_int (1 + (Edge.hash e land 7)) in
  let max_length = if full then 6 else 5 in
  (* enumeration baseline: materialise, then fold *)
  let enum_paths, t_enum = time (fun () -> Generator.generate g expr ~max_length) in
  let (_ : float), t_enum_min =
    time (fun () ->
        Path_set.fold
          (fun p acc ->
            Float.min acc (Path.fold (fun a e -> a +. cost e) 0.0 p))
          enum_paths infinity)
  in
  let rows =
    [
      (let r, t = time (fun () -> Eval.run (module Semiring.Tropical) ~weight:cost g expr ~max_length) in
       [ "tropical (cheapest)"; ms t; string_of_int (List.length r.Eval.pairs) ]);
      (let r, t = time (fun () -> Eval.run (module Semiring.Viterbi) ~weight:(fun _ -> 0.95) g expr ~max_length) in
       [ "viterbi (most reliable)"; ms t; string_of_int (List.length r.Eval.pairs) ]);
      (let r, t = time (fun () -> Eval.run (module Semiring.Bottleneck) ~weight:cost g expr ~max_length) in
       [ "bottleneck (widest)"; ms t; string_of_int (List.length r.Eval.pairs) ]);
      (let r, t = time (fun () -> Eval.run (module Semiring.Natural) g expr ~max_length) in
       [ "natural (count)"; ms t; string_of_int (List.length r.Eval.pairs) ]);
      [
        "enumerate + fold (baseline)";
        ms (t_enum +. t_enum_min);
        string_of_int (Path_set.cardinal enum_paths) ^ " paths";
      ];
    ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "r0.(r1|r2)*.r0 on |V|=%d |E|=%d, maxlen %d: DP per semiring vs enumeration"
         (Digraph.n_vertices g) (Digraph.n_edges g) max_length)
    ~header:[ "aggregation"; "time(ms)"; "result size" ]
    rows

(* --- EXP-T11: incremental derived views --------------------------------------------- *)

let exp_views ~full =
  section "EXP-T11 (incremental derived views)"
    "Maintaining the SIV-C derived relation E_knows.works_for as edges\n\
     arrive: rank-1 incremental maintenance vs recomputing the matrix\n\
     product per change.";
  let sizes = if full then [ 100; 300; 800 ] else [ 100; 300 ] in
  let churn = if full then 400 else 200 in
  let rows =
    List.map
      (fun n_people ->
        let build () =
          Generate.social ~rng:(Prng.create 67) ~n_people
            ~n_orgs:(max 2 (n_people / 20))
            ~n_projects:(max 3 (n_people / 10))
        in
        (* the churn stream: random knows/works_for edges over existing ids *)
        let stream g =
          let rng = Prng.create 71 in
          let people =
            Array.of_list
              (List.filter
                 (fun v ->
                   let name = Digraph.vertex_name g v in
                   String.length name > 1 && name.[0] = 'p' && name.[1] <> 'r')
                 (Digraph.vertices g))
          in
          let knows = Digraph.label g "knows" in
          List.init churn (fun _ ->
              Edge.make ~tail:(Prng.pick rng people) ~label:knows
                ~head:(Prng.pick rng people))
        in
        (* incremental *)
        let g1 = build () in
        let view =
          Derived_view.create g1
            [ Digraph.label g1 "knows"; Digraph.label g1 "works_for" ]
        in
        let edges1 = stream g1 in
        let (), t_incremental =
          time (fun () -> List.iter (fun e -> ignore (Digraph.add_edge g1 e)) edges1)
        in
        (* recompute per change *)
        let g2 = build () in
        let knows2 = Digraph.label g2 "knows" in
        let works2 = Digraph.label g2 "works_for" in
        let edges2 = stream g2 in
        let (), t_recompute =
          time (fun () ->
              List.iter
                (fun e ->
                  if Digraph.add_edge g2 e then
                    ignore (Projection.path_derived_matrix g2 [ knows2; works2 ]))
                edges2)
        in
        [
          string_of_int n_people;
          string_of_int churn;
          ms t_incremental;
          ms t_recompute;
          Printf.sprintf "%.1fx" (t_recompute /. max 1e-9 t_incremental);
          string_of_bool (Derived_view.is_consistent view);
        ])
      sizes
  in
  print_table
    ~title:"E_knows.works_for under churn: incremental vs recompute-per-change"
    ~header:[ "people"; "changes"; "incremental"; "recompute"; "speedup"; "consistent" ]
    rows

(* --- EXP-T12: guardrail overhead and graceful degradation ------------------------ *)

let exp_guardrails ~full =
  section "EXP-T12 (guardrails)"
    "Budget checkpoints ride existing per-transition/per-level hooks, so\n\
     governing a run should cost a few percent, not a traversal. Under a\n\
     shrinking fuel budget the engine returns monotonically growing sound\n\
     subsets instead of failing.";
  let module Engine = Mrpa_engine.Engine in
  let module Budget = Mrpa_engine.Budget in
  let module Plan = Mrpa_engine.Plan in
  let module Err = Mrpa_engine.Err in
  let n = if full then 10 else 7 in
  let g = Generate.complete ~n ~n_labels:2 in
  let text = "E . E*" in
  let max_length = if full then 4 else 3 in
  let strategies =
    [ Plan.Reference; Plan.Stack_machine; Plan.Product_bfs ]
  in
  let rows =
    List.map
      (fun strategy ->
        let bare, t_bare =
          time (fun () -> Engine.query_exn ~strategy ~max_length g text)
        in
        let governed, t_governed =
          time (fun () ->
              Engine.query_exn ~strategy ~max_length
                ~budget:(Budget.unlimited ()) g text)
        in
        assert (governed.Engine.verdict = Err.Complete);
        assert (
          Path_set.equal bare.Engine.paths governed.Engine.paths
          (* the reference strategy re-runs via iterative deepening under a
             budget, which is the one governed path allowed to cost more *)
          || strategy = Plan.Reference);
        [
          Plan.strategy_name strategy;
          string_of_int (Path_set.cardinal bare.Engine.paths);
          ms t_bare;
          ms t_governed;
          Printf.sprintf "%.2fx" (t_governed /. max 1e-9 t_bare);
        ])
      strategies
  in
  print_table
    ~title:
      (Printf.sprintf "K%d x 2 labels, %s, max_length=%d: governed overhead"
         n text max_length)
    ~header:[ "strategy"; "paths"; "bare ms"; "governed ms"; "overhead" ]
    rows;
  let degradation =
    List.map
      (fun fuel ->
        let r =
          Engine.query_exn ~strategy:Plan.Stack_machine ~max_length
            ~budget:(Budget.create ~fuel ()) g text
        in
        [
          string_of_int fuel;
          string_of_int (Path_set.cardinal r.Engine.paths);
          Err.verdict_name r.Engine.verdict;
        ])
      [ 10; 100; 1_000; 10_000; 100_000; 1_000_000 ]
  in
  print_table ~title:"Stack machine under a shrinking fuel budget"
    ~header:[ "fuel"; "paths"; "verdict" ] degradation

(* --- In-process server fixtures (EXP-T15, EXP-T16) ----------------------------- *)

module Server = Mrpa_server.Server
module Wire = Mrpa_server.Wire
module Snapshot = Mrpa_server.Snapshot
module Client = Mrpa_server.Client
module Sjson = Mrpa_server.Json

(* The p-quantile of an ascending array (nearest rank); 0 when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* A standalone server over [snapshot] on a Unix socket (2 workers, queue
   64, default limits), started on its own thread; returns once the socket
   exists. Stop with [Server.stop] and join the thread. *)
let start_server ?max_predicted_cost ~snapshot socket_path =
  let config =
    {
      Server.front =
        Mrpa_server.Listener.default_config (Wire.Unix_socket socket_path);
      workers = 2;
      queue_capacity = 64;
      limits = Wire.default_limits;
      max_predicted_cost;
      role = Server.Standalone;
    }
  in
  let server = Server.create ~snapshot config in
  let thread = Thread.create (fun () -> Server.serve server) () in
  let rec await n =
    if Sys.file_exists socket_path then ()
    else if n = 0 then failwith ("server did not come up on " ^ socket_path)
    else begin
      Unix.sleepf 0.01;
      await (n - 1)
    end
  in
  await 500;
  (server, thread)

(* --- EXP-T14: journal v2 framing overhead ----------------------------------- *)

(* Rows recorded by exp_journal for the --json summary ("journal" section
   of mrpa.bench/1); empty when the experiment was not selected. *)
let journal_rows : string list ref = ref []

let exp_journal ~full =
  section "EXP-T14 (journal formats)"
    "Append cost of the checksummed v2 journal format against the legacy\n\
     v1 format, measured end to end: graph mutation, record framing (seq +\n\
     CRC-32 in v2), and the write(2) to the log file. Durability should be\n\
     nearly free — the acceptance target is < 15% overhead per append.";
  let n = if full then 200_000 else 50_000 in
  let reps = 3 in
  let run_once version =
    let path = Filename.temp_file "mrpa_bench_journal" ".log" in
    Sys.remove path;
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> if Sys.file_exists p then Sys.remove p)
          [ path; path ^ ".compact" ])
      (fun () ->
        (* A file whose first record is a bare v1 line stays v1; a fresh
           file starts v2 — that is the only knob selecting the format. *)
        (if version = Journal.V1 then begin
           let oc = open_out_bin path in
           output_string oc "vertex\tseed\n";
           close_out oc
         end);
        let g = Digraph.create () in
        let j = Journal.attach ~on_warning:ignore g path in
        assert (Journal.format_version j = version);
        let t0 = Metrics.now_ns () in
        for i = 0 to n - 1 do
          ignore (Digraph.add g (Printf.sprintf "v%d" i) "r" "hub")
        done;
        let elapsed = Int64.to_float (Metrics.elapsed_ns ~since:t0) in
        let bytes = (Unix.stat path).Unix.st_size in
        Journal.close j;
        (elapsed /. float_of_int n, bytes))
  in
  (* min-of-reps: allocator and page-cache noise only ever adds time. *)
  let best version =
    List.fold_left
      (fun (bt, _) _ ->
        let t, b = run_once version in
        (min bt t, b))
      (run_once version) (List.init (reps - 1) Fun.id)
  in
  let v1_ns, v1_bytes = best Journal.V1 in
  let v2_ns, v2_bytes = best Journal.V2 in
  let overhead = 100.0 *. ((v2_ns /. v1_ns) -. 1.0) in
  journal_rows :=
    [
      Printf.sprintf
        "{\"format\":\"v1\",\"appends\":%d,\"ns_per_append\":%.1f,\"bytes\":%d}" n
        v1_ns v1_bytes;
      Printf.sprintf
        "{\"format\":\"v2\",\"appends\":%d,\"ns_per_append\":%.1f,\"bytes\":%d,\"overhead_pct\":%.1f}"
        n v2_ns v2_bytes overhead;
    ];
  print_table
    ~title:
      (Printf.sprintf "%d appends per run, best of %d runs (target < 15%%)" n
         reps)
    ~header:[ "format"; "ns/append"; "file bytes"; "overhead" ]
    [
      [ "v1"; Printf.sprintf "%.0f" v1_ns; string_of_int v1_bytes; "-" ];
      [
        "v2";
        Printf.sprintf "%.0f" v2_ns;
        string_of_int v2_bytes;
        Printf.sprintf "%+.1f%%" overhead;
      ];
    ]

(* --- EXP-T15: static cost model ----------------------------------------------- *)

module Cost = Mrpa_lint.Cost
module Engine = Mrpa_engine.Engine
module Budget = Mrpa_engine.Budget
module Plan = Mrpa_engine.Plan
module Err = Mrpa_engine.Err

(* Rows recorded by exp_cost for the --json summary ("cost" section of
   mrpa.bench/1); empty when the experiment was not selected. *)
let cost_rows : string list ref = ref []

let exp_cost ~full =
  section "EXP-T15 (static cost model)"
    "Does the static analyzer earn its keep? Two measurements. (1)\n\
     Strategy-pick accuracy: for a mixed query set, run every strategy and\n\
     check the planner's cost-based pick against the empirically fastest\n\
     one (a pick within 25% of the fastest counts — below that the ranking\n\
     is timer noise). (2) Admission control: a closed loop of 4 clients with\n\
     a 1-in-4 mix of budget-heavy star queries, served with and without a\n\
     --max-predicted-cost ceiling; rejecting the heavy queries before they\n\
     occupy a worker should raise throughput, not lower it.";
  let g =
    Generate.fig1 ~rng:(Prng.create 7)
      ~n_noise_vertices:(if full then 200 else 60)
      ~n_noise_edges:(if full then 600 else 180)
  in
  let stats = Stat.profile g in
  let max_length = 4 in
  let queries =
    [
      "[i,alpha,_]";
      "[i,alpha,_] . [_,beta,_]";
      "[i,alpha,_] . [_,beta,_]*";
      "[_,alpha,_] . [_,beta,_]";
      "[_,beta,_]* . [_,alpha,_]";
      "([_,alpha,_] | [_,beta,_])*";
    ]
  in
  let strategies = [ Plan.Reference; Plan.Stack_machine; Plan.Product_bfs ] in
  (* Best-of-reps wall time per forced strategy; a run that cannot finish
     within the deadline scores infinity, which is exactly what the
     planner is supposed to avoid picking. *)
  let time_strategy strategy text =
    let reps = if full then 5 else 3 in
    let best = ref infinity in
    for _ = 1 to reps do
      let budget = Budget.create ~deadline_ms:2_000.0 () in
      let t0 = Metrics.now_ns () in
      let r = Engine.query_exn ~strategy ~stats ~max_length ~budget g text in
      let ms = Int64.to_float (Metrics.elapsed_ns ~since:t0) /. 1e6 in
      let ms = if r.Engine.verdict = Err.Complete then ms else infinity in
      best := min !best ms
    done;
    !best
  in
  let near_optimal = ref 0 in
  let pick_rows =
    List.map
      (fun text ->
        let r = Engine.query_exn ~stats ~max_length g text in
        let picked = r.Engine.plan.Plan.strategy in
        let timed = List.map (fun s -> (s, time_strategy s text)) strategies in
        let fastest, fastest_ms =
          List.fold_left
            (fun (bs, bt) (s, t) -> if t < bt then (s, t) else (bs, bt))
            (List.hd timed) (List.tl timed)
        in
        let picked_ms = List.assoc picked timed in
        let ok = picked == fastest || picked_ms <= 1.25 *. fastest_ms in
        if ok then incr near_optimal;
        cost_rows :=
          Printf.sprintf
            "{\"query\":%s,\"picked\":%s,\"fastest\":%s,\"picked_ms\":%.3f,\"fastest_ms\":%.3f,\"near_optimal\":%b}"
            (Metrics.escape_string text)
            (Metrics.escape_string (Plan.strategy_name picked))
            (Metrics.escape_string (Plan.strategy_name fastest))
            picked_ms fastest_ms ok
          :: !cost_rows;
        [
          text;
          Plan.strategy_name picked;
          Plan.strategy_name fastest;
          Printf.sprintf "%.3f" picked_ms;
          Printf.sprintf "%.3f" fastest_ms;
          (if ok then "yes" else "NO");
        ])
      queries
  in
  print_table
    ~title:
      (Printf.sprintf
         "strategy pick vs fastest forced strategy (%d/%d near-optimal)"
         !near_optimal (List.length queries))
    ~header:[ "query"; "picked"; "fastest"; "picked ms"; "fastest ms"; "ok" ]
    pick_rows;
  (* Part 2: throughput with and without admission control. *)
  (* Result caching off: the admission effect under load is
     the quantity of interest, not the cache's. *)
  let snap = Snapshot.of_graph ~result_cache_capacity:0 g in
  let cheap = "[i,alpha,_] . [_,beta,_]" in
  let expensive = "([_,alpha,_] | [_,beta,_])*" in
  let ceiling =
    match Mrpa_engine.Parser.parse_spanned g cheap with
    | Error _ -> failwith "EXP-T15: cheap query does not parse"
    | Ok e -> (
      match
        (Cost.analyze ~stats:(Snapshot.profile snap) g ~max_length e)
          .Cost.predicted_cost
      with
      | Mrpa_lint.Interval.Fin n -> n
      | Mrpa_lint.Interval.Inf -> failwith "EXP-T15: cheap query unbounded")
  in
  let clients = 4 in
  let per_client = if full then 120 else 40 in
  let dir = Filename.temp_file "mrpa_bench_cost" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let run_mix admission =
    let socket_path =
      Filename.concat dir (if admission then "on.sock" else "off.sock")
    in
    let server, serve_thread =
      start_server ~snapshot:snap socket_path
        ?max_predicted_cost:(if admission then Some ceiling else None)
    in
    let rejected = Atomic.make 0 in
    let options =
      (* the heavy star is deadline-bounded so the no-admission baseline
         terminates; with admission it never reaches a worker at all *)
      { Wire.default_options with max_length = Some max_length;
        limit = Some 100; deadline_ms = Some 25.0 }
    in
    let t0 = Metrics.now_ns () in
    let client_threads =
      List.init clients (fun _ ->
          Thread.create
            (fun () ->
              match Client.connect (Wire.Unix_socket socket_path) with
              | Error m -> Printf.eprintf "EXP-T15 client: %s\n" m
              | Ok conn ->
                for i = 0 to per_client - 1 do
                  let query = if i mod 4 = 0 then expensive else cheap in
                  let req =
                    {
                      Wire.id = Sjson.Null;
                      verb = Wire.Query;
                      query = Some query;
                      options;
                    }
                  in
                  (match Client.request conn req with
                  | Ok j ->
                    let code =
                      Option.bind (Sjson.member "error" j) (fun e ->
                          Option.bind (Sjson.member "code" e)
                            Sjson.to_string_opt)
                    in
                    if code = Some "infeasible" then Atomic.incr rejected
                  | Error m -> Printf.eprintf "EXP-T15 request: %s\n" m)
                done;
                Client.close conn)
            ())
    in
    List.iter Thread.join client_threads;
    let wall_s = Int64.to_float (Metrics.elapsed_ns ~since:t0) /. 1e9 in
    Server.stop server;
    Thread.join serve_thread;
    let total = clients * per_client in
    let qps = float_of_int total /. max 1e-9 wall_s in
    (qps, Atomic.get rejected)
  in
  let qps_off, _ = run_mix false in
  let qps_on, rejected_on = run_mix true in
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let delta = 100.0 *. ((qps_on /. qps_off) -. 1.0) in
  cost_rows :=
    Printf.sprintf
      "{\"admission\":false,\"qps\":%.1f}" qps_off
    :: Printf.sprintf
         "{\"admission\":true,\"qps\":%.1f,\"rejected\":%d,\"qps_delta_pct\":%.1f}"
         qps_on rejected_on delta
    :: !cost_rows;
  print_table
    ~title:
      (Printf.sprintf
         "closed loop, %d clients x %d requests, 1-in-4 heavy star (ceiling %d units)"
         clients per_client ceiling)
    ~header:[ "admission"; "qps"; "rejected"; "delta" ]
    [
      [ "off"; Printf.sprintf "%.0f" qps_off; "0"; "-" ];
      [
        "on";
        Printf.sprintf "%.0f" qps_on;
        string_of_int rejected_on;
        Printf.sprintf "%+.1f%%" delta;
      ];
    ]

(* --- EXP-T16: caches under an open-loop zipfian load --------------------------- *)

(* This experiment runs over a Unix socket, where TCP_NODELAY does not
   apply; the server and client now set TCP_NODELAY on every TCP socket
   (Net.set_nodelay). Measured on TCP loopback with a synchronous ping
   loop whose request bytes hit the socket in two writes (the
   Nagle-pathological write-write-read shape a buffered pipelining client
   produces): p50 44.0 ms / p95 44.3 ms before (Nagle x delayed-ACK
   stalls every round trip), p50 0.017 ms / p95 0.031 ms after — three
   orders of magnitude, and the reason the option is unconditional rather
   than a flag. *)

(* Rows recorded by exp_zipf for the --json summary ("zipf" section of
   mrpa.bench/1); empty when the experiment was not selected. *)
let zipf_rows : string list ref = ref []

(* Zipfian rank sampler: weight(rank r) = 1/r^s over [1..n], inverse-CDF
   over the cumulative weights. Deterministic under the bench Prng. *)
let zipf_sequence rng ~n ~s ~count =
  let weights = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun i w ->
      total := !total +. w;
      cum.(i) <- !total)
    weights;
  Array.init count (fun _ ->
      let u = Prng.float rng !total in
      let rec find i = if u <= cum.(i) || i = n - 1 then i else find (i + 1) in
      find 0)

let exp_zipf ~full =
  section "EXP-T16 (caches under zipfian load)"
    "Open-loop load against mrpa serve: one pipelined connection, a sender\n\
     that fires requests on a fixed schedule regardless of responses (so\n\
     queueing delay is charged to latency — no coordinated omission), and\n\
     a receiver matching responses back by id. The query stream is a\n\
     zipfian draw over a small hot set, the regime the compiled-plan and\n\
     result caches are built for. Three configurations, same request\n\
     sequence: caches off, plan cache only, plan + result caches.";
  let g =
    Generate.fig1 ~rng:(Prng.create 7)
      ~n_noise_vertices:(if full then 200 else 60)
      ~n_noise_edges:(if full then 600 else 180)
  in
  (* The hot set: anchored and unanchored shapes over the Figure 1 core,
     all parseable against fig1+noise, cheap enough to answer under the
     default ceilings yet real enough that evaluation dominates a parse. *)
  let hot_set =
    [|
      "[i,alpha,_] . [_,beta,_]*";
      "[j,alpha,_] . [_,beta,_]*";
      "[_,alpha,j]";
      "[_,alpha,k]";
      "[i,alpha,_] . [_,alpha,_]";
      "[j,beta,_] . [_,beta,_]";
      "[_,beta,_] . [_,alpha,j]";
      "[i,alpha,_] | [j,beta,_]";
      "[i,alpha,_] . [_,beta,_] . [_,alpha,_]";
      "[n0,beta,_] . [_,alpha,_]";
      "[n1,alpha,_] . [_,beta,_]*";
      "[_,alpha,_] . [_,beta,_]";
    |]
  in
  let request_options =
    { Wire.default_options with max_length = Some 4; limit = Some 50 }
  in
  let total = if full then 5_000 else 1_000 in
  let rate = if full then 5_000.0 else 2_500.0 in
  let sequence =
    zipf_sequence (Prng.create 99) ~n:(Array.length hot_set) ~s:1.1
      ~count:total
  in
  let dir = Filename.temp_file "mrpa_bench_zipf" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let run_config (name, plan_cap, result_cap) =
    let snap =
      Snapshot.of_graph ~plan_cache_capacity:plan_cap
        ~result_cache_capacity:result_cap g
    in
    let socket_path = Filename.concat dir (name ^ ".sock") in
    let server, serve_thread = start_server ~snapshot:snap socket_path in
    match Client.connect (Wire.Unix_socket socket_path) with
    | Error m -> failwith ("EXP-T16 connect: " ^ m)
    | Ok conn ->
      let scheduled = Array.make total 0.0 in
      let latencies = Array.make total nan in
      let ok = Atomic.make 0
      and overloaded = Atomic.make 0
      and other = Atomic.make 0 in
      let t_done = ref 0.0 in
      (* Receiver first: it must drain while the sender floods, or the
         server could block writing responses into a full socket buffer
         while the sender blocks writing requests — a pipelining deadlock. *)
      let receiver =
        Thread.create
          (fun () ->
            for _ = 1 to total do
              match Client.receive conn with
              | Error m -> Printf.eprintf "EXP-T16 receive: %s\n" m
              | Ok j -> (
                let now = Unix.gettimeofday () in
                match Option.bind (Sjson.member "ok" j) Sjson.to_bool_opt with
                | Some true ->
                  Atomic.incr ok;
                  (* only answered requests are charged to the latency
                     distribution — a shed request is fast by definition *)
                  (match Client.response_id j with
                  | Sjson.Number f ->
                    let i = int_of_float f - 1 in
                    if i >= 0 && i < total then
                      latencies.(i) <- now -. scheduled.(i)
                  | _ -> ())
                | _ ->
                  let code =
                    Option.bind (Sjson.member "error" j) (fun e ->
                        Option.bind (Sjson.member "code" e) Sjson.to_string_opt)
                  in
                  if code = Some "overloaded" then Atomic.incr overloaded
                  else Atomic.incr other)
            done;
            t_done := Unix.gettimeofday ())
          ()
      in
      let t0 = Unix.gettimeofday () in
      for i = 0 to total - 1 do
        let due = t0 +. (float_of_int i /. rate) in
        let now = Unix.gettimeofday () in
        if due -. now > 0.002 then Thread.delay (due -. now);
        (* open loop: a late sender charges the delay to the request *)
        scheduled.(i) <- due;
        let req =
          {
            Wire.id = Sjson.Number (float_of_int (i + 1));
            verb = Wire.Query;
            query = Some hot_set.(sequence.(i));
            options = request_options;
          }
        in
        match Client.send conn req with
        | Ok () -> ()
        | Error m -> Printf.eprintf "EXP-T16 send: %s\n" m
      done;
      Thread.join receiver;
      Client.close conn;
      Server.stop server;
      Thread.join serve_thread;
      let wall_s = max 1e-9 (!t_done -. t0) in
      let ok_lat =
        Array.of_list
          (List.filter
             (fun l -> not (Float.is_nan l))
             (Array.to_list latencies))
      in
      Array.sort compare ok_lat;
      let p50 = percentile ok_lat 0.50 *. 1e3
      and p95 = percentile ok_lat 0.95 *. 1e3 in
      let ok = Atomic.get ok
      and overloaded = Atomic.get overloaded
      and other = Atomic.get other in
      let ok_qps = float_of_int ok /. wall_s in
      let plan_hits, plan_misses = Snapshot.plan_cache_stats snap in
      let res_hits, res_misses, _ = Snapshot.result_cache_stats snap in
      let rate_of h m =
        if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
      in
      zipf_rows :=
        Printf.sprintf
          "{\"config\":\"%s\",\"requests\":%d,\"offered_qps\":%.0f,\"ok\":%d,\"overloaded\":%d,\"other\":%d,\"ok_qps\":%.1f,\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"parses\":%d,\"plan_hit_rate\":%.3f,\"result_hit_rate\":%.3f}"
          name total rate ok overloaded other ok_qps p50 p95
          (Snapshot.parse_count snap)
          (rate_of plan_hits plan_misses)
          (rate_of res_hits res_misses)
        :: !zipf_rows;
      [
        name;
        string_of_int ok;
        string_of_int overloaded;
        Printf.sprintf "%.0f" ok_qps;
        Printf.sprintf "%.2f" p50;
        Printf.sprintf "%.2f" p95;
        string_of_int (Snapshot.parse_count snap);
        Printf.sprintf "%.1f%%" (100.0 *. rate_of plan_hits plan_misses);
        Printf.sprintf "%.1f%%" (100.0 *. rate_of res_hits res_misses);
      ]
  in
  let rows =
    List.map run_config
      [
        ("caches-off", 0, 0);
        ("plan-only", 1024, 0);
        ("plan+result", 1024, 256);
      ]
  in
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  print_table
    ~title:
      (Printf.sprintf
         "zipf(s=1.1) over %d hot queries, %d requests offered at %.0f/s, \
          2 workers"
         (Array.length hot_set) total rate)
    ~header:
      [
        "config"; "ok"; "shed"; "ok qps"; "p50 ms"; "p95 ms"; "parses";
        "plan hit"; "result hit";
      ]
    rows

(* --- Machine-readable summary (--json) ---------------------------------------- *)

(* A fixed set of representative engine runs whose mrpa.profile/1 documents
   are embedded in the bench summary: the Figure 1 query under each
   evaluation strategy, plus the counting DP on K6 x 2 labels. Committed
   baselines (BENCH_pr*.json) diff these counters across PRs; counters are
   deterministic, timings are environment-dependent. *)
let bench_profiles () =
  let g =
    Generate.fig1 ~rng:(Prng.create 42) ~n_noise_vertices:20 ~n_noise_edges:60
  in
  let query =
    "[i,alpha,_] . [_,beta,_]* . (([_,alpha,j] . {(j,alpha,i)}) | [_,alpha,k])"
  in
  let engine_runs =
    List.filter_map
      (fun (name, strategy) ->
        match
          Mrpa_engine.Engine.query_profiled ?strategy ~max_length:5 g query
        with
        | Ok (_, m) -> Some (name, Metrics.to_json m)
        | Error _ -> None)
      [
        ("fig1-reference", Some Mrpa_engine.Plan.Reference);
        ("fig1-stack", Some Mrpa_engine.Plan.Stack_machine);
        ("fig1-bfs", Some Mrpa_engine.Plan.Product_bfs);
      ]
  in
  let counting_run =
    let g = Generate.complete ~n:6 ~n_labels:2 in
    let r = Expr.star (Expr.sel Selector.universe) in
    let st = Counting.fresh_stats () in
    let m = Metrics.create () in
    let total = Metrics.time m "execute" (fun () -> Counting.count ~stats:st g r ~max_length:4) in
    Metrics.set m "counting.total" total;
    Metrics.set m "counting.subset_states" st.Counting.subset_states;
    Metrics.set m "counting.peak_configs" st.Counting.peak_configs;
    ("counting-K6-Estar", Metrics.to_json m)
  in
  engine_runs @ [ counting_run ]

let bench_json ~full ~timings =
  let esc = Metrics.escape_string in
  let experiments =
    String.concat ","
      (List.map
         (fun (name, ns) ->
           Printf.sprintf "{\"name\":%s,\"elapsed_ns\":%Ld}" (esc name) ns)
         timings)
  in
  let profiles =
    String.concat ","
      (List.map
         (fun (name, json) ->
           Printf.sprintf "{\"name\":%s,\"profile\":%s}" (esc name) json)
         (bench_profiles ()))
  in
  let journal = String.concat "," !journal_rows in
  let cost = String.concat "," (List.rev !cost_rows) in
  let zipf = String.concat "," (List.rev !zipf_rows) in
  Printf.sprintf
    "{\"schema\":\"mrpa.bench/1\",\"scale\":%s,\"experiments\":[%s],\"journal\":[%s],\"cost\":[%s],\"zipf\":[%s],\"profiles\":[%s]}"
    (esc (if full then "full" else "default"))
    experiments journal cost zipf profiles

(* --- Driver ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", exp_fig1);
    ("micro", exp_micro);
    ("join-vs-product", exp_join_vs_product);
    ("traversals", exp_traversals);
    ("join-order", exp_join_order);
    ("recognizers", exp_recognizers);
    ("generators", exp_generators);
    ("counting", exp_counting);
    ("label-regex", exp_label_regex);
    ("optimizer", exp_optimizer);
    ("semirings", exp_semirings);
    ("projection", exp_projection);
    ("views", exp_views);
    ("label-loss", exp_label_loss);
    ("guardrails", exp_guardrails);
    ("journal", exp_journal);
    ("cost", exp_cost);
    ("zipf", exp_zipf);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let rec extract_json acc = function
    | [] -> (None, List.rev acc)
    | [ "--json" ] ->
      prerr_endline "--json requires a FILE argument";
      exit 2
    | "--json" :: file :: rest -> (Some file, List.rev_append acc rest)
    | a :: rest -> extract_json (a :: acc) rest
  in
  let json_file, args = extract_json [] args in
  let selected = List.filter (fun a -> a <> "--full") args in
  let to_run =
    match selected with
    | [] | [ "all" ] -> experiments
    | names ->
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> (name, f)
          | None ->
            Printf.eprintf "unknown experiment %S; available: %s all\n" name
              (String.concat " " (List.map fst experiments));
            exit 2)
        names
  in
  Printf.printf "mrpa experiment harness — %d experiment(s), scale=%s\n"
    (List.length to_run)
    (if full then "full" else "default");
  let timings =
    List.map
      (fun (name, f) ->
        let t0 = Metrics.now_ns () in
        f ~full;
        (name, Metrics.elapsed_ns ~since:t0))
      to_run
  in
  (match json_file with
  | None -> ()
  | Some file ->
    let json = bench_json ~full ~timings in
    let oc = open_out file in
    output_string oc (json ^ "\n");
    close_out oc;
    Printf.printf "\nwrote %s\n" file);
  Printf.printf "\nDone.\n"
