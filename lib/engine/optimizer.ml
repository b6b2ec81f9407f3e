open Mrpa_graph
open Mrpa_core

(* One bottom-up pass; records fired rewrite names, and — when a rewrite
   {e proves} a subexpression empty — a lint note for the plan. Iterated to
   fixpoint by [simplify_notes]. *)
let rewrite_pass fired notes expr =
  let open Expr in
  let fire name result =
    fired := name :: !fired;
    result
  in
  let note_empty sub =
    let msg =
      Format.asprintf "@[subexpression %a is provably empty@]" Expr.pp sub
    in
    if not (List.mem msg !notes) then notes := !notes @ [ msg ]
  in
  let rec go : Expr.t -> Expr.t = function
    | (Empty | Epsilon | Sel _) as e -> e
    | Union (a, b) -> (
      match (go a, go b) with
      | Empty, r -> fire "union-empty" r
      | r, Empty -> fire "union-empty" r
      | Epsilon, r when Expr.nullable r -> fire "union-epsilon-nullable" r
      | r, Epsilon when Expr.nullable r -> fire "union-epsilon-nullable" r
      | r, s when Expr.equal r s -> fire "union-idempotent" r
      | Sel s1, Sel s2 -> fire "selector-fusion" (Expr.sel (Selector.union s1 s2))
      | r, s -> Union (r, s))
    | Join (a, b) -> (
      match (go a, go b) with
      | ((Empty, _) | (_, Empty)) as p ->
        let x, y = p in
        note_empty (Join (x, y));
        fire "join-empty" Expr.empty
      | Epsilon, r -> fire "join-epsilon" r
      | r, Epsilon -> fire "join-epsilon" r
      | Star r, Star s when Expr.equal r s -> fire "star-star-join" (Star r)
      | r, s -> Join (r, s))
    | Product (a, b) -> (
      match (go a, go b) with
      | ((Empty, _) | (_, Empty)) as p ->
        let x, y = p in
        note_empty (Product (x, y));
        fire "product-empty" Expr.empty
      | Epsilon, r -> fire "product-epsilon" r
      | r, Epsilon -> fire "product-epsilon" r
      | r, s -> Product (r, s))
    | Star a -> (
      match go a with
      | Empty -> fire "star-empty" Expr.epsilon
      | Epsilon -> fire "star-epsilon" Expr.epsilon
      | Star r -> fire "star-star" (Star r)
      | Union (Epsilon, r) -> fire "star-strip-epsilon" (Star r)
      | Union (r, Epsilon) -> fire "star-strip-epsilon" (Star r)
      | r -> Star r)
  in
  go expr

let simplify_notes expr =
  let fired = ref [] in
  let notes = ref [] in
  let rec fixpoint e =
    let e' = rewrite_pass fired notes e in
    if Expr.equal e e' then e else fixpoint e'
  in
  let result = fixpoint expr in
  let names = List.rev !fired in
  let dedup =
    List.fold_left
      (fun acc n -> if List.mem n acc then acc else acc @ [ n ])
      [] names
  in
  let messages =
    if Expr.equal result Expr.empty && not (Expr.equal expr Expr.empty) then
      !notes @ [ "the whole query rewrites to the empty set" ]
    else !notes
  in
  let diags =
    List.map
      (fun msg ->
        Mrpa_lint.Diagnostic.make ~code:"L009"
          ~severity:Mrpa_lint.Diagnostic.Hint msg)
      messages
  in
  (result, dedup, diags)

let simplify expr =
  let result, rewrites, _ = simplify_notes expr in
  (result, rewrites)

let first_extent g expr =
  let a = Mrpa_automata.Glushkov.build expr in
  List.fold_left
    (fun acc p -> acc + Selector.size_hint g a.selector_of.(p))
    0 a.first

(* Above this predicted frontier width, whole-level path sets stop paying
   for their batching: one set-at-a-time level can blow past any budget
   checkpoint (and any memory sense) inside a single join, while the
   path-at-a-time generator polls its budget every step. Below it,
   batching amortises the per-path overhead. *)
let frontier_threshold = 65_536

let choose_strategy g cost expr =
  let module C = Mrpa_lint.Cost in
  let m = Digraph.n_edges g in
  let extent = first_extent g expr in
  let anchored_threshold = max 8 (m / 16) in
  if extent <= anchored_threshold then
    ( Plan.Product_bfs,
      Printf.sprintf "anchored start (first extent %d <= %d)" extent
        anchored_threshold )
  else
    match cost.C.peak_frontier with
    | C.Fin w when w <= frontier_threshold ->
      ( Plan.Stack_machine,
        Printf.sprintf
          "unanchored, predicted frontier %d <= %d: set-at-a-time batching"
          w frontier_threshold )
    | w ->
      ( Plan.Product_bfs,
        Printf.sprintf
          "unanchored, predicted frontier %s > %d: path-at-a-time streaming"
          (Mrpa_lint.Interval.b_to_string w) frontier_threshold )

let plan ?strategy ?(simple = false) ?stats ?cost ~max_length g expr =
  if max_length < 0 then invalid_arg "Optimizer.plan: negative max_length";
  let optimized, rewrites, notes = simplify_notes expr in
  let cost =
    match cost with
    | Some c when rewrites = [] && c.Mrpa_lint.Cost.max_length = max_length -> c
    | _ ->
      let prof = match stats with Some p -> p | None -> Stat.profile g in
      Mrpa_lint.Cost.analyze_expr ~stats:prof g ~max_length optimized
  in
  let chosen, strategy_reason = choose_strategy g cost optimized in
  let p =
    {
      Plan.original = expr;
      optimized;
      strategy = chosen;
      max_length;
      simple;
      rewrites;
      strategy_reason;
      notes = notes @ Mrpa_lint.Cost.diagnostics cost;
      cost;
    }
  in
  match strategy with None -> p | Some s -> Plan.with_strategy p s
