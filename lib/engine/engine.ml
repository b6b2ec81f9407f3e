open Mrpa_core

type result = {
  paths : Path_set.t;
  plan : Plan.t;
  verdict : Err.verdict;
  stats : Eval.stats;
}

let default_max_length = 8

let query_plan ?strategy ?limit ?budget g plan =
  let plan = Option.fold ~none:plan ~some:(Plan.with_strategy plan) strategy in
  let o = Eval.run_governed ?limit ?budget g plan in
  { paths = o.Eval.paths; plan; verdict = o.Eval.verdict; stats = o.Eval.stats }

let query_expr ?strategy ?simple ?stats ?(max_length = default_max_length)
    ?limit ?budget g expr =
  let plan = Optimizer.plan ?strategy ?simple ?stats ~max_length g expr in
  query_plan ?limit ?budget g plan

let query ?strategy ?simple ?stats ?max_length ?limit ?budget g text =
  match Parser.parse g text with
  | Error e -> Error (Parser.render_error ~source:text e)
  | Ok expr ->
    Ok (query_expr ?strategy ?simple ?stats ?max_length ?limit ?budget g expr)

let query_exn ?strategy ?simple ?stats ?max_length ?limit ?budget g text =
  match query ?strategy ?simple ?stats ?max_length ?limit ?budget g text with
  | Ok r -> r
  | Error message -> failwith message

(* The profiled pipeline runs every stage — including the static analyzer,
   which [query] skips — under one metrics collector, so the profile shows
   where a query's time goes end to end. The lint stage profiles the graph
   and analyses the cost once; the planner reuses both, as
   [Snapshot.compile] does. *)
let query_profiled ?strategy ?simple ?stats ?(max_length = default_max_length)
    ?limit ?budget g text =
  let m = Metrics.create () in
  match Metrics.time m "parse" (fun () -> Parser.parse_spanned g text) with
  | Error e -> Error (Parser.render_error ~source:text e)
  | Ok spanned ->
    let expr = Spanned.strip spanned in
    let stats, cost, diags =
      Metrics.time m "lint" (fun () ->
          let stats =
            match stats with
            | Some s -> s
            | None -> Mrpa_graph.Stat.profile g
          in
          let cost = Mrpa_lint.Cost.analyze ~stats g ~max_length spanned in
          (stats, cost, Mrpa_lint.Lint.analyze ~cost ~max_length g spanned))
    in
    Metrics.set m "lint.findings" (List.length diags);
    let plan =
      Metrics.time m "optimize" (fun () ->
          Optimizer.plan ?strategy ?simple ~stats ~cost ~max_length g expr)
    in
    let paths, verdict =
      Metrics.time m "execute" (fun () ->
          Eval.execute_verdict ?limit ~metrics:m ?budget g plan)
    in
    let elapsed_s =
      match Metrics.stage_ns m "execute" with
      | Some ns -> Int64.to_float ns /. 1e9
      | None -> 0.0
    in
    let stats = { Eval.paths = Path_set.cardinal paths; elapsed_s } in
    Ok ({ paths; plan; verdict; stats }, m)

(* The one count rule every front door shares. A plain count — no simple
   restriction, no limit, no forced strategy — runs the Counting DP over
   the query automaton and materialises nothing. Any of those three changes
   the answer set (or how it is produced), so the count is then the size
   of the materialised answer, limit pushed down, with its verdict. *)
let count_plan ?strategy ?limit ?budget g (plan : Plan.t) =
  match (strategy, limit) with
  | None, None when not plan.Plan.simple ->
    let guard =
      match budget with None -> Guard.none | Some b -> Budget.guard b
    in
    let n =
      Mrpa_automata.Counting.count ~guard g plan.Plan.optimized
        ~max_length:plan.Plan.max_length
    in
    (n, Budget.verdict ~returned:n budget)
  | _ ->
    let r = query_plan ?strategy ?limit ?budget g plan in
    (Path_set.cardinal r.paths, r.verdict)

let count_expr ?strategy ?simple ?(max_length = default_max_length) ?limit
    ?budget g expr =
  count_plan ?strategy ?limit ?budget g
    (Optimizer.plan ?simple ~max_length g expr)

let overflow_error =
  Printf.sprintf "path count exceeds max_int (%d); lower the length bound"
    max_int

let count_governed ?strategy ?simple ?max_length ?limit ?budget g text =
  match Parser.parse g text with
  | Error e -> Error (Parser.render_error ~source:text e)
  | Ok expr -> (
    match count_expr ?strategy ?simple ?max_length ?limit ?budget g expr with
    | counted -> Ok counted
    | exception Mrpa_automata.Counting.Overflow -> Error overflow_error)

let count ?max_length g text =
  Stdlib.Result.map fst (count_governed ?max_length g text)

let equivalent g text1 text2 =
  match (Parser.parse g text1, Parser.parse g text2) with
  | Error e, _ -> Error (Parser.render_error ~source:text1 e)
  | _, Error e -> Error (Parser.render_error ~source:text2 e)
  | Ok e1, Ok e2 ->
    let e1', _ = Optimizer.simplify e1 in
    let e2', _ = Optimizer.simplify e2 in
    Ok (Mrpa_automata.Dfa.equivalent g e1' e2')

let explain ?stats ?(max_length = default_max_length) g text =
  match Parser.parse g text with
  | Error e -> Error (Parser.render_error ~source:text e)
  | Ok expr ->
    let plan = Optimizer.plan ?stats ~max_length g expr in
    Ok (Format.asprintf "%a" (Plan.pp_named g) plan)

let lint ?signature ?stats ?(max_length = default_max_length) ?fuel
    ?deadline_ms g text =
  match Parser.parse_spanned g text with
  | Error e -> Error (Parser.render_error ~source:text e)
  | Ok spanned ->
    Ok (Mrpa_lint.Lint.analyze ?signature ?stats ~max_length ?fuel ?deadline_ms g spanned)
