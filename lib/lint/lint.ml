open Mrpa_core

(* Mirrors [Engine.default_max_length]; the engine layer passes its own
   bound explicitly, this default only serves direct library callers. *)
let default_max_length = 8

let analyze ?signature ?stats ?cost ?(max_length = default_max_length) ?fuel
    ?deadline_ms g (e : Spanned.t) =
  let sg = match signature with Some s -> s | None -> Signature.make g in
  let _, emptiness = Emptiness.analyze sg g e in
  let sel_spans =
    Array.of_list (List.map fst (Spanned.sel_occurrences e))
  in
  let automaton =
    Automaton_check.check ~sel_spans g (Mrpa_automata.Glushkov.build (Spanned.strip e))
  in
  let cost =
    match cost with
    | Some c -> c
    | None ->
      let stats =
        match stats with Some p -> p | None -> Mrpa_graph.Stat.profile g
      in
      Cost.analyze ~stats g ~max_length e
  in
  let costs = Cost.diagnostics cost @ Cost.budget_check ?fuel ?deadline_ms cost in
  List.sort_uniq Diagnostic.compare (emptiness @ automaton @ costs)

let analyze_expr ?signature ?stats ?max_length ?fuel ?deadline_ms g e =
  analyze ?signature ?stats ?max_length ?fuel ?deadline_ms g (Spanned.of_expr e)
