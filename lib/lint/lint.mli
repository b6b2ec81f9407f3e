(** The static analyzer: every diagnostic source behind one call.

    Runs after parsing and before planning. Combines the graph-aware
    {!Emptiness} abstract interpretation (dead union arms, never-adjacent
    joins, stars that cannot iterate, selectors matching no edge) with the
    graph-independent {!Automaton_check} over the Glushkov position
    automaton (unreachable and non-coaccessible selector occurrences) and
    the {!Cost} cardinality/cost analysis (combinatorial blowups,
    budget-infeasible queries, zero selectivity under the length bound).

    See {!Diagnostic} for the full code table. *)

open Mrpa_graph
open Mrpa_core

val default_max_length : int
(** 8 — mirrors the engine's default star-unrolling bound. *)

val analyze :
  ?signature:Signature.t ->
  ?stats:Stat.profile ->
  ?cost:Cost.t ->
  ?max_length:int ->
  ?fuel:int ->
  ?deadline_ms:float ->
  Digraph.t ->
  Spanned.t ->
  Diagnostic.t list
(** All findings, deduplicated and sorted by {!Diagnostic.compare} (source
    order, most severe first). Pass [?signature] and [?stats] to reuse a
    precomputed {!Signature.t} / {!Mrpa_graph.Stat.profile} across many
    queries over the same graph (the server caches both on its snapshot).
    Pass [?cost] to reuse a {!Cost.analyze} of this same expression at
    this [max_length] (the server's plan cache holds one); it is run here
    otherwise. [max_length] is the star-unrolling bound the cost analysis
    assumes; [fuel] / [deadline_ms] enable the L012 budget-feasibility
    check. *)

val analyze_expr :
  ?signature:Signature.t ->
  ?stats:Stat.profile ->
  ?max_length:int ->
  ?fuel:int ->
  ?deadline_ms:float ->
  Digraph.t ->
  Mrpa_core.Expr.t ->
  Diagnostic.t list
(** {!analyze} on a span-less expression (all findings carry
    {!Mrpa_core.Span.dummy}); for programmatically built queries. *)
