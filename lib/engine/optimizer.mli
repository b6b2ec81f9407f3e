(** Algebraic query optimisation.

    Two stages:

    + {!simplify}: a bottom-up rewriting fixpoint over identities of the
      algebra (all are theorems of §II's definitions and are covered by the
      property-test suite):
      - [∅ | r → r], [r | r → r], [ε | r → r] when [r] is nullable
      - [∅ . r → ∅], [ε . r → r] (and symmetrically; likewise for [><])
      - star collapses: empty and epsilon stars, nested stars, epsilon-stripped
        stars, and the join of a star with itself
      - selector fusion: [\[A\] | \[B\] → \[A ∪ B\]] (one automaton
        position instead of two)
    + {!choose_strategy}: anchored expressions (whose first automaton
      positions select few edges, per {!Mrpa_core.Selector.size_hint}) run
      as {!Plan.Product_bfs}, since the adjacency indices prune their
      frontier. Unanchored expressions are decided by the {e predicted
      frontier width} of the static cost analysis
      ({!Mrpa_lint.Cost.t.peak_frontier}): moderate frontiers run as the
      set-at-a-time {!Plan.Stack_machine} (batching amortises per-path
      overhead), frontiers past {!frontier_threshold} fall back to
      path-at-a-time product BFS, whose step-granular budget checkpoints
      and streaming memory survive blowups that would explode a single
      whole-level join. *)

open Mrpa_graph
open Mrpa_core

val simplify : Expr.t -> Expr.t * string list
(** Rewritten expression plus the names of rewrites that fired (in firing
    order, deduplicated). The result denotes the same path set. *)

val simplify_notes :
  Expr.t -> Expr.t * string list * Mrpa_lint.Diagnostic.t list
(** Like {!simplify}, but additionally returns one [L009] lint note per
    subexpression a rewrite proved empty (plus one when the whole query
    rewrites to [∅]). The notes carry no source span — the rewriter works
    on span-less expressions — and end up in {!Plan.t.notes}. *)

val frontier_threshold : int
(** Predicted frontier width above which an unanchored query abandons
    set-at-a-time batching. *)

val choose_strategy :
  Digraph.t -> Mrpa_lint.Cost.t -> Expr.t -> Plan.strategy * string
(** Strategy and a human-readable reason, decided from the cost analysis
    of the (already simplified) expression. *)

val plan :
  ?strategy:Plan.strategy ->
  ?simple:bool ->
  ?stats:Mrpa_graph.Stat.profile ->
  ?cost:Mrpa_lint.Cost.t ->
  max_length:int ->
  Digraph.t ->
  Expr.t ->
  Plan.t
(** Build a full plan; [?strategy] overrides the heuristic; [?simple]
    (default false) restricts results to simple paths.

    [?cost] is the caller's analysis of [expr] itself at [max_length]
    (e.g. {!Mrpa_lint.Cost.analyze} of the spanned text). When no rewrite
    fires, the plan uses that record as its [cost] instead of analysing
    again; its diagnostics, and so the plan's notes, then keep their
    source spans. Otherwise the optimised form is analysed with [?stats]
    as the degree profile, or with a fresh {!Mrpa_graph.Stat.profile}
    ([O(|V|+|E|)]) when none is given. *)
