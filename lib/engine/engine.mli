(** The multi-relational graph traversal engine façade: parse → optimise →
    execute. This is the "traversal engine" the paper positions the algebra
    as a foundation for (§I, §V). *)

open Mrpa_graph
open Mrpa_core

type result = {
  paths : Path_set.t;
  plan : Plan.t;
  verdict : Err.verdict;
      (** [Complete], or [Partial reason] when a budget bound or a limit
          stopped the run and [paths] is a sound subset of the denotation. *)
  stats : Eval.stats;
}

val query :
  ?strategy:Plan.strategy ->
  ?simple:bool ->
  ?stats:Stat.profile ->
  ?max_length:int ->
  ?limit:int ->
  ?budget:Budget.t ->
  Digraph.t ->
  string ->
  (result, string) Stdlib.result
(** Run a textual query (grammar in {!Parser}) against a graph.
    [max_length] (default 8) bounds star unrolling; [limit] stops after that
    many distinct paths; [simple] restricts to simple paths (ref. \[8\]).
    [budget] governs the run ({!Budget}): when a deadline, fuel, memory
    bound or cancellation trips, the run stops at the next checkpoint and
    the result carries a partial verdict instead of failing. Parse errors
    are returned as [Error] with offset information rendered in. *)

val query_exn :
  ?strategy:Plan.strategy ->
  ?simple:bool ->
  ?stats:Stat.profile ->
  ?max_length:int ->
  ?limit:int ->
  ?budget:Budget.t ->
  Digraph.t ->
  string ->
  result
(** Like {!query}; raises [Failure] on error. *)

val query_profiled :
  ?strategy:Plan.strategy ->
  ?simple:bool ->
  ?stats:Stat.profile ->
  ?max_length:int ->
  ?limit:int ->
  ?budget:Budget.t ->
  Digraph.t ->
  string ->
  (result * Metrics.t, string) Stdlib.result
(** Like {!query}, but the whole pipeline — parse, lint (which {!query}
    skips), optimize, execute — runs under a fresh {!Metrics} collector
    whose stage timings and backend counters are returned alongside the
    result: the engine's EXPLAIN ANALYZE. [stats.elapsed_s] is the execute
    stage's time. Governed runs additionally record [budget.*] counters. *)

val query_expr :
  ?strategy:Plan.strategy ->
  ?simple:bool ->
  ?stats:Stat.profile ->
  ?max_length:int ->
  ?limit:int ->
  ?budget:Budget.t ->
  Digraph.t ->
  Expr.t ->
  result
(** Programmatic entry point, skipping the parser. *)

val query_plan :
  ?strategy:Plan.strategy ->
  ?limit:int ->
  ?budget:Budget.t ->
  Digraph.t ->
  Plan.t ->
  result
(** Execute an already-built plan, skipping parse and optimise entirely —
    the entry point the server's compiled-plan cache feeds. Equivalent to
    {!query_expr} on [plan.original] with the plan's own max_length and
    simple flag, and its strategy unless [strategy] forces another
    ({!Plan.with_strategy}). *)

val count_plan :
  ?strategy:Plan.strategy ->
  ?limit:int ->
  ?budget:Budget.t ->
  Digraph.t ->
  Plan.t ->
  int * Err.verdict
(** The number of distinct paths a plan denotes, and its verdict: the one
    count rule every front door ([mrpa query --count], the shell's
    [:count], the server's [count] verb) goes through. With no [strategy],
    no [limit] and a plan that is not [simple], the count comes from
    {!Mrpa_automata.Counting} over the plan's optimised expression at its
    length bound — no path set is materialised, and a tripped budget yields
    the count over fully completed levels (a sound lower bound). Otherwise
    the plan runs as {!query_plan} does, under [strategy] when one is
    forced and with [limit] pushed down, and the count is the size of that
    answer with its verdict (so a limit below the true count reports
    [Partial Limit]).

    @raise Mrpa_automata.Counting.Overflow when the count exceeds
    [max_int]; a count never wraps. *)

val count_expr :
  ?strategy:Plan.strategy ->
  ?simple:bool ->
  ?max_length:int ->
  ?limit:int ->
  ?budget:Budget.t ->
  Digraph.t ->
  Expr.t ->
  int * Err.verdict
(** {!count_plan} over the plan {!query_expr} would run. *)

val count_governed :
  ?strategy:Plan.strategy ->
  ?simple:bool ->
  ?max_length:int ->
  ?limit:int ->
  ?budget:Budget.t ->
  Digraph.t ->
  string ->
  (int * Err.verdict, string) Stdlib.result
(** {!count_expr} on a textual query; [Error] carries a rendered parse
    error, or {!overflow_error}. *)

val overflow_error : string
(** The error every front door reports for a count past [max_int]
    ({!Mrpa_automata.Counting.Overflow}). *)

val count :
  ?max_length:int -> Digraph.t -> string -> (int, string) Stdlib.result
(** The ungoverned plain count: {!count_governed} without a verdict. *)

val equivalent :
  Digraph.t -> string -> string -> (bool, string) Stdlib.result
(** Are two queries equivalent over this graph's edge universe at {e every}
    length (no bound)? Decided symbolically via
    {!Mrpa_automata.Dfa.equivalent} on the optimised forms. *)

val explain :
  ?stats:Stat.profile ->
  ?max_length:int ->
  Digraph.t ->
  string ->
  (string, string) Stdlib.result
(** The plan that {!query} would run — including its cost table — rendered
    as text, without running it. *)

val lint :
  ?signature:Mrpa_lint.Signature.t ->
  ?stats:Stat.profile ->
  ?max_length:int ->
  ?fuel:int ->
  ?deadline_ms:float ->
  Digraph.t ->
  string ->
  (Mrpa_lint.Diagnostic.t list, string) Stdlib.result
(** Statically analyse a textual query against a graph without running it:
    parse with spans, then {!Mrpa_lint.Lint.analyze} (emptiness abstract
    interpretation over the label signature, Glushkov dead-position
    checks, and the {!Mrpa_lint.Cost} cardinality/cost analysis at
    [max_length], default 8). [fuel] / [deadline_ms] enable the L012
    budget-feasibility check. [Error] carries a rendered parse error. Pass
    [?signature] / [?stats] to amortise the graph abstractions across
    queries. *)

val default_max_length : int
