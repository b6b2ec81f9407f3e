(** Uniform random sampling from a denoted path set — without enumerating
    it.

    [denote(r)] can be astronomically large while still admitting exact
    counting ({!Counting}); the classic count-then-sample construction turns
    those counts into an {e exactly uniform} sampler: suffix-completion
    counts [N_t(config)] (the number of accepted continuations consuming
    exactly [t] more edges) are memoised over the deterministic
    {!Subset}-machine configurations, a target length is drawn proportional
    to [N_t(initial)], and each edge is then chosen with probability
    proportional to the completions it leads to. Every denoted path of
    length at most the bound is returned with probability [1/|denote|].

    Uses: statistical estimation over huge path populations (mean cost,
    property prevalence), randomised testing, and Monte-Carlo baselines for
    the exact semiring aggregations. *)

open Mrpa_graph
open Mrpa_core

type t
(** A prepared sampler: expression compiled, counts memoised on demand.
    Reusable across draws; single-threaded. *)

val prepare : Digraph.t -> Expr.t -> max_length:int -> t

val population : t -> int
(** [|denote|] within the bound — equal to {!Counting.count}
    (property-tested).

    @raise Counting.Overflow when a count exceeds [max_int]. *)

val draw : t -> Prng.t -> Path.t option
(** One uniform draw; [None] when the denoted set is empty.

    @raise Counting.Overflow when the population exceeds [max_int]. *)

val sample : t -> Prng.t -> int -> Path.t list
(** [sample t rng n]: [n] independent uniform draws (with replacement).
    Empty list when the population is empty. Raises as {!draw}. *)

val sample_expr :
  rng:Prng.t -> Digraph.t -> Expr.t -> max_length:int -> int -> Path.t list
(** One-shot convenience: prepare and sample. *)
