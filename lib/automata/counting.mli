(** Exact path counting without enumeration.

    [|denote(r)|] grows exponentially with the length bound on cyclic
    graphs, so materialising it (as {!Generator} and {!Stack_machine} must)
    is the wrong tool when only the {e number} of paths is wanted. This
    module counts by dynamic programming over the product of the graph with
    the determinised automaton: a configuration is (subset state, current
    vertex), and because the subset automaton is deterministic on the
    (signature, adjacency) quotient, each path corresponds to exactly one
    trajectory — so trajectory counts are {e distinct path} counts, with no
    set ever materialised.

    Cost is [O(max_length · #configs · deg)] and memory is one counter per
    configuration, versus the output-sized cost of enumeration. EXP-T5b
    races the two. *)

open Mrpa_graph
open Mrpa_core

type stats = {
  mutable subset_states : int;
      (** lazy-DFA subset states interned by the run ({!Subset}). *)
  mutable peak_configs : int;
      (** high-water mark of live (state, vertex) DP configurations. *)
}

val fresh_stats : unit -> stats
(** A zeroed record; pass as [?stats] to have the count fill it in. *)

exception Overflow
(** A count exceeded [max_int]. Counts never wrap: every sum a count or a
    sample ({!Sampler}) takes goes through {!add}. *)

val add : int -> int -> int
(** Checked addition of two non-negative counts; raises {!Overflow} where
    native addition would wrap. *)

val count_by_length :
  ?stats:stats ->
  ?guard:Guard.t ->
  Digraph.t ->
  Expr.t ->
  max_length:int ->
  int array
(** [count_by_length g r ~max_length] returns an array [c] of size
    [max_length + 1] where [c.(len)] is the number of distinct paths of
    length exactly [len] denoted by [r] over [g].

    With [?guard] the DP polls once per expanded configuration (fuel cost
    1, live = configurations in the level being built). On
    {!Mrpa_core.Guard.Abort} the counts accumulated for completed lengths
    are returned as-is and later entries stay 0 — every entry is a sound
    lower bound, and lengths the run finished are exact.

    @raise Overflow when a count exceeds [max_int]. *)

val count :
  ?stats:stats -> ?guard:Guard.t -> Digraph.t -> Expr.t -> max_length:int -> int
(** Total over all lengths up to the bound — equal to
    [Path_set.cardinal (Expr.denote g ~max_length r)] (property-tested).
    Under a guard abort this is a sound lower bound (see
    {!count_by_length}).

    @raise Overflow when the total exceeds [max_int]. *)
