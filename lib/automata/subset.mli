(** Shared lazy subset-construction runtime.

    {!Lazy_dfa} (recognition), {!Counting} (path counting) and
    {!Mrpa_semiring.Eval} (weighted aggregation) all walk the same
    deterministic machine: position sets of the Glushkov automaton, stepped
    by the (signature mask, adjacency bit) quotient letters of
    {!Edge_signature}, with states interned on demand. This module is that
    machine, factored out once.

    Determinism is the load-bearing property: each path corresponds to
    exactly one trajectory of interned states, so trajectory-level dynamic
    programming aggregates each path exactly once. *)

open Mrpa_graph
open Mrpa_core

type t

val make : Expr.t -> t
(** Compile an expression; no subset states are built yet. The value is
    mutable internally (state/transition caches) and single-threaded. *)

val initial : t -> int
(** The interned start state (the configuration holding only the Glushkov
    initial position). *)

val step : t -> int -> mask:int -> adj:bool -> int
(** Deterministic transition on a quotient letter, interning the successor
    on first use. *)

val step_edge : t -> int -> prev:Edge.t option -> Edge.t -> int
(** Convenience: compute the letter from a concrete edge and its
    predecessor ([prev = None] means this is the first edge). *)

val accepting : t -> int -> bool

val is_dead : t -> int -> bool
(** The empty configuration: no run can continue. *)

val mask_of_edge : t -> Edge.t -> int
(** Signature of an edge under the expression's selector alphabet. *)

val first_edges : t -> Digraph.t -> Edge.t list
(** The edges a first step can consume: the union of
    {!Mrpa_core.Selector.matching} over the Glushkov [first] positions,
    each edge once (an edge matching two first positions is still one
    path). Every consumer seeds its first level from this list, so an
    anchored expression touches only the anchor's neighbourhood. *)

val free_steps : t -> Digraph.t -> int -> Vertex.t -> Edge.t list
(** [free_steps m g] is the candidate function for adjacency-free steps:
    [free_steps m g state v] lists the edges of [g] not leaving [v] when
    some adjacency-false letter leads anywhere from [state], and [[]]
    otherwise — then only out-edges of [v] can extend a trajectory, the
    common pure-join case. The graph's signatures and edge list are built
    on the first call that needs them, and never when the expression has
    no {!Glushkov.Free} follow pair (no [×∘]). Apply it once per run and
    reuse the result. *)

val n_cached_states : t -> int
(** Diagnostic: subset states materialised so far. *)

val nullable : t -> bool
(** Does the compiled expression accept [ε]? *)
