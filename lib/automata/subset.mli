(** Shared lazy subset-construction runtime.

    Recognition ({!Recognizer}'s lazy-DFA strategy, {!accepts}),
    {!Counting} (path counting), {!Sampler} (uniform sampling),
    {!Mrpa_semiring.Eval} (weighted aggregation) and
    {!Mrpa_semiring.Witness} (cheapest witnesses) all walk the same
    deterministic machine: position sets of the Glushkov automaton, stepped
    by the (signature mask, adjacency bit) quotient letters of
    {!Edge_signature}, with states interned on demand. This module is that
    machine, factored out once, and {!iter_next} is the one product step
    through which every dynamic program reads the graph.

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

val accepting : t -> int -> bool

val accepts : t -> Path.t -> bool
(** Recognition: run the path's edges through the machine. No graph is
    needed — states materialise from the edges actually seen — so one [t]
    recognises a stream of paths, reusing its cache across calls. *)

(** {1 The automaton × graph product} *)

type product
(** The machine paired with a graph. Holds the first-step candidates (built
    once, on first use) and the adjacency-free candidates of [×∘] steps
    (built only when the expression has one). Shares [t]'s caches, so it is
    single-threaded too. *)

val product : t -> Digraph.t -> product

val iter_next : product -> int -> int -> (Edge.t -> int -> unit) -> unit
(** [iter_next p state vertex f] calls [f e state'] for every live successor
    of the configuration [(state, vertex)]: [e] is the consumed edge and
    [state'] the non-dead state it leads to, so the next configuration is
    [(state', head e)]. Vertex [-1] means before the first edge: the
    candidates are then the edges matched by a Glushkov [first] position,
    each once (an edge matching two first positions is still one path), so
    an anchored expression touches only the anchor's neighbourhood.
    Otherwise they are the out-edges of [vertex] (adjacent) and, when some
    adjacency-free letter leads anywhere from [state], the edges not leaving
    [vertex] (a [×∘] step). *)

val n_cached_states : t -> int
(** Diagnostic: subset states materialised so far. *)

val nullable : t -> bool
(** Does the compiled expression accept [ε]? *)
