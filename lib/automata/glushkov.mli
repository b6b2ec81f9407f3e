(** Position (Glushkov) automata for regular path expressions.

    The paper's §IV-A automata label transitions with edge {e sets} and test
    set membership (footnote 9). The Glushkov construction fits this exactly:
    each occurrence of a selector in the expression becomes one state
    ("position"), and a transition [p → q] consumes an edge matched by
    [q]'s selector.

    Where this construction earns its keep is the join/product distinction.
    In the algebra, [R ./∘ Q] only concatenates {e adjacent} paths while
    [R ×∘ Q] concatenates freely, so the constraint between two consecutive
    edges of a recognised path is decided by the {e lowest common ancestor}
    of their two positions in the syntax tree. Glushkov's [Follow] sets are
    computed structurally at exactly those ancestors, so every follow pair
    carries its boundary kind: {!Joint} pairs additionally require
    [γ⁺(previous edge) = γ⁻(next edge)], {!Free} pairs do not. No epsilon
    transitions exist, which keeps both recognition and generation simple
    and exact — including for expressions mixing [./∘] and [×∘]. *)

open Mrpa_graph
open Mrpa_core

type kind =
  | Joint  (** boundary introduced by [./∘] or [*]: adjacency required. *)
  | Free  (** boundary introduced by [×∘]: no adjacency constraint. *)

type t = private {
  expr : Expr.t;  (** the compiled expression. *)
  n_positions : int;  (** positions are numbered [1 .. n_positions]. *)
  selector_of : Selector.t array;
      (** [selector_of.(p)] for [p] in [1 .. n]; index 0 is unused. *)
  first : int list;  (** positions that may consume the first edge. *)
  follow : (int * kind) list array;
      (** [follow.(p)]: positions reachable after [p], with boundary kind. *)
  last : bool array;  (** may the expression end at this position? *)
  nullable : bool;  (** does the expression accept [ε]? *)
}

val build : Expr.t -> t
(** Compile an expression. Time and size are linear in the number of
    positions except for [Follow], which is quadratic in the worst case. *)

val n_states : t -> int
(** Positions plus the initial state. *)

val accepts : t -> Path.t -> bool
(** Non-deterministic simulation: position-set subset simulation over the
    edges of the path. Because all simulation branches share the same
    consumed prefix, the "previous edge" needed by {!Joint} follow pairs is
    known deterministically and the simulation is exact. [ε] is accepted iff
    the expression is nullable. *)

val successors : t -> int -> (int * kind) list
(** [successors a p]: the positions that may consume the edge after
    position [p], with their boundary kind. From the initial state [0] these
    are the [first] positions, marked {!Free}: the first edge has no
    predecessor to be adjacent to. Every walker of the automaton (the
    determinisers, the generators, the renderer) steps through this one
    rule. *)

val final : t -> int -> bool
(** May a run end at this position? Position [0] is final iff the
    expression is nullable. *)

val accepting : t -> int list -> bool
(** Is any position in the configuration {!final}? *)

val pp : Format.formatter -> t -> unit
(** Debug rendering: positions, selectors, first/last/follow. *)
