(** Eager deterministic recognisers.

    Subset construction over the Glushkov automaton, with the input alphabet
    quotiented to (edge signature, adjacency bit) pairs — see
    {!Edge_signature}. The construction is performed {e relative to a
    graph}: the graph's edge universe determines which signatures are
    realisable and therefore which subset states are reachable.

    Recognition remains correct for paths containing edges absent from the
    build graph: an edge with an unseen signature falls back to a dynamic
    transition computed from the state's member positions (at a small cost,
    uncached). After {!minimize} the fallback uses a representative member,
    which is exact for the build graph's edges and for any edge whose
    signature was part of the construction alphabet. *)

open Mrpa_graph
open Mrpa_core

type t

val create : ?alpha:Edge_signature.t -> Digraph.t -> Expr.t -> t
(** Determinise the expression against the graph's signature alphabet.
    [?alpha] overrides the alphabet (it must cover every selector occurring
    in the expression — {!Edge_signature.of_selectors} over a superset);
    used to put two automata over one alphabet for {!equivalent}. *)

val minimize : t -> t
(** Moore partition refinement over the construction alphabet. The result
    recognises the same language over that alphabet with the minimum number
    of states. *)

val accepts : t -> Path.t -> bool

val equivalent : Digraph.t -> Expr.t -> Expr.t -> bool
(** Do the two expressions denote the same path language over the graph's
    edge universe, for paths of {e any} length? Decided by walking the
    product of the two eager DFAs over a shared signature alphabet — no
    length bound and no path set involved.

    Sound and complete at the level of signature strings: a [true] answer
    guarantees equal denotations at every length bound; a [false] answer
    exhibits a distinguishing signature string, which corresponds to a
    distinguishing path whenever consecutive signatures are realisable by
    actual adjacent/non-adjacent edge pairs (true for the common selector
    shapes; in the general case [false] can be conservative). *)

val included : Digraph.t -> Expr.t -> Expr.t -> bool
(** Language inclusion over the graph's edge universe at every length:
    does every path denoted by the first expression belong to the second's
    denotation? Same product construction and the same caveats as
    {!equivalent}. [equivalent g a b = included g a b && included g b a]
    (property-tested). *)

val n_states : t -> int
(** Number of subset states (including the dead state when reachable). *)

val n_letters : t -> int
(** Size of the construction alphabet: distinct signatures × adjacency. *)

val pp : Format.formatter -> t -> unit

(** {1 Shared subset-construction primitives}

    Used by {!Subset}; exposed because both determinisers step position
    sets by quotient letters the same way. *)

val pos_signature_indices : Glushkov.t -> Edge_signature.t -> int array
(** For each position, the bit index of its selector in the signature
    alphabet (index 0 of the array, the initial state, is a placeholder). *)

val step_mask : Glushkov.t -> int array -> int list -> int -> bool -> int list
(** [step_mask a pos_sig config mask adj]: the sorted position set reachable
    from [config] by consuming any edge with signature [mask] whose
    adjacency to the previous edge is [adj]. *)
