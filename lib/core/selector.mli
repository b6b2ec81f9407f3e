(** Edge-set selectors: the set-builder notation of the paper's §IV-A.

    A selector denotes a subset of a graph's edge set [E]. The paper writes
    [\[i, _, _\]] for all edges emanating from [i], [\[_, α, _\]] for all
    edges labeled [α], [\[_, _, j\]] for all edges terminating at [j],
    [\[_, _, _\]] for [E] itself, and braces for explicit edge sets such as
    [{(j,α,i)}]. Selectors generalise each position from a single value to a
    set of admissible values and close the notation under union,
    intersection and difference.

    Selectors are pure descriptions: they can be {!matches}-tested against a
    single edge, or {!enumerate}d against a graph using its indices. *)

open Mrpa_graph

type t =
  | Pattern of {
      src : Vertex.Set.t option;  (** admissible tails; [None] = wildcard *)
      lbl : Label.Set.t option;  (** admissible labels; [None] = wildcard *)
      dst : Vertex.Set.t option;  (** admissible heads; [None] = wildcard *)
    }
  | Explicit of Edge.Set.t  (** a literal edge set, e.g. [{(j,α,i)}] *)
  | Union of t * t
  | Inter of t * t
  | Diff of t * t

(** {1 Constructors} *)

val universe : t
(** [\[_, _, _\]] — all of [E]. *)

val pattern :
  ?src:Vertex.Set.t -> ?lbl:Label.Set.t -> ?dst:Vertex.Set.t -> unit -> t

val src_in : Vertex.Set.t -> t
(** [\[Vs, _, _\]]: tails restricted to a set — the source-traversal
    restriction of §III-B. *)

val dst_in : Vertex.Set.t -> t
(** [\[_, _, Vd\]]: §III-C destination restriction. *)

val label_in : Label.Set.t -> t
(** [\[_, Ωe, _\]]: §III-D label restriction. *)

val src1 : Vertex.t -> t
(** [\[i, _, _\]]. *)

val dst1 : Vertex.t -> t
(** [\[_, _, j\]]. *)

val label1 : Label.t -> t
(** [\[_, α, _\]]. *)

val edge : Edge.t -> t
(** [{e}]. *)

val edges : Edge.Set.t -> t

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val complement : t -> t
(** [E \ s] — e.g. the [V \ Vs] idiom of §III-B lifted to edge sets. *)

(** {1 Semantics} *)

val matches : t -> Edge.t -> bool
(** Pure membership test (graph-independent: a [Pattern] or [Explicit]
    selector either admits the edge or not). *)

val enumerate : Digraph.t -> t -> Edge.t list
(** All edges of the graph matched by the selector, each exactly once, using
    the cheapest available index (out-adjacency for anchored sources,
    in-adjacency for anchored destinations, the label index for labeled
    patterns). Explicit edges are intersected with [E]. *)

val enumerate_set : Digraph.t -> t -> Edge.Set.t

val matching : Digraph.t -> t -> Edge.t list
(** The edges {!enumerate} returns, in no promised order: a pattern reads
    its index and filters it, without building a set. *)

val select_out : Digraph.t -> t -> Vertex.t -> Edge.t list
(** Out-edges of one vertex matched by the selector — the inner step of the
    product-graph generator. *)

val select_in : Digraph.t -> t -> Vertex.t -> Edge.t list

val size_hint : Digraph.t -> t -> int
(** Cheap upper bound on [|enumerate g s|]; used by the planner to order
    joins. Never underestimates. *)

(** {1 Structure} *)

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Paper-style rendering with raw ids, e.g. [\[3, {0,1}, _\]]. *)

val pp_named : Digraph.t -> Format.formatter -> t -> unit
