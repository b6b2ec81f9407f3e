(** Multi-relational directed graph [G = (V, E ⊆ V × Ω × V)] (paper, §I).

    The store keeps the edge set [E] with set semantics (inserting an edge
    twice is a no-op: [E] is a relation, not a multiset) and maintains three
    adjacency indices — by tail vertex, by head vertex, and by label — so the
    traversal idioms of §III and the selector evaluation of §IV can enumerate
    exactly the edges they need.

    Vertices and labels are named strings interned to dense integers at
    insertion; all algebraic code manipulates the integer ids.

    {b Thread-safety contract.} A live graph is single-threaded: mutation
    (edge insertion/removal, interning of new names, observer registration)
    may race with readers and with itself, and observers hold arbitrary
    closures. A {e frozen} graph ({!freeze}) rejects every mutation with
    [Invalid_argument], after which all remaining operations are pure reads
    of tables that no longer change — safe to share across any number of
    threads or domains without locks. The server's snapshot layer
    ({!Mrpa_server.Snapshot}) builds on exactly this: freeze a private
    {!copy}, then let every worker read it concurrently. *)

type t

val create : ?vertex_capacity:int -> unit -> t
(** Fresh empty graph. *)

(** {1 Naming} *)

val vertex : t -> string -> Vertex.t
(** [vertex g name] is the id of the vertex called [name], inserting it
    (isolated) if new. On a frozen graph, looking up an existing name still
    succeeds; interning a new one raises [Invalid_argument]. *)

val label : t -> string -> Label.t
(** [label g name] is the id of the relation type called [name], registering
    it if new (frozen graphs: as {!vertex}). *)

val find_vertex : t -> string -> Vertex.t option
(** Id of an existing vertex, or [None]. *)

val find_label : t -> string -> Label.t option

val vertex_name : t -> Vertex.t -> string
(** Inverse of {!vertex}. Raises [Invalid_argument] on an unknown id. *)

val label_name : t -> Label.t -> string

(** {1 Construction} *)

val add_edge : t -> Edge.t -> bool
(** [add_edge g e] inserts [e]; returns [false] when [e] was already present.
    Both endpoints must be ids previously returned by {!vertex} (the label
    likewise by {!label}); raises [Invalid_argument] otherwise. *)

val add : t -> string -> string -> string -> Edge.t
(** [add g tail label head] interns the three names and inserts the edge,
    returning it (whether or not it was new). *)

val remove_edge : t -> Edge.t -> bool
(** [remove_edge g e] deletes [e]; returns [false] when absent. Endpoint
    vertices remain in [V]. *)

(** {1 Cardinalities} *)

val n_vertices : t -> int
val n_edges : t -> int

val n_labels : t -> int
(** [|Ω|]: the number of relation types, i.e. the number of binary relations
    in the equivalent family-of-edge-sets view [Ė]. *)

(** {1 Membership and access} *)

val mem_edge : t -> Edge.t -> bool
val mem_vertex : t -> Vertex.t -> bool

val vertices : t -> Vertex.t list
(** All vertex ids, in interning order. *)

val labels : t -> Label.t list
(** All label ids, in interning order. *)

val edges : t -> Edge.t list
(** All edges, in insertion order. *)

val iter_edges : (Edge.t -> unit) -> t -> unit
val fold_edges : (Edge.t -> 'acc -> 'acc) -> t -> 'acc -> 'acc

val out_edges : t -> Vertex.t -> Edge.t list
(** Edges with the given tail, in insertion order ([[v,_,_]] of §IV-A). *)

val in_edges : t -> Vertex.t -> Edge.t list
(** Edges with the given head ([[_,_,v]]). *)

val edges_with_label : t -> Label.t -> Edge.t list
(** Edges with the given label ([[_,α,_]]).

    On a live graph the four edge accessors build a fresh list (the index
    is kept newest-first); on a frozen graph they return the stored list,
    allocating nothing. The order is insertion order either way. *)

val n_edges_with_label : t -> Label.t -> int
(** [List.length (edges_with_label g l)], in O(1). *)

val out_degree : t -> Vertex.t -> int
(** O(1), like {!in_degree}. *)

val in_degree : t -> Vertex.t -> int

val degree : t -> Vertex.t -> int
(** [out_degree + in_degree]. *)

val successors : t -> ?label:Label.t -> Vertex.t -> Vertex.t list
(** Heads of out-edges (optionally restricted to one label); may contain
    duplicates when parallel relations exist, in insertion order. *)

val predecessors : t -> ?label:Label.t -> Vertex.t -> Vertex.t list

val materialise_reverse : t -> ?suffix:string -> Label.t -> Label.t
(** [materialise_reverse g alpha] registers a new relation type named after
    [alpha] with [suffix] (default ["_rev"]) appended, inserts the reversed
    edge [(j, alpha_rev, i)] for every [(i, alpha, j) ∈ E], and returns the
    new label id. Idempotent: re-running adds no edges.

    The algebra has no inverse-step operator — a deliberate fidelity choice
    (the paper's expressions only walk edges forward) — so two-way queries
    are expressed by making the reverse relation {e data}, which is exactly
    the ternary representation's strength. *)

(** {1 Change notification} *)

val on_edge_added : t -> (Edge.t -> unit) -> unit
(** Register a callback fired after every successful edge insertion
    (duplicates that were rejected do not fire). Callbacks run in
    registration order and must not mutate the graph. Used by incremental
    materialised views ({!Mrpa_analysis.Derived_view}).

    {b Ordering guarantee.} Fan-out order {e is} registration order, and
    deregistering one callback ({!off_edge_added}) preserves the relative
    order of the survivors; a callback re-registered later moves to the
    back. That is the whole contract: no ordering is promised {e across}
    subsystems that register at different times (a layer that re-registers
    on refresh, like the server's snapshot watch, moves behind younger
    observers), so layered consumers must not rely on seeing an event
    before or after another subsystem does. The registration-order
    guarantee is pinned by a unit test. *)

val on_edge_removed : t -> (Edge.t -> unit) -> unit
(** Likewise for successful removals. *)

val off_edge_added : t -> (Edge.t -> unit) -> unit
(** Deregister a callback previously passed to {!on_edge_added}, compared by
    physical equality — keep the closure you registered if you intend to
    detach it later. Unknown callbacks are ignored. Without deregistration,
    repeated attach/detach cycles (e.g. {!Journal.attach} / {!Journal.close})
    would accumulate dead closures on the graph forever. *)

val off_edge_removed : t -> (Edge.t -> unit) -> unit
(** Likewise for {!on_edge_removed}. *)

(** {1 Freezing}

    See the thread-safety contract in the module preamble. *)

val freeze : t -> unit
(** Make the graph immutable, permanently: every subsequent mutation —
    {!add_edge}, {!remove_edge}, interning a {e new} name via {!vertex} /
    {!label} / {!add} / {!materialise_reverse}, or registering an observer —
    raises [Invalid_argument]. Reads on a frozen graph are safe from
    concurrent threads and domains. Freezing puts every index in insertion
    order once, in [O(|E|)], so later reads copy nothing. Freezing twice is
    a no-op. There is no thaw; {!copy} returns a fresh mutable graph. *)

val is_frozen : t -> bool

(** {1 Whole-graph utilities} *)

val copy : t -> t
(** Deep, independent copy. *)

val edge_universe : t -> Edge.Set.t
(** The edge set [E] as a set value (used as the finite alphabet universe by
    the DFA construction). *)

val pp_edge : t -> Format.formatter -> Edge.t -> unit
(** Name-aware edge printer. *)

val pp_path : t -> Format.formatter -> Path.t -> unit
(** Name-aware path printer. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line [|V|/|E|/|Ω|] summary. *)
