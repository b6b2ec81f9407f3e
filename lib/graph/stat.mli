(** Descriptive statistics of multi-relational graphs.

    The numbers a practitioner wants before traversing anything: size,
    density, degree distributions (overall and per relation type), how often
    relations are reciprocated, and how relation types co-occur on vertex
    pairs (the co-occurrence off-diagonal is precisely the parallel-edge
    mass that makes the §II label-loss argument bite). *)

type degree_summary = {
  min_degree : int;
  max_degree : int;
  mean : float;
  median : float;
}

val out_degrees : Digraph.t -> degree_summary
val in_degrees : Digraph.t -> degree_summary

val out_degrees_of_label : Digraph.t -> Label.t -> degree_summary
(** Degree summary of the single-relation slice [E_α]. *)

val density : Digraph.t -> float
(** [|E| / (|V|² · |Ω|)] — the filled fraction of the ternary relation's
    domain. [nan] on the empty graph. *)

val reciprocity : Digraph.t -> float
(** Fraction of edges [(i,α,j)] whose mirror [(j,α,i)] (same label) is also
    present. Loops count as reciprocated. [nan] on edgeless graphs. *)

val label_histogram : Digraph.t -> (Label.t * int) list
(** Edges per relation type, descending by count. *)

val parallel_pairs : Digraph.t -> int
(** Number of ordered vertex pairs connected by {e more than one} relation
    type — the pairs on which a binary projection loses information. *)

val label_cooccurrence : Digraph.t -> (Label.t * Label.t * int) list
(** For each unordered label pair [{α, β}] with [α ≤ β], the number of
    ordered vertex pairs carrying both relations. Diagonal entries are the
    per-label pair counts. Only non-zero entries are listed. *)

val degree_histogram : Digraph.t -> (int * int) list
(** [(out-degree, frequency)] pairs, ascending by degree. *)

(** {1 Per-label degree/selectivity profile}

    The statistics the static cost analyzer ([Mrpa_lint.Cost]) consumes:
    for each relation type, how many edges it has, how many distinct tails
    and heads they touch, and the worst-case per-vertex fan-out and fan-in
    of that single relation — plus the all-labels degree maxima. Built
    from the label buckets and the O(1) degree counts; the server builds
    one per published snapshot. *)

type label_profile = {
  label : Label.t;
  edges : int;  (** [|E_α|]. *)
  distinct_tails : int;  (** distinct [γ⁻] values among [E_α]. *)
  distinct_heads : int;  (** distinct [γ⁺] values among [E_α]. *)
  max_out : int;
      (** largest number of [α]-edges leaving any single vertex. *)
  max_in : int;
      (** largest number of [α]-edges entering any single vertex. *)
  out_histogram : (int * int) list;
      (** [(out-degree within E_α, #vertices)], ascending, nonzero degrees
          only. *)
  in_histogram : (int * int) list;
}

type profile = {
  vertices : int;
  edges : int;
  labels : int;
  max_out_degree : int;  (** max out-degree counting all labels. *)
  max_in_degree : int;
  per_label : label_profile array;  (** indexed by [Label.to_int]. *)
}

val profile : Digraph.t -> profile
(** [O(|V| + |E|)]: each label's bucket is walked twice (tails, heads)
    into reused [int] arrays indexed by vertex id, allocating only the
    result and three [|V|]-sized scratch arrays. *)

val label_profile : profile -> Label.t -> label_profile option
(** Lookup by label; [None] for labels outside the profiled graph. *)

val pp_report : Format.formatter -> Digraph.t -> unit
(** A compact multi-line report (used by [mrpa stats]). *)
