(** Quantifying the §II deficiency: given a vertex string produced by the
    binary algebra, how much label information is unrecoverable?

    A vertex string [(v₀, …, vₖ)] is consistent with every label word
    [(ω₁, …, ωₖ)] such that [(vᵢ₋₁, ωᵢ, vᵢ) ∈ E]. The string determines its
    path label only when that set of words is a singleton; when parallel
    relations exist between consecutive vertices the count multiplies and
    the label is ambiguous — precisely why the paper adopts the ternary
    edge algebra. *)

open Mrpa_graph

val labels_between : Digraph.t -> Vertex.t -> Vertex.t -> Label.t list
(** Distinct labels [α] with [(u, α, v) ∈ E], in increasing id order. *)

val word_count : Digraph.t -> Vpath.t -> int
(** Number of label words consistent with the vertex string: the product
    over consecutive vertex pairs of the parallel-edge label counts. The
    empty string and single vertices count 1 (the empty word); a string
    using a vertex pair with no edge at all counts 0 (not realisable). *)

val words : ?limit:int -> Digraph.t -> Vpath.t -> Label.t list list
(** Enumerate the consistent label words (at most [limit], default 1000). *)

val is_ambiguous : Digraph.t -> Vpath.t -> bool
(** [word_count > 1]. *)

type census = {
  total : int;  (** vertex strings examined. *)
  unrealisable : int;  (** word count 0 (string not backed by edges). *)
  unambiguous : int;  (** exactly one label word. *)
  ambiguous : int;  (** more than one label word. *)
  max_words : int;  (** largest word count seen. *)
  total_words : int;  (** sum of word counts. *)
}

val census : Digraph.t -> Vpath_set.t -> census
(** Classify every string of a set — the row generator for EXP-T7. *)
