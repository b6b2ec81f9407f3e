(** Regular path recognition (paper, §IV-A): deciding whether a given path
    belongs to the set denoted by a regular path expression.

    Four interchangeable strategies are provided; property tests hold them
    equal and EXP-T4 races them:

    - {!cubic}: direct memoised structural matching on path segments. The
      only strategy that is {e defined} for every expression, including ones
      mixing [×∘] with nullable operands in pathological ways; [O(n³·|r|)]
      in the path length [n]. Used as the oracle.
    - {!nfa}: Glushkov position-set simulation; linear passes with small
      per-edge cost.
    - lazy DFA ({!Subset}): determinises on demand, caching subset states
      keyed by edge signature and adjacency; amortises repeated recognition
      over path corpora.
    - eager/minimised DFA ({!Dfa}): built against a graph's edge universe. *)

open Mrpa_graph
open Mrpa_core

val cubic : Expr.t -> Path.t -> bool
(** Memoised segment matcher. Exact for all expressions. *)

val nfa : Expr.t -> Path.t -> bool
(** Builds a Glushkov automaton and simulates it (see {!Glushkov.accepts}).
    Prefer {!make_nfa} when recognising many paths with one expression. *)

val make_nfa : Expr.t -> Path.t -> bool
(** Staged version of {!nfa}: compile once, recognise many. *)

type strategy = Cubic | Nfa | Lazy_dfa | Eager_dfa | Min_dfa

val make : ?strategy:strategy -> ?graph:Digraph.t -> Expr.t -> Path.t -> bool
(** [make ~strategy ~graph r] stages a recogniser for [r].
    [Eager_dfa] and [Min_dfa] require [graph] (their subset construction
    enumerates the graph's signature alphabet) and raise [Invalid_argument]
    without it. Default strategy: [Nfa]. *)

val strategies : (string * strategy) list
(** Name/strategy table for CLIs and benches. *)
