(** Span-carrying regular path expressions.

    A parallel AST to {!Expr.t} in which every node records the byte range
    of the source text it was parsed from ({!Span.t}). The parser
    ([Mrpa_engine.Parser.parse_spanned]) produces this tree; the static
    analyzer ([Mrpa_lint]) consumes it so that every diagnostic can point
    back into the query string. [strip] recovers the plain expression —
    for a parsed tree, [strip] is structurally identical to what
    [Parser.parse] returns. *)

open Mrpa_graph

type 'a tree = { node : 'a node; span : Span.t }
(** A span-carrying expression over leaves of type ['a]: the parser's
    name-level syntax tree before names are resolved, {!t} after. *)

and 'a node =
  | Empty
  | Epsilon
  | Sel of 'a
  | Union of 'a tree * 'a tree
  | Join of 'a tree * 'a tree
  | Product of 'a tree * 'a tree
  | Star of 'a tree

type t = Selector.t tree

val mk : Span.t -> 'a node -> 'a tree
val with_span : Span.t -> 'a tree -> 'a tree

val map_sel : ('a -> 'b) -> 'a tree -> 'b tree
(** Rewrite every leaf, left to right, keeping the shape and every span. *)

val strip : t -> Expr.t
(** Forget the spans. *)

val of_expr : ?span:Span.t -> Expr.t -> t
(** Annotate every node with [span] (default {!Span.dummy}) — for running
    the analyzer on programmatically built expressions. *)

(** {1 Derived forms}

    Mirrors of {!Expr.plus}, {!Expr.opt}, {!Expr.repeat} and
    {!Expr.repeat_range}: same node structure, every introduced node tagged
    with [span]. *)

val plus : span:Span.t -> 'a tree -> 'a tree
val opt : span:Span.t -> 'a tree -> 'a tree
val repeat : span:Span.t -> 'a tree -> int -> 'a tree
val repeat_range : span:Span.t -> 'a tree -> min:int -> max:int -> 'a tree

(** {1 Traversal} *)

val subterms : 'a tree -> 'a tree list
(** Every node of the tree, preorder. *)

val sel_occurrences : t -> (Span.t * Selector.t) list
(** [Sel] leaves left to right — the order in which the Glushkov
    construction numbers automaton positions, so element [i] of this list
    is position [i + 1] of [Mrpa_automata.Glushkov.build (strip e)]. *)

val pp : Format.formatter -> t -> unit
val pp_named : Digraph.t -> Format.formatter -> t -> unit
