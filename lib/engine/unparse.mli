(** Rendering expressions back into parseable query text.

    [parse g (expr g e)] always succeeds and denotes the same path set as
    [e] over [g]; for expressions the parser itself can produce, the
    round-trip is {e structural} identity (property-tested both ways).
    Graph-relative because names must be resolved and because selector
    forms the grammar cannot spell (intersections, differences) are
    rendered as their explicit edge sets over the graph's universe. *)

open Mrpa_graph
open Mrpa_core

val expr : Digraph.t -> Expr.t -> string
(** Parseable text for an expression. *)

val selector : Digraph.t -> Selector.t -> string
(** Parseable text for one selector atom. *)

val quote : string -> string option
(** The one quoting rule for names in query text: bare when the name lexes
    back as a single identifier (letter- or underscore-led, not [_]),
    single- or double-quoted otherwise, [None] when it holds both quote
    characters and so has no spelling. *)

val atom : Parser.atom -> string option
(** Query text for a name-level atom, [None] when one of its names has no
    spelling (see {!quote}). Parsing the text gives back the same atom up
    to name offsets. *)
