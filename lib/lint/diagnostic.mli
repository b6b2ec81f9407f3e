(** Span-carrying diagnostics with stable codes.

    Every finding of the static analyzer — and every parse error rendered
    by the CLI — is a [t]: a stable code (["L003"]), a severity, a message,
    and the byte {!Mrpa_core.Span.t} of the source text it points at
    ({!Mrpa_core.Span.dummy} when the finding has no source location, e.g.
    optimiser notes on programmatically built expressions).

    The diagnostic codes emitted by {!Lint.analyze}:

    - [L000] [Error] empty-query: the whole query is statically empty
    - [L001] dead-union-arm: a [|] arm can never match
    - [L002] empty-selector: a selector matches no edge of the graph
    - [L003] dead-join: the sides of a [.] can never meet
    - [L004] trivial-star: a star's body has no nonempty match
    - [L005] star-no-iterate: a star's body cannot chain with itself
    - [L006] unreachable-position: automaton position unreachable
    - [L007] dead-position: no match can be completed from a position
    - [L008] epsilon-query: only the empty path can match
    - [L009] rewrite-empty: the optimiser proved a subexpression empty *)

open Mrpa_core

type severity = Hint | Warning | Error

type t = { code : string; severity : severity; span : Span.t; message : string }

val make : ?span:Span.t -> code:string -> severity:severity -> string -> t
val severity_label : severity -> string
val severity_rank : severity -> int

val has_errors : t list -> bool
val count : severity -> t list -> int

val compare : t -> t -> int
(** Source order, then most-severe-first, then code. *)

val pp : Format.formatter -> t -> unit
(** One-line header, e.g. [warning\[L003\] at 0-17: dead join: …]. *)

val excerpt : source:string -> Span.t -> string option
(** The source line containing the span's start, plus a caret line
    underlining the span (clipped to the line). [None] for a dummy span. *)

val render : source:string -> t -> string
(** {!pp} header plus {!excerpt}, newline-separated. *)

val summary : t list -> string
(** ["2 finding(s): 1 error(s), 1 warning(s)"], or ["no findings"]. *)
