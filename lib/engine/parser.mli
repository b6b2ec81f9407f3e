(** Parser for the textual regular-path query language.

    The concrete syntax follows the paper's §IV-A notation as closely as
    ASCII allows:

    {v
query    ::= ('let' name '=' expr 'in')* expr
expr     ::= cat ('|' cat)*                  union, lowest precedence
cat      ::= postfix (('.' | '><') postfix)* join / product, left assoc
postfix  ::= atom ('*' | '+' | '?' | '{' n '}' | '{' n ',' m '}')*
atom     ::= '(' expr ')' | 'eps' | 'empty' | 'E' | selector | edgeset
selector ::= '[' vpos ',' lpos ',' vpos ']'
vpos     ::= '_' | names | '!' names         vertex position ('!' = V \ set)
lpos     ::= '_' | names | '!' names         label position ('!' = Omega \ set)
names    ::= name | '{' name (',' name)* '}'
edgeset  ::= '{' triple (';' triple)* '}'    explicit edges, e.g. {(j,alpha,i)}
triple   ::= '(' name ',' name ',' name ')'
name     ::= identifier | 'quoted' | "quoted" | integer
    v}

    Examples (the paper's Figure 1 expression, and a labeled 2-step):

    {v
[i,alpha,_] . [_,beta,_]* . (([_,alpha,j] . {(j,alpha,i)}) | [_,alpha,k])
[_,knows,_] . [_,works_for,_]
let friend = [_,knows,_] in friend . friend . [_,works_for,_]
    v}

    [let] bindings define reusable macros, substituted at parse time
    (purely syntactic; [let] and [in] are reserved words).

    Parsing is two passes. {!syntax} needs no graph: it yields a
    span-carrying tree whose leaves are still names, with [let] macros
    expanded and [+ ? {n} {n,m}] desugared. {!resolve} then looks every
    name up in a graph; naming a vertex or label the graph does not
    contain is an error (catching typos beats silently returning the
    empty answer). The router evaluates the syntax tree itself, so it
    speaks exactly this grammar without owning a graph. *)

open Mrpa_graph
open Mrpa_core

type error = { message : string; position : int }

(** {1 Syntax: the graph-free pass} *)

type name = { text : string; pos : int }
(** A vertex or label name and the byte offset it was written at. *)

type position = Any | Only of name list | Except of name list
(** A selector position: [_], [names], or [!names]. *)

type atom =
  | Pattern of { src : position; lbl : position; dst : position }
      (** [\[src,lbl,dst\]]; [E] is the all-[Any] pattern. *)
  | Edges of (name * name * name) list  (** [{(t,l,h);...}] *)

type tree = atom Spanned.tree

type query = { lets : tree list; body : tree }
(** [body] has every macro use expanded; [lets] keeps each definition so
    that {!resolve} checks names in unused ones too. *)

val syntax : string -> (query, error) result

val resolve : Digraph.t -> query -> (Spanned.t, error) result
(** Resolve names left to right, [lets] first, reporting the first
    unknown one. *)

(** {1 Parsing against a graph} *)

val parse : Digraph.t -> string -> (Expr.t, error) result

val parse_spanned : Digraph.t -> string -> (Spanned.t, error) result
(** Like {!parse}, but every AST node carries the byte span of the source
    text it was parsed from, for diagnostics ({!Mrpa_lint}).
    [Result.map Spanned.strip (parse_spanned g s) = parse g s], and
    [parse_spanned g s = Result.bind (syntax s) (resolve g)]. *)

val parse_exn : Digraph.t -> string -> Expr.t
(** Raises [Failure] with a rendered {!error}. *)

val parse_crpq_raw :
  Digraph.t ->
  string ->
  (string list * (string * Expr.t * string) list, error) result
(** Parse the conjunctive form
    [select v (',' v)* where atom (',' atom)*] with
    [atom ::= '(' var ',' expr ',' var ')'], returning the head variables
    and raw atoms. {!Crpq.parse} wraps this with validation. *)

val pp_error : Format.formatter -> error -> unit

val render_error : source:string -> error -> string
(** {!pp_error} followed by the offending source line with a caret at the
    error's byte offset (the same rendering lint diagnostics use). *)
