(** Tokeniser for the textual query language (see {!Parser} for the
    grammar). Hand-written; positions are byte offsets into the input and
    are carried through to parse errors. *)

type token =
  | LBRACKET  (** [\[] *)
  | RBRACKET  (** [\]] *)
  | LBRACE  (** [{] *)
  | RBRACE  (** [}] *)
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | DOT  (** the join operator [.] *)
  | CROSS  (** the product operator [><] *)
  | PIPE  (** union *)
  | STAR
  | PLUS
  | QUESTION
  | BANG  (** complement prefix inside selector positions *)
  | UNDERSCORE  (** wildcard position *)
  | EQUAL  (** macro binding in [let name = expr in …] *)
  | IDENT of string
  | INT of int
  | EOF

type located = { token : token; pos : int; stop : int }
(** [pos] is the byte offset of the token's first character; [stop] is one
    past its last character, so [\[pos, stop)] is the token's source span. *)

exception Lex_error of string * int
(** Message and byte offset. *)

val tokenize : string -> located list
(** The full token stream, ending with [EOF]. Whitespace separates tokens;
    identifiers are letters, digits and underscores (starting with a
    letter), and single- or double-quoted strings admit arbitrary names.
    Raises {!Lex_error}. *)
