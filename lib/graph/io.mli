(** Plain-text serialisation of multi-relational graphs.

    The format is one edge per line, [tail<TAB>label<TAB>head], with ['#']
    comment lines and blank lines ignored. Every vertex is persisted as a
    [vertex<TAB>name] directive, and every label that carries no edge as a
    [label<TAB>name] directive, so that reading back a written graph
    reproduces [V] and [Ω] exactly, not just the names [E] mentions. *)

exception Malformed of int * string
(** [Malformed (line_number, line)] on unparseable input. *)

val write_channel : out_channel -> Digraph.t -> unit
(** Writes the graph; deterministic: vertices in id order, edges in insertion
    order, then edgeless labels in id order. *)

val read_channel : in_channel -> Digraph.t
(** Parses a graph written by {!write_channel} (or by hand). Raises
    {!Malformed} on bad lines. *)

val save : string -> Digraph.t -> unit
(** [save path g] writes to a file. *)

val load : string -> Digraph.t
(** [load path] reads from a file, presizing the graph's tables from its
    length. *)

val of_string : string -> Digraph.t
(** Parse from an in-memory string — handy for tests and examples. *)

val to_string : Digraph.t -> string
