(** Plain-text serialisation of multi-relational graphs.

    The format is one edge per line, [tail<TAB>label<TAB>head], with ['#']
    comment lines and blank lines ignored. Isolated vertices are persisted as
    [vertex<TAB>name] directives so that reading back a written graph
    reproduces [V] exactly, not just the endpoints of [E]. *)

exception Malformed of int * string
(** [Malformed (line_number, line)] on unparseable input. *)

val write_channel : out_channel -> Digraph.t -> unit
(** Writes the graph; deterministic: vertices in id order, edges in insertion
    order. *)

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
