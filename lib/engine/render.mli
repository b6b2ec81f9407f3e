(** Machine-readable rendering of engine results (JSON).

    Every writer appends to an {!Outbuf.t}; the string functions render
    into a fresh one. Hand-rolled writer — the only JSON this library
    needs is output, and keeping the dependency set to the stock toolchain
    matters more than a parser. Strings are escaped per RFC 8259 (control
    characters, quotes, backslash; non-ASCII bytes are passed through as
    UTF-8). *)

open Mrpa_graph
open Mrpa_core

val escape_string : string -> string
(** The JSON string literal (with surrounding quotes) for an OCaml
    string. *)

val obj : (string * string) list -> string
(** [obj [(k, v); ...]] is the JSON object [{k: v, ...}]: keys are escaped,
    values are spliced in as already-rendered JSON, in the given order. *)

val add_fields : Outbuf.t -> (string * string) list -> unit
(** The inside of {!obj}, appended: [k:v] pairs separated by commas,
    without braces. *)

val path_json : Digraph.t -> Path.t -> string
(** A path as
    [{"edges": [{"tail": …, "label": …, "head": …}, …], "label_word": […]}]. *)

val paths_json : Digraph.t -> Path_set.t -> string
(** A path set as a JSON array, in set order. *)

val result_json : Digraph.t -> Engine.result -> string
(** A full query result:
    [{"paths": […], "count": n, "elapsed_ms": t, "strategy": s,
      "verdict": "complete" | "partial:<reason>", "rewrites": […]}]. *)

val add_result : Outbuf.t -> Digraph.t -> Engine.result -> unit
(** {!result_json}, appended to a buffer: how a server writes an answer
    straight into the response it sends. *)

val tuples_json : Digraph.t -> head:string list -> Vertex.t list list -> string
(** CRPQ answers as an array of objects keyed by head variable. *)
