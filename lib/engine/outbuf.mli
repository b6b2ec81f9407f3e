(** A growable byte buffer whose storage its owner may reuse and write
    out without copying.

    [Stdlib.Buffer] can only hand its bytes on as a fresh copy
    ([contents], [to_bytes]). A served response is rendered into an
    [Outbuf.t] that one thread owns and clears between responses, and
    {!write_to} passes the bytes to the socket from that storage. Every
    JSON writer of the response path ({!Render}, {!Mrpa_server.Wire})
    appends to one. Not thread-safe: one owner at a time. *)

type t

val create : int -> t
(** An empty buffer with this initial capacity (at least 16 bytes). *)

val length : t -> int

val capacity : t -> int
(** The bytes the storage holds now: the initial capacity until an
    append outgrows it, then doubled as often as needed. *)

val clear : t -> unit
(** Empty the buffer and keep its storage. *)

val reset : t -> unit
(** Empty the buffer and go back to storage of the initial capacity. *)

val truncate : t -> int -> unit
(** [truncate b n] keeps the first [n] bytes. Raises [Invalid_argument]
    when [n] is negative or past {!length}. *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit
val add_int : t -> int -> unit

val add_json_string : t -> string -> unit
(** The RFC 8259 string literal, quotes included: control characters,
    the quote and the backslash are escaped; other bytes (UTF-8 included)
    stand for themselves. *)

val sub : t -> int -> int -> string
(** [sub b pos len]: a fresh copy of those bytes. *)

val contents : t -> string
(** A fresh copy of the whole contents. *)

val to_string : ?size:int -> (t -> unit) -> string
(** Run the writer on a fresh buffer of [size] (default 256) bytes and
    return what it wrote. *)

val write_to : t -> (bytes -> int -> int -> int) -> unit
(** [write_to b write] hands the contents to [write bytes pos len], which
    returns how many bytes it took (as [Unix.write] does), until all are
    taken. The storage is passed as is, never copied; [write] must not
    keep it. *)
