(** Execution metrics: the observability layer of the evaluation pipeline.

    A collector of named {e stage timers} (cumulative, remembered in first-use
    order so the parse → lint → optimize → execute pipeline prints in
    pipeline order) and named {e counters / gauges} (flat integers, printed
    and emitted name-sorted so output is stable). All timings are taken on
    the monotonic clock ([CLOCK_MONOTONIC]), never wall time, so profiles
    survive NTP adjustments and clock steps.

    Collectors are cheap to create and single-threaded, like the evaluation
    pipeline they observe. Backends that cannot see this module
    ({!Mrpa_automata.Stack_machine}, {!Mrpa_automata.Generator},
    {!Mrpa_automata.Counting}) expose plain mutable [stats] records instead;
    {!Eval} copies those into the collector under stable key names.

    Key namespaces currently emitted by the pipeline:
    - [parse] / [lint] / [optimize] / [execute] — stage timings;
    - [automaton.positions] — Glushkov positions of the compiled query;
    - [stack.*] — stack-machine pops, pushes, levels, branch and path-set
      high-water marks;
    - [bfs.*] — product-search edges scanned, paths emitted, depth and
      frontier high-water marks;
    - [pathset.peak] — peak materialised path-set cardinality;
    - [result.paths] — distinct paths returned;
    - [lint.findings] — diagnostics reported by the static analyzer;
    - [budget.*] — governed runs only: [budget.checkpoints] polls observed,
      [budget.fuel_used] total cost charged, and [budget.stopped.<reason>]
      ([deadline]/[fuel]/[memory]/[cancelled]) set when a bound tripped. *)

type t

val create : unit -> t

(** {1 Monotonic clock} *)

val now_ns : unit -> int64
(** Nanoseconds on the monotonic clock. Only differences are meaningful. *)

val elapsed_ns : since:int64 -> int64
(** [elapsed_ns ~since:(now_ns ())] measures an interval. *)

val ns_to_ms : int64 -> float

(** {1 Stage timers} *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk, adding its elapsed monotonic time to the named stage
    (cumulative across calls; recorded even if the thunk raises). *)

val add_stage_ns : t -> string -> int64 -> unit
(** Add a pre-measured interval (clamped at 0) to a stage. *)

val stage_ns : t -> string -> int64 option
val stages : t -> (string * int64) list
(** All stages in first-use order. *)

(** {1 Counters and gauges} *)

val incr : ?by:int -> t -> string -> unit
val set : t -> string -> int -> unit

val set_max : t -> string -> int -> unit
(** High-water gauge: keep the maximum of all observations. *)

val counter : t -> string -> int option
val counters : t -> (string * int) list
(** All counters, name-sorted. *)

(** {1 Rendering} *)

val pp : Format.formatter -> t -> unit
(** EXPLAIN-ANALYZE-style text: stage timings in ms, then counters. *)

val schema_version : string
(** The [schema] field of {!to_json}: ["mrpa.profile/1"]. *)

val to_json : t -> string
(** [{"schema":"mrpa.profile/1","stages":[{"stage":s,"ns":n},…],
      "counters":{name:value,…}}] — stages in pipeline order with integer
    nanoseconds, counters name-sorted. *)

val escape_string : string -> string
(** RFC 8259 JSON string literal (with quotes) for an OCaml string. *)
