(** Read-only frozen graph snapshots, shared by all workers — plus the
    server's two caches and the journal sequence number the graph
    includes, which live here because their lifetime {e is} the snapshot's
    lifetime. A snapshot is the one unit the server publishes.

    The live {!Mrpa_graph.Digraph.t} is single-threaded — edge insertion
    mutates adjacency buckets and fires arbitrary observer closures, so
    handing one graph to [K] worker threads would be unsound. A snapshot is
    the sharing discipline made a type: its graph is {e frozen}
    ({!Mrpa_graph.Digraph.freeze}), every mutation raises, and therefore
    every operation that remains is a pure read that any number of threads
    or domains may run concurrently without locks.

    {b Compiled-plan cache.} [compile] parses, cost-analyses and plans a
    query exactly once per (text, max_length, simple) key, caching the
    {!compiled} triple (including parse {e errors}) in a bounded
    mutex-guarded LRU. Admission control, the [lint] verb and worker
    evaluation all read the same entry — the triple-parse bug is gone by
    construction, and [parse_count] is the regression hook that proves it.

    {b Result cache.} Complete (non-partial) responses can be cached by
    payload under a key that includes verb, query and every
    semantics-affecting option. An entry is an answer over the snapshot's
    immutable graph, so it is LRU-evicted but never invalidated: a write
    becomes visible by publishing a new snapshot (which starts with empty
    caches), and a client that must see a write asks for it with
    [min_seq] against {!seq}. *)

open Mrpa_graph
open Mrpa_engine

type t

type compiled = {
  spanned : Mrpa_core.Spanned.t;
      (** parsed with spans — what {!Mrpa_lint.Lint.analyze} wants. *)
  cost : Mrpa_lint.Cost.t;
      (** {!Mrpa_lint.Cost.analyze} of the {e original} expression — what
          admission control and the [lint] verb report. The compile runs it
          once and hands it to {!Optimizer.plan}: when no rewrite fires,
          [plan.cost] is this same record; otherwise the plan carries its
          own analysis of the {e optimised} form. *)
  plan : Plan.t;  (** the planner's choice, ready for {!Engine.query_plan}. *)
}

val of_graph :
  ?plan_cache_capacity:int ->
  ?result_cache_capacity:int ->
  ?seq:int ->
  Digraph.t ->
  t
(** Publish a {!Digraph.frozen_copy} of the graph and its
    {!Mrpa_graph.Stat.profile}. The original stays live and mutable; later
    mutations to it are invisible to the snapshot. The copy has its own
    name tables, edge set and index bucket records, and shares only the
    live graph's immutable edge lists, each reversed once into insertion
    order: one [O(|V| + |E|)] structural pass with no edge re-inserted,
    plus the profile's one pass over the label buckets. This is the whole
    cost of a republish.
    [seq] (default [0]) is the journal sequence number the graph includes.
    Cache capacities default to 1024 plans / 256 results; [0] disables a
    cache. *)

val load :
  ?plan_cache_capacity:int -> ?result_cache_capacity:int -> string -> t
(** {!Io.load} a TSV edge list and freeze it in place (no copy — the graph
    was never shared while mutable). Its {!seq} is [0]. Raises like
    {!Io.load}. *)

val seq : t -> int
(** The journal sequence number the snapshot includes — what [min_seq],
    [views] and [health] report and gate on. *)

val unwatch : t -> Digraph.t -> unit
(** Does nothing: a snapshot watches no graph. Kept for perfbench's
    write-mix replay, which still calls it. *)

val graph : t -> Digraph.t
(** The frozen graph. [Digraph.is_frozen (graph t)] always holds. *)

val signature : t -> Mrpa_lint.Signature.t
(** The graph's label signature — the static analyzer's per-request edge
    rescans amortised to zero. Built on the first call, not at snapshot
    construction, since only the [lint] verb reads it; safe to call from
    many threads at once (a racing duplicate build is discarded).
    Immutable, so freely shared across session threads. *)

val profile : t -> Stat.profile
(** The per-label degree/selectivity statistics the cost analyzer and the
    planner consume, likewise computed once and freely shared. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line [|V|/|E|/|Omega|] summary of the underlying graph. *)

(** {1 Compiled-plan cache} *)

val compile :
  t -> max_length:int -> simple:bool -> string -> (compiled, string) result
(** Parse + cost-analyse + plan the query text, through the LRU. [Error]
    is a rendered parse error and is cached too — a client hammering a
    typo'd query costs one parse, not one per attempt. Per-request strategy
    overrides are applied by the caller via {!Plan.with_strategy}; they are
    not part of the cache key. Thread-safe. *)

val parse_count : t -> int
(** Number of actual [Parser.parse_spanned] runs this snapshot has done —
    the single-parse-per-request regression counter. *)

val plan_cache_stats : t -> int * int
(** [(hits, misses)]. *)

val plan_cache_length : t -> int

(** {1 Result cache} *)

type result_key

val result_key :
  verb:string ->
  query:string ->
  max_length:int ->
  simple:bool ->
  strategy:Plan.strategy option ->
  limit:int option ->
  result_key
(** Cache key over everything that affects a response payload. Build it
    from {e clamped} options so equivalent requests share an entry. *)

val generation : t -> int
(** {!seq}. Kept for perfbench's replay, which passes it back to
    {!cache_result}. *)

val cached_result : t -> result_key -> (string * string) list option
(** Cached response payload fields ([(key, raw_json_value)] pairs, minus
    the envelope — the envelope carries the per-request [id]). *)

val cache_result :
  t -> ?generation:int -> result_key -> (string * string) list -> unit
(** Store a payload. Only {e Complete}-verdict payloads should be stored:
    a partial result depends on the budget that produced it, a complete
    one is the full denotation under the keyed options and nothing else. A
    payload offered with a [generation] other than {!seq} is dropped; the
    argument is kept for perfbench's replay. *)

val result_cache_stats : t -> int * int
(** [(hits, misses)]. *)

val result_cache_length : t -> int
