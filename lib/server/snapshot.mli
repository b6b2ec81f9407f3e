(** Read-only frozen graph snapshots, shared by all workers — plus the
    server's two caches, which live here because their lifetime {e is} the
    snapshot's lifetime.

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
    semantics-affecting option. Invalidation is generation-based:
    {!of_graph} registers edge observers on the {e source} graph, so any
    write — direct or replayed through {!Mrpa_graph.Journal} — bumps the
    generation and clears the cache. {!cache_result} re-checks the
    generation under the same lock, so a result computed before a write can
    never be served after it. The snapshot itself never changes; staleness
    here is relative to the live source graph, and refreshing the snapshot
    ({!of_graph} again) is the documented path to observing writes. *)

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
  ?plan_cache_capacity:int -> ?result_cache_capacity:int -> Digraph.t -> t
(** Freeze a private deep {!Digraph.copy} of the graph. The original stays
    live and mutable; later mutations to it are invisible to the snapshot
    but {e do} invalidate its result cache (edge observers are registered
    on the source unless it is already frozen). Cache capacities default to
    1024 plans / 256 results; [0] disables a cache. *)

val load :
  ?plan_cache_capacity:int -> ?result_cache_capacity:int -> string -> t
(** {!Io.load} a TSV edge list and freeze it in place (no copy — the graph
    was never shared while mutable, and there is no live source to watch).
    Raises like {!Io.load}. *)

val watch : t -> Digraph.t -> unit
(** Register result-cache invalidation observers on a live graph (no-op on
    a frozen one). {!of_graph} does this for its source automatically; call
    it yourself when the snapshot was {!load}ed but writes arrive on a
    separate live graph (e.g. a journal replay target). *)

val unwatch : t -> Digraph.t -> unit
(** Deregister the observers {!watch} installed on that graph. *)

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
(** Current invalidation generation. Read it {e before} evaluating; pass it
    to {!cache_result} afterwards. *)

val cached_result : t -> result_key -> (string * string) list option
(** Cached response payload fields ([(key, raw_json_value)] pairs, minus
    the envelope — the envelope carries the per-request [id]). *)

val cache_result :
  t -> generation:int -> result_key -> (string * string) list -> unit
(** Store a payload computed at [generation]. Dropped silently if any write
    invalidated the cache since — that is the no-stale-reads guarantee.
    Only {e Complete}-verdict payloads should be stored: a partial result
    depends on the budget that produced it, a complete one is the full
    denotation under the keyed options and nothing else. *)

val invalidate_results : t -> unit
(** Bump the generation and drop every cached result. Fired by the edge
    observers on every write to a watched source graph; public for tests
    and for callers with out-of-band write knowledge. *)

val result_cache_stats : t -> int * int * int
(** [(hits, misses, invalidations)]. *)

val result_cache_length : t -> int
