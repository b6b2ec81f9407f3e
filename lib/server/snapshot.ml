open Mrpa_graph
open Mrpa_engine

type compiled = {
  spanned : Mrpa_core.Spanned.t;
  cost : Mrpa_lint.Cost.t;
  plan : Plan.t;
}

(* Plan-cache key. The per-request strategy override is deliberately NOT
   part of the key: the planner's own choice is cached and a forced
   strategy is applied on the way out with [Plan.with_strategy] (a
   constant-time record update), so `--strategy` experiments share cache
   entries with normal traffic instead of doubling the footprint. *)
(* Key fields are only ever compared/hashed structurally, never projected —
   hence the unused-field silencer. *)
type plan_key = { pk_query : string; pk_max_length : int; pk_simple : bool }
[@@warning "-69"]

type result_key = {
  rk_verb : string;
  rk_query : string;
  rk_max_length : int;
  rk_simple : bool;
  rk_strategy : string option;
  rk_limit : int option;
}
[@@warning "-69"]

type t = {
  graph : Digraph.t;
  signature : Mrpa_lint.Signature.t option Atomic.t;
      (* built on first use: only the [lint] verb reads it. *)
  profile : Stat.profile;
  plans : (plan_key, (compiled, string) result) Lru.t;
  results : (result_key, (string * string) list) Lru.t;
  parses : int Atomic.t;
  generation : int Atomic.t;
  invalidations : int Atomic.t;
  (* Serialises result-cache invalidation against insertion so a worker
     that computed its answer before a write can never slip it into the
     cache after the write's clear (see [cache_result]). *)
  result_lock : Mutex.t;
  mutable observer : Edge.t -> unit;
}

let default_plan_cache_capacity = 1024
let default_result_cache_capacity = 256

(* The profile is computed eagerly, once, at snapshot construction: every
   compile reads it. The signature is built on first use (see
   [signature]). Both are immutable values over a frozen graph, so any
   number of session threads can read them without synchronisation. *)
let of_frozen ?(plan_cache_capacity = default_plan_cache_capacity)
    ?(result_cache_capacity = default_result_cache_capacity) graph =
  {
    graph;
    signature = Atomic.make None;
    profile = Stat.profile graph;
    plans = Lru.create ~capacity:plan_cache_capacity;
    results = Lru.create ~capacity:result_cache_capacity;
    parses = Atomic.make 0;
    generation = Atomic.make 0;
    invalidations = Atomic.make 0;
    result_lock = Mutex.create ();
    observer = ignore;
  }

let generation t = Atomic.get t.generation

let invalidate_results t =
  Mutex.lock t.result_lock;
  Atomic.incr t.generation;
  Lru.clear t.results;
  Atomic.incr t.invalidations;
  Mutex.unlock t.result_lock

let watch t source =
  if not (Digraph.is_frozen source) then begin
    let f = fun (_ : Edge.t) -> invalidate_results t in
    t.observer <- f;
    Digraph.on_edge_added source f;
    Digraph.on_edge_removed source f
  end

let unwatch t source =
  Digraph.off_edge_added source t.observer;
  Digraph.off_edge_removed source t.observer

let of_graph ?plan_cache_capacity ?result_cache_capacity g =
  let copy = Digraph.copy g in
  Digraph.freeze copy;
  let t = of_frozen ?plan_cache_capacity ?result_cache_capacity copy in
  watch t g;
  t

let load ?plan_cache_capacity ?result_cache_capacity path =
  let g = Io.load path in
  Digraph.freeze g;
  of_frozen ?plan_cache_capacity ?result_cache_capacity g

(* --- Compiled-plan cache ------------------------------------------------ *)

let compile_uncached t ~max_length ~simple query =
  Atomic.incr t.parses;
  match Parser.parse_spanned t.graph query with
  | Error e -> Error (Parser.render_error ~source:query e)
  | Ok spanned ->
    let cost =
      Mrpa_lint.Cost.analyze ~stats:t.profile t.graph ~max_length spanned
    in
    let plan =
      Optimizer.plan ~simple ~stats:t.profile ~cost ~max_length t.graph
        (Mrpa_core.Spanned.strip spanned)
    in
    Ok { spanned; cost; plan }

let compile t ~max_length ~simple query =
  let key = { pk_query = query; pk_max_length = max_length; pk_simple = simple } in
  match Lru.find t.plans key with
  | Some r -> r
  | None ->
    (* Two threads racing on a cold key both compile and both insert; the
       work is idempotent and the last insert wins, so no lock is held
       across the (potentially slow) parse + cost analysis. *)
    let r = compile_uncached t ~max_length ~simple query in
    Lru.add t.plans key r;
    r

let parse_count t = Atomic.get t.parses

(* --- Result cache ------------------------------------------------------- *)

let result_key ~verb ~query ~max_length ~simple ~strategy ~limit =
  {
    rk_verb = verb;
    rk_query = query;
    rk_max_length = max_length;
    rk_simple = simple;
    rk_strategy = Option.map Plan.strategy_name strategy;
    rk_limit = limit;
  }

let cached_result t key = Lru.find t.results key

let cache_result t ~generation:g0 key payload =
  Mutex.lock t.result_lock;
  (* The entry is only stored if no write invalidated the cache since the
     caller looked up [generation t]; otherwise the (still snapshot-correct
     but contract-stale) payload is dropped on the floor. *)
  if Atomic.get t.generation = g0 then Lru.add t.results key payload;
  Mutex.unlock t.result_lock

(* --- Accessors ---------------------------------------------------------- *)

let plan_cache_stats t = (Lru.hits t.plans, Lru.misses t.plans)

let result_cache_stats t =
  (Lru.hits t.results, Lru.misses t.results, Atomic.get t.invalidations)

let plan_cache_length t = Lru.length t.plans
let result_cache_length t = Lru.length t.results
let graph t = t.graph
(* Compute-once without a lock: threads that race on the first request
   each build an equal signature over the same frozen graph and the last
   store wins, as with a cold plan-cache key. (A shared [Lazy.t] would not
   do: forcing it from a second thread mid-build raises [Undefined].) *)
let signature t =
  match Atomic.get t.signature with
  | Some s -> s
  | None ->
    let s = Mrpa_lint.Signature.make t.graph in
    Atomic.set t.signature (Some s);
    s

let profile t = t.profile
let pp_stats fmt t = Digraph.pp_stats fmt t.graph
