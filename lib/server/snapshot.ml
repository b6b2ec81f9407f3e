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
  seq : int;
  signature : Mrpa_lint.Signature.t option Atomic.t;
      (* built on first use: only the [lint] verb reads it. *)
  profile : Stat.profile;
  plans : (plan_key, (compiled, string) result) Lru.t;
  results : (result_key, (string * string) list) Lru.t;
  parses : int Atomic.t;
}

let default_plan_cache_capacity = 1024
let default_result_cache_capacity = 256

(* The profile is computed eagerly, once, at snapshot construction: every
   compile reads it. The signature is built on first use (see
   [signature]). Both are immutable values over a frozen graph, so any
   number of session threads can read them without synchronisation. *)
let of_frozen ?(plan_cache_capacity = default_plan_cache_capacity)
    ?(result_cache_capacity = default_result_cache_capacity) ?(seq = 0) graph =
  {
    graph;
    seq;
    signature = Atomic.make None;
    profile = Stat.profile graph;
    plans = Lru.create ~capacity:plan_cache_capacity;
    results = Lru.create ~capacity:result_cache_capacity;
    parses = Atomic.make 0;
  }

let of_graph ?plan_cache_capacity ?result_cache_capacity ?seq g =
  of_frozen ?plan_cache_capacity ?result_cache_capacity ?seq
    (Digraph.frozen_copy g)

let load ?plan_cache_capacity ?result_cache_capacity path =
  let g = Io.load path in
  Digraph.freeze g;
  of_frozen ?plan_cache_capacity ?result_cache_capacity g

let seq t = t.seq

(* Kept for perfbench's replay, which predates snapshots carrying [seq]. *)
let generation = seq
let unwatch (_ : t) (_ : Digraph.t) = ()

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
let caches_results t = Lru.capacity t.results > 0

let cache_result t ?(generation = t.seq) key payload =
  if generation = t.seq then Lru.add t.results key payload

(* --- Accessors ---------------------------------------------------------- *)

let plan_cache_stats t = (Lru.hits t.plans, Lru.misses t.plans)

let result_cache_stats t = (Lru.hits t.results, Lru.misses t.results)

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
