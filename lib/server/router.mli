(** Scatter-gather router: one [mrpa.wire/1] front door for a sharded
    fleet of [mrpa serve] processes.

    The router owns no graph. For each [query] / [count] it {e gathers}
    the subgraph the query can reach into a per-request scratch graph,
    then runs the engine's own plan on it ({!Mrpa_engine.Engine.query_plan}
    / [count_plan]) under the request's options: the gathered subgraph
    holds every path the query denotes, so the count, paths and verdict
    under [max_length], [simple] and [limit] are a single server's (an
    unforced strategy and the [fuel] / [max_paths] meters see the
    smaller graph, so those can differ). Gathering walks the query one frontier at a time
    (the paper's §IV-B automaton × graph product): each selector atom is
    a single-selector dispatch to the shards that can own matching edges
    (placement is by hash of the tail vertex — {!Shardmap.owner}), and
    at every join, and every level of a star, the head vertices reached
    so far narrow both the dispatch targets and the selector text of the
    next atom (DESIGN §11). A star costs the frontier it reaches, not its
    whole label.

    Robustness is the point:

    - {b per-shard deadlines} are carved from the request's overall
      budget, additionally capped by [shard_timeout_ms], so one hung
      shard cannot spend another shard's time;
    - {b per-shard failover}: each shard names its PR 8 primary/replica
      endpoint list; a dispatch rotates across it, treating [stale]
      answers like dead endpoints (a fresher replica may be next);
    - {b a per-shard circuit breaker}: [breaker_failures] consecutive
      fully-failed dispatches (transport or all-stale) open the breaker;
      while open, dispatches fail fast with no I/O; after
      [breaker_cooldown_ms] the next dispatch half-opens it with a
      [health] probe and closes it again on success;
    - {b sound degraded answers}: a shard that cannot be reached, or
      that rejects an atom whose other matches it may hold because its
      graph lacks a name the atom spells, contributes nothing — the response verdict becomes
      [Partial Shard_unavailable] (exit code 3 at the CLI) and the
      response names every missing shard in [missing_shards]. The
      answer is always a subset of the true denotation, never a wrong or
      silently-hole-ridden one.

    A deterministic fault plane ({!Fault}) can kill, hang or slow a shard
    starting at the N-th dispatch, driving the multi-process fault matrix
    in the tests without real process churn. *)

type config = {
  front : Listener.config;
      (** where the router listens, and the same session bounds and
          remote-shutdown gate as {!Server.config}. *)
  map : Shardmap.t;
  limits : Wire.limits;
      (** clamped onto every request exactly like a single server's. *)
  shard_timeout_ms : float;
      (** transport guard per shard dispatch: connect + response within
          this window even when the request carries no deadline. *)
  probe_timeout_ms : float;  (** budget of the half-open [health] probe. *)
  breaker_failures : int;
      (** consecutive failed dispatches that open a shard's breaker. *)
  breaker_cooldown_ms : float;
      (** how long an open breaker fails fast before half-opening. *)
  frontier_cap : int;
      (** widest frontier inlined into a narrowed selector's source
          position; wider frontiers still narrow the dispatch {e targets}
          but leave the selector text unrewritten. *)
}

val default_shard_timeout_ms : float  (** 2000. *)

val default_probe_timeout_ms : float  (** 250. *)

val default_breaker_failures : int  (** 3 *)

val default_breaker_cooldown_ms : float  (** 1000. *)

val default_frontier_cap : int  (** 128 *)

val default_config : map:Shardmap.t -> Wire.endpoint -> config
(** All defaults: {!Listener.default_config}, {!Wire.default_limits}. *)

type t

val create : config -> t

val serve : t -> unit
(** Bind, accept, serve until {!stop} (or a [shutdown] request) through
    the same {!Listener} as {!Server.serve}, so the idle deadline, the
    request-line cap and the blank-flood cap hold here too (counted as
    [router.idle_timeouts], [router.oversized_requests] and
    [router.blank_floods]). Blocks; run it in its own thread. *)

val stop : t -> unit
(** Ask {!serve} to drain and return. Safe from any thread/signal. *)

val bound_endpoint : t -> Wire.endpoint option
(** The endpoint actually bound (differs from [config.endpoint] when a
    TCP port of 0 asked the kernel to pick); [None] until {!serve}. *)

val handle_line : ?remote:bool -> t -> string -> string
(** Process one request line and return the response line (no trailing
    newline) — the full router pipeline without sockets. [remote]
    (default [false]) marks the request as arriving over TCP for the
    [shutdown] gate. This is {!serve}'s per-request core, exposed so the
    deterministic fault harness can drive the router in-process. [stats]
    answers the [router.*] counters in the server's [mrpa.profile/1]
    shape ({!Mrpa_engine.Metrics.to_json}), with each shard's own [stats]
    under a sibling [shards] object. *)

val breaker_state : t -> string -> string option
(** ["closed"], ["open"] or ["half_open"] for the named shard ([None] for
    an unknown name). [half_open] is an open breaker whose cooldown has
    expired: the next dispatch will probe. *)

(** {1 Deterministic fault plane}

    Modeled on {!Replication.Fault} (PR 8) and the journal's I/O fault
    plane (PR 5): arm at most one fault per shard; it fires from the
    [at]-th dispatch to that shard (1-based, counted across all requests)
    onward, until {!Fault.disarm}. *)

module Fault : sig
  type kind =
    | Kill  (** every endpoint refuses instantly: a dead process. *)
    | Hang
        (** the shard accepts but never answers: the dispatch burns its
            whole per-shard deadline, then fails. *)
    | Slow of float
        (** delay each dispatch by this many milliseconds, then answer
            normally: a struggling-but-alive shard. *)

  val arm : t -> shard:string -> kind -> at:int -> unit
  (** Raises [Invalid_argument] on an unknown shard name or [at < 1]. *)

  val disarm : t -> shard:string -> unit

  val dispatches : t -> shard:string -> int
  (** Dispatches counted so far against the shard (armed or not). *)
end
