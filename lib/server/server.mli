(** The [mrpa serve] query server: a long-lived process holding one frozen
    graph snapshot, serving [mrpa.wire/1] requests concurrently.

    Architecture (one paragraph per moving part):

    - {b Front door} — {!Listener.serve}, shared with {!Router.serve},
      binds the endpoint (Unix-domain or TCP, {!Wire.endpoint}), accepts
      until a stop request, and runs one session thread per connection,
      reading request lines with the hardened reader; the server supplies
      the per-line handler.
    - {b Sessions and pipelining} — a session reads request lines as fast
      as they arrive and answers [ping] / [stats] / [lint] / [shutdown]
      (and bad requests, admission rejects, result-cache hits and overload
      refusals) inline, while [query] / [count] jobs are handed to the
      worker pool {e without waiting}: the worker writes its own response
      under the connection's write mutex. Multiple tagged requests may
      therefore be in flight on one connection and responses may return out
      of order — the request [id], echoed verbatim, is the correlation key.
      Requests that never touch a worker keep their relative order;
      evaluations complete in whatever order the pool finishes them. A
      session closing (EOF, timeout, oversize, blank-flood) waits for its
      in-flight workers before the fd is released.
    - {b Answers without a socket} — one dispatcher turns a request into
      either an inline response or a governed job (a budget and the
      evaluation that runs under it). A session sends the first and
      submits the second to the pool; {!answer} runs both on the calling
      thread, which is how [mrpa shell] serves its prompt.
    - {b One buffer per response} — a response is a {!Wire.response}: it
      renders itself, envelope and payload, into the buffer of the thread
      that sends it, and {!Listener.send} adds the newline and writes the
      line from there. Each session thread owns one writer, for what it
      answers inline (pings, stats, lint, counts and result-cache hits,
      errors and refusals); each pool worker owns one, picked by its
      worker index, for the governed jobs it runs. A writer starts at
      {!Listener.writer_initial_bytes}, keeps what it grows to, and goes
      back after an answer past {!Listener.writer_reset_bytes}; [stats]
      reports the workers' total as [server.worker_buffer_bytes]. A
      Complete payload is copied out of the writer into the result
      cache, never shared with it.
    - {b Worker pool} — a bounded {!Pool} of [workers] threads spread
      over up to [Domain.recommended_domain_count ()] domains. Session
      I/O, decode and plan-cache lookups stay on the session threads of
      the main domain; evaluation, rendering and the response write run on
      whichever domain picks the job up. When the queue is full the
      session immediately answers [overloaded] ({!Wire.error_code})
      instead of buffering, so memory under overload is bounded by
      [workers + queue], not by demand. [stats] reports
      [server.workers] and [server.worker_domains].
    - {b Snapshot and caches} — all workers read one frozen {!Snapshot.t};
      soundness of concurrent reads is by construction (mutation is
      unrepresentable), not by locking. The snapshot is the one unit of
      publication: it carries the journal sequence number it includes
      (what [min_seq], [views] and [health] read), the compiled-plan LRU
      (admission control, [lint] and evaluation share one parse + cost
      analysis per query text) and the bounded result cache for
      Complete-verdict responses. Cache entries are answers over the
      immutable graph and are never invalidated; a write becomes visible
      when the role thread publishes a new snapshot, with empty caches.
      The serving snapshot's caches surface in [stats] as
      [server.plan_cache_{hits,misses,size}],
      [server.result_cache_{hits,misses,size}] and [server.parses].
    - {b Budgets} — each query's clamped options become a fresh
      {!Mrpa_engine.Budget.t}; the server keeps every in-flight budget in a
      registry so shutdown can {!Mrpa_engine.Budget.cancel} them all, which
      aborts the runs at their next checkpoint with a sound partial result.
    - {b Metrics} — one server-wide {!Mrpa_engine.Metrics.t} behind a
      mutex (the collector itself is single-threaded by contract),
      surfaced by the [stats] verb.
    - {b Hardening} — the {!Listener} session enforces two read bounds. A
      connection that fails to deliver a {e complete} request line within
      [idle_timeout_ms] is answered with an [idle_timeout] wire error and
      closed; the deadline is computed once per request cycle and is {e not}
      reset by blank lines, so neither the silent idle connection, the
      one-byte-per-poll slowloris, nor the blank-line drip-feeder can hold
      a session thread forever (a blank-only client is additionally dropped
      after 64 consecutive blanks, counted as [server.blank_floods]). A
      request line exceeding [max_request_bytes] is answered with
      [request_too_large] and the connection is closed (framing past an
      oversized line cannot be trusted). Both events are counted
      ([server.idle_timeouts], [server.oversized_requests]) and worker
      deaths restarted by the {!Pool} supervisor appear as
      [server.worker_restarts] in [stats]. The [shutdown] verb is only
      honoured on Unix-domain sessions unless [allow_remote_shutdown] is
      set; a TCP client without it receives an [unauthorized] error
      (counted as [server.unauthorized]).

    Shutdown (an authorised [shutdown] request, or {!stop} from a signal
    handler) drains gracefully: stop accepting, cancel in-flight budgets,
    let the pool finish its queue, wait for sessions to flush their last
    response, then close and (for Unix-domain sockets) unlink. {!serve}
    then returns normally — exit code 0 belongs to the caller. *)

type role =
  | Standalone  (** serve one fixed snapshot; no replication. *)
  | Primary of { journal : string }
      (** tail the v2 journal at this path (created by a writer via
          {!Mrpa_graph.Journal.attach} or [mrpa append]): serve its replay,
          refresh the snapshot as records land, and stream them to [sub]
          subscribers. *)
  | Replica of { follow : Wire.endpoint }
      (** hot standby: subscribe to the primary at [follow], apply its
          record stream into a live graph, and serve (bounded-staleness)
          reads from rolling snapshots of it. *)

type config = {
  front : Listener.config;
      (** endpoint, idle timeout, request-line cap and the remote-shutdown
          gate, shared with {!Router.config}. *)
  workers : int;  (** worker-pool size [K >= 1]. *)
  queue_capacity : int;  (** bounded job queue [>= 1]. *)
  limits : Wire.limits;  (** server-side option ceilings. *)
  max_predicted_cost : int option;
      (** static admission ceiling, in the same work units {!Mrpa_core.Budget}
          fuel charges. When set, every [query] / [count] is cost-analysed
          ({!Mrpa_lint.Cost}) in the session thread — via the snapshot's
          compiled-plan cache, so hot queries cost one LRU lookup — and a
          query whose predicted cost exceeds the ceiling is refused with an
          [infeasible] wire error before it ever occupies a pool worker.
          [None] admits everything. *)
  role : role;
}

type t

val create : ?snapshot:Snapshot.t -> config -> t
(** Allocate the server state and spawn the worker pool. No socket is
    touched until {!serve}. A [Standalone] server requires [~snapshot]
    (raises [Invalid_argument] without one); [Primary] and [Replica]
    servers build and maintain their own snapshots from their live graphs
    — a primary replays its journal here, so a restarted primary serves
    its data immediately. Raises [Invalid_argument] on a bad pool geometry
    (see {!Pool.create}). *)

val snapshot : t -> Snapshot.t
(** The snapshot currently being served. Fixed for standalone servers;
    for primary/replica roles it is republished by the role thread as the
    journal stream advances (read it once per use). *)

val stop : t -> unit
(** Request shutdown. Only sets an atomic flag — safe from a signal
    handler or any thread; {!serve} notices within its select timeout and
    performs the actual drain from its own thread. Idempotent. *)

val close : t -> unit
(** Shut the worker pool down ({!Pool.shutdown}): queued jobs still run,
    then every worker thread and domain is joined. {!serve}'s drain calls
    it; a server that is never served (one only asked through {!answer})
    calls it itself when done. Idempotent. *)

val serve : t -> unit
(** Bind, listen, and serve until {!stop} (or a [shutdown] request).
    Returns after the graceful drain. Raises [Unix.Unix_error] if the
    endpoint cannot be bound (e.g. address in use) — binding errors are
    startup errors, not runtime ones. *)

val answer :
  ?wrap_budget:(Mrpa_engine.Budget.t -> Mrpa_engine.Budget.t) ->
  t ->
  Wire.request ->
  string
(** The response line (no trailing newline) a session would send for the
    request, computed on the calling thread without a socket. It is
    rendered into a fresh buffer, not a writer, and returned as a copy of
    it: the one copy a served line no longer takes. The same
    option resolver ({!Wire.clamp_request}), staleness gate, plan and
    result caches, admission control and metrics. A governed request
    ([query], [count], view reads) runs here rather than on the pool, with
    its budget in the in-flight registry for the whole run, so
    {!cancel_inflight} aborts it at its next checkpoint. [wrap_budget]
    (default identity) sees that budget first — how [mrpa shell] applies
    {!Mrpa_engine.Budget.with_fault_injection}. [sub] and [shutdown] act on
    a connection and answer [bad_request] here. *)

val cancel_inflight : t -> unit
(** Cancel every registered budget: each run stops at its next checkpoint
    with a sound partial result. Shutdown calls it, and [mrpa shell] calls
    it on Ctrl-C. *)

val bound_endpoint : t -> Wire.endpoint option
(** The endpoint {!serve} actually bound, available once it is listening.
    Differs from [config.endpoint] exactly when a TCP port of [0] asked
    the kernel to pick a free one — the supported way to run test servers
    without port races. [None] before {!serve} binds. *)

val connections_served : t -> int
(** Total connections accepted so far (diagnostic, for tests). *)
