(** A fixed-size worker pool with a bounded job queue.

    [K] workers drain a FIFO of thunks; producers hand work over with
    {!submit}, which {e never blocks and never buffers unboundedly}: when
    the queue is at capacity it returns [false] and the caller is expected
    to shed the load (the server turns that into an [overloaded] wire
    response). Backpressure is therefore explicit at the edge of the
    system instead of implicit in a growing heap.

    {b Domains.} The workers run on
    [d = min K (Domain.recommended_domain_count ())] domains: the calling
    domain and [d - 1] spawned ones, never more domains than cores. Each
    domain pays for every stop-the-world minor collection, and a domain
    without a core to run on stalls the others while they wait for it.
    Worker [i] is a systhread on domain [i mod d], so with [K > d] several
    workers share a domain's runtime lock. A pool of one worker spawns no
    domain. A job may run on any domain: it must not touch unsynchronised
    shared state.

    {b Memory.} Each spawned domain halves its own minor heap as its
    first act (the runtime reserves 2 MiB per domain), and a pool that
    spawns domains caps glibc's malloc arenas at one per domain: OCaml
    mallocs every block over 1 KiB, and parallel threads would otherwise
    each keep an arena of freed memory. Without the cap, two domains per
    shard raised a two-shard fleet's peak RSS by about a quarter; with
    responses written from reused per-worker buffers, by a sixth.

    Handoff is a single [Mutex.t] plus a [Condition.t] shared by every
    domain; jobs run outside the lock. A job that raises is swallowed (the
    exception is recorded as a counter, the worker survives) — jobs are
    expected to do their own error reporting. The one exception is
    {!Fatal}: a job raising it kills its worker's loop.

    {b Supervision.} A worker whose loop exits abnormally (a {!Fatal} job,
    or a bug in the handoff itself) re-enters it in place, on the same
    thread and domain, and the event is counted in {!restarts}, which the
    server surfaces as the [server.worker_restarts] stat. The pool never
    silently shrinks, and never starts a thread or domain after {!create}.

    {!shutdown} is graceful by construction: producers are refused first,
    the already-queued jobs still run, and the call returns only when every
    worker thread and then every spawned domain has been joined.
    Cancelling {e in-flight} work is not the pool's job — the server does
    that by firing the {!Mrpa_engine.Budget.cancel} token of every running
    query, which aborts them at their next checkpoint. *)

type t

exception Fatal of string
(** A job that raises [Fatal] declares its worker's state unrecoverable:
    the worker's loop ends (counted in both {!job_errors} and {!restarts})
    and starts over on the same thread. Any other exception is swallowed.
    Also the chaos hook the supervision tests use. *)

val create : workers:int -> queue_capacity:int -> t
(** Start [workers] worker threads ([>= 1]), spread over {!domains}
    domains, over a queue of at most [queue_capacity] ([>= 1]) waiting
    jobs. Capacity counts {e queued} jobs only; the [workers] jobs
    currently executing are not queued. Raises [Invalid_argument] when
    either bound is below one. *)

val submit : t -> (int -> unit) -> bool
(** Enqueue a job; [false] when the queue is full or the pool is shutting
    down — the job was not (and will never be) accepted. The job is
    called with the index of the worker that runs it, in
    [[0, workers)]: state kept per index (the server's response writers)
    is owned by that worker's thread alone. *)

val queued : t -> int
(** Jobs waiting (not yet picked up by a worker). *)

val running : t -> int
(** Jobs currently executing. *)

val job_errors : t -> int
(** Jobs whose thunk raised (diagnostic; the workers survived — except for
    {!Fatal}, which also counts here). *)

val restarts : t -> int
(** Worker loops that died and were re-entered by the supervisor. *)

val domains : t -> int
(** Domains the workers run on, the calling one included:
    [min workers (Domain.recommended_domain_count ())]. *)

val shutdown : t -> unit
(** Refuse new submissions, run every already-queued job, then join all
    worker threads and spawned domains. Idempotent; safe to call from any
    thread except a pool worker. A pool that is never shut down keeps its
    domains, and every live domain takes part in each minor collection of
    the process. *)
