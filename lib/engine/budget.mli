(** Resource governance for query execution.

    A budget bundles every way a production engine bounds a run:

    - a {e wall-clock deadline}, measured on the monotonic clock
      ({!Metrics.now_ns}) so NTP slews can neither extend nor shorten it;
    - a {e fuel} counter — work units across whichever backend runs:
      path-at-a-time backends charge one unit per transition step, and the
      set-at-a-time stack machine charges the cardinality of the set each
      transition processes, so a unit is roughly "one path moved one step"
      everywhere;
    - a {e memory} budget — the maximum number of live/banked paths (or DP
      configurations) the run may hold at once;
    - a {e cooperative cancellation token} ({!cancel}), safe to fire from a
      signal handler or another thread;
    - deterministic {e fault injection} ({!with_fault_injection}) so tests
      can exercise every abort path without timing flakiness.

    A budget is consumed by handing {!guard} to an evaluator: the guard
    polls at the evaluator's checkpoints, charges fuel, compares the clock
    and the live count, and raises {!Mrpa_core.Guard.Abort} when any bound
    is crossed. The budget records which bound fired ({!tripped}); {!Eval}
    turns that into an {!Err.verdict} and the backends' banked partial
    answers into a graceful result.

    Budgets are single-use: create one per run. Once a bound trips, every
    further poll re-raises, which is what lets nested evaluator loops
    unwind quickly — don't share a tripped budget with a fresh run. *)

open Mrpa_core

type t

val create :
  ?deadline_ms:float -> ?fuel:int -> ?max_live:int -> unit -> t
(** A budget starting now. [deadline_ms] is a duration from now (on the
    monotonic clock), not an absolute time; [fuel] is the total checkpoint
    cost the run may spend; [max_live] is the largest live/banked path
    count any single checkpoint may report. Omitted components are
    unbounded. Raises [Invalid_argument] on negative values. *)

val unlimited : unit -> t
(** [create ()]: no bounds, but still cancellable — the cheapest way to get
    Ctrl-C support. *)

val with_fault_injection : at:int -> Guard.reason -> t -> t
(** [with_fault_injection ~at reason b] arms [b] to trip with [reason] at
    its [at]-th checkpoint poll (1-based), regardless of the real clock,
    fuel or memory state. Deterministic by construction: backends poll at
    fixed points, so the abort lands at the same place on every run. The
    budget is mutated and returned for chaining. Raises [Invalid_argument]
    if [at < 1]. *)

val cancel : t -> unit
(** Fire the cancellation token. Idempotent; safe from a signal handler,
    another thread or another domain (it only sets an atomic flag — the
    run aborts at its next checkpoint). *)

val cancelled : t -> bool

val guard : t -> Guard.t
(** The checkpoint callback to hand to evaluators. All guards of one budget
    share its accounting. *)

val tripped : t -> Guard.reason option
(** Which bound aborted the run, if any. *)

val checkpoints : t -> int
(** Checkpoint polls observed so far. *)

val fuel_used : t -> int
(** Total cost charged so far. *)

val verdict : ?limit:int -> returned:int -> t option -> Err.verdict
(** The verdict for a run that returned [returned] distinct paths under
    this budget (pass [None] for an ungoverned run) and an optional LIMIT
    of [limit] paths. A tripped bound wins; otherwise a met limit reports
    [Partial Limit] (conservative: the denotation may end exactly at the
    limit, but no path was provably dropped only when the limit was not
    reached); otherwise [Complete]. *)
