(** Structured error and verdict taxonomy for the execution pipeline.

    Every governed run ends in a {!verdict}: either the full denotation was
    produced, or the run was stopped early for a {!reason} and the result is
    a sound partial answer. The taxonomy is deliberately closed — the CLI
    exit-code policy, the JSON renderer and the metrics counters all switch
    on it, so adding a reason is a cross-cutting change by design. *)

open Mrpa_core

type reason =
  | Deadline  (** the wall-clock deadline passed ({!Budget}). *)
  | Fuel  (** the transition-step budget is exhausted. *)
  | Memory  (** the live/banked path budget was hit. *)
  | Cancelled  (** the cancellation token fired (e.g. Ctrl-C). *)
  | Limit  (** a LIMIT clause stopped the run at [k] paths. *)
  | Shard_unavailable
      (** a sharded deployment lost a shard mid-request: the answer is the
          sound union of the shards that did respond ({!Mrpa_server.Router});
          the missing shard names travel in the response, not here. *)

type verdict =
  | Complete  (** the result is the full (restricted) denotation. *)
  | Partial of reason
      (** the result is a sound subset; [reason] says what stopped it. *)

val of_guard : Guard.reason -> reason
(** Embed the backend-level abort reasons; [Limit] has no guard analogue
    (limits are pushed down, not guarded). *)

val reason_name : reason -> string
(** ["deadline" | "fuel" | "memory" | "cancelled" | "limit" |
    "shard_unavailable"]. *)

val reason_of_name : string -> reason option
(** Inverse of {!reason_name} (used by the CLI's fault-injection flag). *)

val verdict_name : verdict -> string
(** ["complete"] or ["partial:<reason>"]. *)

(** {1 Exit-code policy}

    One policy for every [mrpa] subcommand:
    - {!exit_ok} [= 0] — success (for boolean subcommands: the positive
      verdict — recognized, equivalent);
    - {!exit_user_error} [= 1] — a user/input error (bad query, unknown
      vertex, malformed graph file, statically empty query), or a boolean
      subcommand's negative verdict (rejected, different — like [grep]'s
      no-match);
    - {!exit_internal_error} [= 2] — a bug: an unexpected exception escaped
      the engine;
    - {!exit_partial} [= 3] — the run succeeded but produced a partial
      result under a budget or limit. *)

val exit_ok : int
val exit_user_error : int
val exit_internal_error : int
val exit_partial : int

val exit_code : verdict -> int
(** {!exit_ok} for [Complete], {!exit_partial} for [Partial _]. *)
