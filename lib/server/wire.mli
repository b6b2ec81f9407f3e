(** The [mrpa.wire/1] protocol: newline-delimited JSON over a stream socket.

    Framing is one JSON document per [\n]-terminated line, in both
    directions. A request names a {!verb} and, for [query] / [count], the
    query text plus per-request {!options}; a response echoes the request's
    [id] verbatim and is either [{"ok":true, ...}] with verb-specific
    payload fields or [{"ok":false, "error":{"code", "message"}}].

    Requests:
    {v
{"mrpa":"mrpa.wire/1", "id":1, "verb":"query",
 "query":"[i,alpha,_] . [_,beta,_]*",
 "options":{"strategy":"bfs", "limit":100, "max_length":6,
            "simple":false, "deadline_ms":250, "fuel":100000,
            "max_paths":10000}}
    v}

    Every option is optional. The server {e clamps} each one against its
    own {!limits} ({!clamp}) — a client may always ask for less than the
    server allows, never more — and lowers the governed triple
    (deadline/fuel/max_paths) into a fresh {!Mrpa_engine.Budget.t}
    ({!budget_of_options}), so a served query degrades to a sound partial
    result exactly like a local governed run, with the same
    {!Mrpa_engine.Err.verdict} taxonomy in the response.

    This module is pure protocol — no sockets, no threads — so it is
    testable without I/O and usable by both {!Server} and {!Client}. *)

open Mrpa_engine

val version : string
(** ["mrpa.wire/1"]. Carried as the ["mrpa"] field of every request and
    response; a request with a missing or different version is rejected. *)

(** {1 Endpoints} *)

type endpoint =
  | Unix_socket of string  (** path of a Unix-domain socket. *)
  | Tcp of string * int  (** host, port. *)

val endpoint_to_string : endpoint -> string

val endpoint_of_string : string -> (endpoint, string) result
(** Inverse of {!endpoint_to_string}: accepts [unix:PATH], [tcp:HOST:PORT]
    and the bare [HOST:PORT] shorthand. The grammar behind [--follow] and
    [--endpoints]. *)

(** {1 Requests} *)

(** One member of the [views] verb family. *)
type view_action =
  | V_register
      (** add a named view: a label word (["word"]) backed by incremental
          rank-1 maintenance, or a regular path expression (["query"])
          kept by dirty-marking + bounded re-projection. *)
  | V_drop
  | V_list  (** every view with its maintenance/staleness accounting. *)
  | V_edges  (** the view's derived edges, as vertex-name pairs. *)
  | V_counts  (** like [edges], with per-pair path counts. *)
  | V_analytics
      (** run a single-relational algorithm over the view's derived graph:
          ["degree"], ["pagerank"], ["components"] or ["communities"]. *)

val view_action_name : view_action -> string
val view_action_of_name : string -> view_action option

type view_req = {
  action : view_action;
  view_name : string option;  (** required except for [list]. *)
  word : string list option;
      (** [register]: label names; the wire accepts a JSON array or the
          ["a.b.c"] shorthand string. *)
  view_query : string option;  (** [register]: the expression form. *)
  measure : string option;  (** [analytics]; defaults to ["degree"]. *)
  top : int option;  (** [analytics]: ranking size; defaults to 10. *)
}

type verb =
  | Query  (** run a regular path query; respond with the result set. *)
  | Count  (** governed counting; respond with the number and verdict. *)
  | Lint
      (** statically analyse the query — diagnostics plus predicted
          cost/cardinality — without evaluating it; answered inline by the
          session thread, never occupying a worker. *)
  | Stats  (** server-wide metrics snapshot. *)
  | Ping  (** liveness probe. *)
  | Shutdown  (** ask the server to drain and exit. *)
  | Health
      (** replication health probe: role, last-applied sequence number,
          lag behind the primary, epoch, connectivity. Answered inline. *)
  | Sub
      (** subscribe to the primary's journal stream. The response's [sub]
          payload describes the handoff ([start_seq]/[last_seq]/[epoch]/
          [reset]); after it, the connection becomes a one-way stream of
          framed journal records and ["#hb SEQ"] heartbeat comments.
          Rejected with [bad_request] on non-primary servers. *)
  | Views of view_req
      (** the materialized-view family. On the wire: [verb = "views"] plus
          a ["view"] object carrying the {!view_req} fields; [register]
          reuses the request's [options] for the expression form's
          [max_length] (clamped like any query) and reads honour the
          bounded-staleness options. *)

val verb_name : verb -> string

val verb_of_name : string -> verb option
(** Payload-free verbs only: ["views"] maps to [None] here because a
    {!Views} request cannot exist without its [view] object —
    {!decode_request} handles it directly. *)

type options = {
  strategy : Plan.strategy option;  (** force an evaluation strategy. *)
  limit : int option;  (** stop after this many distinct paths. *)
  max_length : int option;  (** star-unrolling bound. *)
  simple : bool;  (** restrict to simple paths. *)
  deadline_ms : float option;  (** wall-clock budget, from dequeue. *)
  fuel : int option;  (** work-unit budget. *)
  max_paths : int option;  (** live/banked path budget. *)
  min_seq : int option;
      (** bounded staleness: require the serving replica to have applied
          at least this journal sequence number (read-your-writes). *)
  max_staleness_ms : float option;
      (** bounded staleness: require the serving replica to have heard
          from its primary within this window. *)
  from_seq : int option;  (** [sub] only: first sequence number wanted. *)
  epoch : int option;
      (** [sub] only: the primary epoch the subscriber last followed; a
          mismatch forces a full reset handoff. *)
}

val default_options : options
(** Everything unset; [simple = false]. *)

type request = {
  id : Json.t;
      (** echoed verbatim in the response; {!Json.Null} when absent. *)
  verb : verb;
  query : string option;  (** required by [query], [count] and [lint]. *)
  options : options;
}

val decode_request : string -> (request, string) result
(** Parse one request line. [Error] is a human-readable reason (bad JSON,
    wrong version, unknown verb, missing query, malformed option). *)

val encode_request : request -> string
(** The single-line JSON for a request (no trailing newline). Used by
    {!Client} and tests; [decode_request (encode_request r)] is [Ok r]
    modulo unset-option normalisation. *)

(** {1 Server-side limits} *)

type limits = {
  max_deadline_ms : float option;
      (** ceiling on (and default for) a request's deadline. *)
  max_fuel : int option;
  max_live_paths : int option;
  max_limit : int option;
      (** ceiling on (and default for) the number of returned paths. *)
  max_length_cap : int;  (** ceiling on the star-unrolling bound. *)
  min_staleness_ms : float option;
      (** floor on a requested [max_staleness_ms]: the server will not
          promise reads fresher than this. Unlike the ceilings above it
          only applies when the client asked — an unset request stays
          unbounded. *)
}

val default_limits : limits
(** No governed ceilings; [max_length_cap = 16]. *)

val clamp : limits -> options -> options
(** Effective options: each requested value is capped by the corresponding
    server limit, and a limit with no requested value becomes the value —
    the server's ceilings always apply, whether or not the client asked.
    [max_length] is always [Some _]: the requested bound capped at
    [max_length_cap], or [min Engine.default_max_length max_length_cap]
    when unset. *)

val clamp_request : limits -> request -> options
(** {!clamp} on a request's options, with one verb rule: [max_limit] caps a
    [count]'s [limit] only when the client set one. A count returns no
    paths, so an unset limit stays unset and a plain count keeps the
    Counting DP ({!Engine.count_plan}). *)

val budget_of_options : options -> Budget.t
(** A fresh single-use budget from the (clamped) governed options. Always
    cancellable, even when every bound is unset, so server shutdown can
    abort the run cooperatively. *)

(** {1 Responses} *)

type error_code =
  | Bad_request  (** unparseable or malformed request line. *)
  | Query_error
      (** the query failed to parse / name resolution failed, or its count
          exceeds [max_int]. *)
  | Overloaded  (** the job queue is full; retry later. *)
  | Shutting_down  (** the server is draining. *)
  | Internal  (** a bug: unexpected exception while serving. *)
  | Request_too_large
      (** the request line exceeded the server's byte cap; the connection
          is closed after this response (framing cannot be trusted). *)
  | Idle_timeout
      (** no complete request line arrived within the idle deadline; sent
          best-effort, then the connection is closed. *)
  | Infeasible
      (** static admission control: the query's predicted cost exceeds the
          server's [--max-predicted-cost] ceiling, so it was rejected
          before ever reaching a worker. *)
  | Unauthorized
      (** the verb is not allowed on this transport: [shutdown] over TCP
          when the server was started without [--allow-remote-shutdown]. *)
  | Stale
      (** a bounded-staleness read ([min_seq] / [max_staleness_ms]) could
          not be satisfied within the server's short catch-up wait; retry
          here later or fail over to another endpoint. *)
  | Unknown_view
      (** a [views] read or drop named a view that is not registered. *)

val error_code_name : error_code -> string

val response_ok : id:Json.t -> (string * string) list -> string
(** [response_ok ~id fields] is one response line (no trailing newline):
    the protocol envelope [{"mrpa", "id", "ok":true}] extended with the
    given [(key, raw_json_value)] payload fields — raw so an already
    rendered {!Mrpa_engine.Render.result_json} document can be spliced in
    without reparsing. *)

val response_error : id:Json.t -> code:error_code -> string -> string
(** One error-response line: [ok:false] and [{"code", "message"}]. *)
