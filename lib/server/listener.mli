(** The front-door stack shared by {!Server.serve} and {!Router.serve}.

    It owns everything between the socket and a request line: binding the
    endpoint, the stop-aware accept loop, one thread per session, the
    live-session count and the drain wait at shutdown, and the hardened
    line reader. Each front door supplies only its per-line handler and
    its own counters, so a hardening bound added here holds at every
    front door.

    The reader is also the one line reader of every client-side socket in
    [lib/server]: {!Client} connections, the router's shard transport and
    the replica's journal stream. *)

type config = {
  endpoint : Wire.endpoint;  (** where the front door listens. *)
  idle_timeout_ms : float option;
      (** close a session that produces no complete request line within
          this window; [None] waits forever. *)
  max_request_bytes : int;  (** request-line cap. *)
  allow_remote_shutdown : bool;
      (** honour the [shutdown] verb on TCP sessions. Without it only
          Unix-domain clients (who share the host) may stop the front
          door; remote clients get [unauthorized]. *)
}

val default_max_request_bytes : int
(** 1 MiB — far above any legitimate [mrpa.wire/1] request, far below a
    heap-exhaustion payload. *)

val default_config : Wire.endpoint -> config
(** No idle timeout, {!default_max_request_bytes}, no remote shutdown. *)

val shutdown_allowed : config -> remote:bool -> bool
(** Whether a [shutdown] arriving on a session ([remote] = over TCP) may
    be honoured. *)

(** {1 Line reader} *)

type reader

val reader : ?max_bytes:int -> ?stop:(unit -> bool) -> Unix.file_descr -> reader
(** A buffered reader over [fd]. [max_bytes] (default unbounded) caps a
    line; [stop], when given, is polled so a blocked read notices a
    shutdown within a fraction of a second. The reader keeps one growing
    buffer and scans each byte once, however the line is fragmented. *)

type outcome =
  | Line of string  (** a line without its newline and trailing CR. *)
  | Eof  (** the peer closed, the socket failed, or [stop] said so. *)
  | Timed_out  (** no complete line before the deadline. *)
  | Too_long  (** the pending line exceeds [max_bytes]. *)

val read_line : reader -> deadline:float option -> outcome
(** The next line. [deadline] is absolute ([Unix.gettimeofday] seconds)
    and bounds the time to a {e complete} line, not the time between
    bytes. At end of input a final unterminated line is still returned.
    Without [stop] and [deadline] the read simply blocks. *)

(** {1 Front door} *)

type t

val create : config -> t

val stop : t -> unit
(** Ask {!serve} to drain and return. Only sets a flag: safe from a signal
    handler or any thread. *)

val stopping : t -> bool

val bound_endpoint : t -> Wire.endpoint option
(** The endpoint actually bound (a TCP port of 0 asks the kernel to pick
    one); [None] until {!serve} binds. *)

val connections : t -> int
(** Sessions accepted so far. *)

(** Why a session was closed by the front door itself. *)
type farewell =
  | Idle_timeout  (** answered [idle_timeout]. *)
  | Oversized  (** answered [request_too_large]. *)
  | Blank_flood  (** 64 consecutive blank lines; answered [bad_request]. *)

val farewell_counter : farewell -> string
(** ["idle_timeouts"], ["oversized_requests"] or ["blank_floods"]: the
    counter suffix each front door reports under its own prefix. *)

type session = {
  handle : string -> [ `Continue | `Close ];
      (** answer one non-blank request line. *)
  send : Wire.response -> unit;
      (** write one response line from the session thread's writer; used
          for the farewell. *)
  close : unit -> unit;  (** called once, before the socket closes. *)
}

(** {1 Response writer}

    A response is rendered and written by one thread, through one buffer
    that thread owns: its {e writer}. {!send} renders the envelope, the
    payload and the newline into the writer and writes the line to the
    socket from the writer's storage, with no intermediate string. The
    writer is then reused for the thread's next response.

    Who owns which writer:
    - each session thread, one for the lines it answers inline (pings,
      stats, lint, counts and result-cache hits, errors, refusals and the
      farewell) — {!Server} and {!Router} sessions alike;
    - each pool worker of a {!Server}, one for the governed jobs it runs;
      its worker index ({!Pool.submit}) picks it, so workers that share a
      domain never share a writer.

    A writer is never shared between threads, so rendering takes no lock;
    only the socket write takes the connection's lock. *)

val writer_initial_bytes : int
(** 1 KiB: a fresh writer's capacity. *)

val writer_reset_bytes : int
(** 256 KiB: a writer whose capacity has grown past this goes back to
    {!writer_initial_bytes} after the write that needed it. *)

val writer : unit -> Mrpa_engine.Outbuf.t
(** A fresh writer of {!writer_initial_bytes}. *)

val send :
  ?lock:Mutex.t -> Mrpa_engine.Outbuf.t -> Unix.file_descr -> Wire.response -> unit
(** [send ?lock w fd response] clears [w], renders [response] and a
    newline into it, and writes the line to [fd] (under [lock], when
    given), ignoring a vanished peer. The rendering runs outside [lock].
    Afterwards a writer grown past {!writer_reset_bytes} is reset. *)

val serve :
  t ->
  ?on_listening:(unit -> unit) ->
  ?on_stop:(unit -> unit) ->
  on_farewell:(farewell -> unit) ->
  (remote:bool -> Unix.file_descr -> session) ->
  unit
(** Bind, then accept until {!stop}, opening one session per connection
    ([remote] = the endpoint is TCP) and running it on its own thread.
    Each session reads lines with the hardened reader: one idle deadline
    per request cycle that blank lines do not reset, the request-line
    cap, and the blank-flood cap. [on_listening] runs once the endpoint
    is bound. On the way out [on_stop] runs, sessions get up to 5 s to
    finish, and a Unix-domain socket file is unlinked. Raises
    [Unix.Unix_error] when the endpoint cannot be bound. *)
