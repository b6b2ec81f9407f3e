(* The one front-door stack behind both [mrpa serve] and [mrpa route]:
   binding, the stop-aware accept loop, the live-session count and drain,
   and the hardened line reader. Keeping a single copy is what makes the
   hardening bounds hold at every front door. *)

module Outbuf = Mrpa_engine.Outbuf

type config = {
  endpoint : Wire.endpoint;
  idle_timeout_ms : float option;
  max_request_bytes : int;
  allow_remote_shutdown : bool;
}

let default_max_request_bytes = 1_048_576

let default_config endpoint =
  {
    endpoint;
    idle_timeout_ms = None;
    max_request_bytes = default_max_request_bytes;
    allow_remote_shutdown = false;
  }

let shutdown_allowed config ~remote =
  (not remote) || config.allow_remote_shutdown

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* --- Line reader --------------------------------------------------------- *)

(* Small select interval: the price of noticing [stop] without signals. *)
let poll_interval_s = 0.1

(* One growing buffer per connection. Bytes in [start, stop) are read but
   not yet returned, and [start, scanned) is known to hold no newline, so
   each byte is scanned once however slowly a long line arrives. *)
type reader = {
  fd : Unix.file_descr;
  max_bytes : int;
  should_stop : (unit -> bool) option;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable scanned : int;
}

let reader ?(max_bytes = max_int) ?stop fd =
  {
    fd;
    max_bytes;
    should_stop = stop;
    buf = Bytes.create 4096;
    start = 0;
    stop = 0;
    scanned = 0;
  }

type outcome = Line of string | Eof | Timed_out | Too_long

let rec find_newline buf i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get buf i = '\n' then i
  else find_newline buf (i + 1) stop

(* Return [start, i) without a trailing CR, and consume through [next]. *)
let take r i next =
  let cr = i > r.start && Bytes.get r.buf (i - 1) = '\r' in
  let stop = if cr then i - 1 else i in
  let line = Bytes.sub_string r.buf r.start (stop - r.start) in
  if next >= r.stop then begin
    r.start <- 0;
    r.stop <- 0
  end
  else r.start <- next;
  r.scanned <- r.start;
  line

(* Make room for the next read: slide the unread bytes to the front when
   they fill at most half the buffer, otherwise double it. *)
let make_room r =
  let size = Bytes.length r.buf in
  if r.stop = size then begin
    let live = r.stop - r.start in
    let dst = if live <= size / 2 then r.buf else Bytes.create (2 * size) in
    Bytes.blit r.buf r.start dst 0 live;
    r.buf <- dst;
    r.scanned <- r.scanned - r.start;
    r.start <- 0;
    r.stop <- live
  end

let stopped r = match r.should_stop with Some f -> f () | None -> false

(* Without a stop flag or a deadline there is nothing to poll for, so a
   plain blocking read will do. *)
let readable r deadline =
  match (r.should_stop, deadline) with
  | None, None -> true
  | _ -> (
    let remaining =
      match deadline with
      | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
      | None -> poll_interval_s
    in
    let timeout =
      if r.should_stop = None then remaining
      else Float.min remaining poll_interval_s
    in
    match Unix.select [ r.fd ] [] [] timeout with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false)

let read_line r ~deadline =
  let rec scan () =
    let i = find_newline r.buf r.scanned r.stop in
    if i >= 0 then
      if i - r.start > r.max_bytes then Too_long else Line (take r i (i + 1))
    else begin
      r.scanned <- r.stop;
      if r.stop - r.start > r.max_bytes then Too_long
      else if stopped r then Eof
      else
        match deadline with
        | Some d when Unix.gettimeofday () >= d -> Timed_out
        | _ -> if readable r deadline then fill () else scan ()
    end
  and fill () =
    make_room r;
    match
      Unix.read r.fd r.buf r.stop (min 65536 (Bytes.length r.buf - r.stop))
    with
    | 0 ->
      (* EOF: serve a final unterminated line if one is pending. *)
      if r.stop = r.start then Eof else Line (take r r.stop r.stop)
    | n ->
      r.stop <- r.stop + n;
      scan ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> scan ()
    | exception Unix.Unix_error _ -> Eof
  in
  scan ()

(* --- Front door ---------------------------------------------------------- *)

type t = {
  config : config;
  stopping : bool Atomic.t;
  bound : Wire.endpoint option Atomic.t;
  lock : Mutex.t;
  mutable live : int;
  mutable accepted : int;
}

let create config =
  {
    config;
    stopping = Atomic.make false;
    bound = Atomic.make None;
    lock = Mutex.create ();
    live = 0;
    accepted = 0;
  }

let stop t = Atomic.set t.stopping true
let stopping t = Atomic.get t.stopping
let bound_endpoint t = Atomic.get t.bound
let connections t = with_lock t.lock (fun () -> t.accepted)

type farewell = Idle_timeout | Oversized | Blank_flood

let farewell_counter = function
  | Idle_timeout -> "idle_timeouts"
  | Oversized -> "oversized_requests"
  | Blank_flood -> "blank_floods"

type session = {
  handle : string -> [ `Continue | `Close ];
  send : Wire.response -> unit;
  close : unit -> unit;
}

(* --- Response writer ------------------------------------------------------ *)

(* Small enough for the minor heap, so a session that only answers pings
   never touches malloc; a writer grows once to its thread's usual
   response size and stays there. *)
let writer_initial_bytes = 1024

(* A writer that grew past this gives its storage back after the write,
   so one huge answer does not pin its size in every worker. *)
let writer_reset_bytes = 256 * 1024

let writer () = Outbuf.create writer_initial_bytes

let send ?lock w fd response =
  Outbuf.clear w;
  response w;
  Outbuf.add_char w '\n';
  let write () =
    try Outbuf.write_to w (Unix.write fd) with Unix.Unix_error _ -> ()
  in
  (match lock with None -> write () | Some m -> with_lock m write);
  if Outbuf.capacity w > writer_reset_bytes then Outbuf.reset w

(* A client that floods blank lines (each one "completes", so the reader
   returns) gets this many before the connection is dropped — together
   with the fixed per-cycle deadline this closes the blank-line slowloris
   loophole. *)
let max_consecutive_blanks = 64

(* The deadline is computed once per request cycle and survives blank
   lines: only a complete non-blank request earns a fresh clock, so
   neither a slow drip nor a blank-line feeder can hold the session. *)
let run_session t ~on_farewell fd session =
  let c = t.config in
  let r =
    reader ~max_bytes:c.max_request_bytes ~stop:(fun () -> stopping t) fd
  in
  let cycle_deadline () =
    Option.map
      (fun ms -> Unix.gettimeofday () +. (ms /. 1000.0))
      c.idle_timeout_ms
  in
  (* Best-effort farewell: the connection is being torn down anyway. *)
  let goodbye farewell code message =
    on_farewell farewell;
    session.send (Wire.error ~id:Json.Null ~code message)
  in
  let rec loop blanks deadline =
    match read_line r ~deadline with
    | Eof -> ()
    | Timed_out ->
      goodbye Idle_timeout Wire.Idle_timeout
        (Printf.sprintf "no complete request within %.0f ms; closing"
           (Option.value ~default:0.0 c.idle_timeout_ms))
    | Too_long ->
      goodbye Oversized Wire.Request_too_large
        (Printf.sprintf "request line exceeds %d bytes; closing"
           c.max_request_bytes)
    | Line line when String.trim line = "" ->
      if blanks + 1 >= max_consecutive_blanks then
        goodbye Blank_flood Wire.Bad_request
          (Printf.sprintf "%d consecutive blank lines; closing"
             max_consecutive_blanks)
      else loop (blanks + 1) deadline
    | Line line -> (
      match session.handle line with
      | `Close -> ()
      | `Continue -> loop 0 (cycle_deadline ()))
  in
  Fun.protect
    ~finally:(fun () ->
      session.close ();
      (try Unix.close fd with Unix.Unix_error _ -> ());
      with_lock t.lock (fun () -> t.live <- t.live - 1))
    (fun () -> try loop 0 (cycle_deadline ()) with _ -> ())

let bind_endpoint = function
  | Wire.Unix_socket path ->
    (* A stale socket file from a crashed process would make bind fail
       with EADDRINUSE; remove it only if it is actually a socket. *)
    (match Unix.lstat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
    | _ -> ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Wire.Tcp (host, port) ->
    let addr = Net.resolve host in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 64;
    fd

let serve t ?(on_listening = ignore) ?(on_stop = ignore) ~on_farewell
    open_session =
  Net.ignore_sigpipe ();
  let endpoint = t.config.endpoint in
  let listen_fd = bind_endpoint endpoint in
  let actual =
    match (endpoint, Unix.getsockname listen_fd) with
    | Wire.Tcp (host, 0), Unix.ADDR_INET (_, port) -> Wire.Tcp (host, port)
    | _ -> endpoint
  in
  Atomic.set t.bound (Some actual);
  let remote = match endpoint with Wire.Tcp _ -> true | _ -> false in
  let accept_loop () =
    on_listening ();
    while not (stopping t) do
      match Unix.select [ listen_fd ] [] [] poll_interval_s with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept listen_fd with
        | fd, _ ->
          Net.set_nodelay fd;
          with_lock t.lock (fun () ->
              t.live <- t.live + 1;
              t.accepted <- t.accepted + 1);
          let session = open_session ~remote fd in
          ignore
            (Thread.create (fun () -> run_session t ~on_farewell fd session) ())
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  Fun.protect
    ~finally:(fun () ->
      (* Drain: no new sessions, let the front door wind its own work
         down, give sessions a moment to flush their final responses,
         then tear the endpoint down. *)
      stop t;
      on_stop ();
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        with_lock t.lock (fun () -> t.live) > 0
        && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.02
      done;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      match endpoint with
      | Wire.Unix_socket path -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
      | Wire.Tcp _ -> ())
    accept_loop
