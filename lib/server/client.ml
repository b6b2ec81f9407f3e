type conn = {
  fd : Unix.file_descr;
  reader : Listener.reader;
  mutable closed : bool;
}

(* Connect failures worth retrying: the server is not there *yet* (refused,
   socket file not created, listen backlog reset) or the network hiccuped.
   Anything else — bad address, permission — will not get better by
   waiting. *)
let retryable_connect_error = function
  | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET | Unix.ETIMEDOUT
  | Unix.EAGAIN ->
    true
  | _ -> false

let connect_err endpoint =
  match Net.connect_fd endpoint with
  | fd -> Ok { fd; reader = Listener.reader fd; closed = false }
  | exception Unix.Unix_error (err, _, _) ->
    Error
      ( Some err,
        Printf.sprintf "cannot connect to %s: %s"
          (Wire.endpoint_to_string endpoint)
          (Unix.error_message err) )
  | exception Failure msg -> Error (None, msg)

let connect endpoint =
  Result.map_error (fun (_, msg) -> msg) (connect_err endpoint)

let read_line conn =
  match Listener.read_line conn.reader ~deadline:None with
  | Listener.Line line -> Ok line
  | Listener.Eof | Listener.Timed_out | Listener.Too_long ->
    Error "connection closed by server"

(* --- Pipelined mode ------------------------------------------------------ *)

(* [send]/[receive] split the write and the read so a caller can keep
   several tagged requests in flight on one connection; the server may
   answer them in any order, and the request [id] is the correlation key.
   The synchronous [request*] API below is send-then-receive. *)

let send_raw conn line =
  if conn.closed then Error "connection is closed"
  else
    match Net.write_all conn.fd (line ^ "\n") with
    | () -> Ok ()
    | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "send failed: %s" (Unix.error_message err))

let send conn req = send_raw conn (Wire.encode_request req)

let receive_raw conn =
  if conn.closed then Error "connection is closed" else read_line conn

let receive conn =
  match receive_raw conn with
  | Error _ as e -> e
  | Ok line -> (
    match Json.parse line with
    | Ok json -> Ok json
    | Error msg -> Error (Printf.sprintf "bad response: %s" msg))

let response_id json =
  Option.value ~default:Json.Null (Json.member "id" json)

let request_raw conn line =
  match send_raw conn line with
  | Error _ as e -> e
  | Ok () -> read_line conn

let request conn req =
  match request_raw conn (Wire.encode_request req) with
  | Error _ as e -> e
  | Ok line -> (
    match Json.parse line with
    | Ok json -> Ok json
    | Error msg -> Error (Printf.sprintf "bad response: %s" msg))

let close conn =
  if not conn.closed then begin
    conn.closed <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* --- Retry with backoff -------------------------------------------------- *)

type retry_policy = { retries : int; backoff_ms : float }

let no_retry = { retries = 0; backoff_ms = 100.0 }

(* Full jitter over an exponentially growing window, capped at 10 s:
   delay in [d/2, d] where d = backoff_ms * 2^attempt. Half the window is
   deterministic so even rand=0 spreads attempts out; the jittered half
   desynchronises a thundering herd of clients retrying the same
   overloaded server. *)
let backoff_delay_ms ?(rand = Random.float) policy ~attempt =
  let d = min 10_000.0 (policy.backoff_ms *. (2.0 ** float_of_int attempt)) in
  (d /. 2.0) +. rand (d /. 2.0)

let response_error_code json =
  match Json.member "ok" json with
  | Some (Json.Bool false) -> (
    match Option.bind (Json.member "error" json) (Json.member "code") with
    | Some (Json.String code) -> Some code
    | _ -> None)
  | _ -> None

(* Responses that are worth another attempt (possibly elsewhere): the
   server is there but shedding load, or a replica could not satisfy the
   requested staleness bound — another endpoint may be fresher. *)
let retryable_response json =
  match response_error_code json with
  | Some code ->
    code = Wire.error_code_name Wire.Overloaded
    || code = Wire.error_code_name Wire.Stale
  | None -> false

(* A verb whose re-execution cannot change server state: safe to retry
   after a {e mid-stream} failure, where we cannot know whether the
   server acted on the request before the connection died. [shutdown] is
   the counter-example; [sub] never completes with one response line. *)
let idempotent_verb = function
  | Wire.Query | Wire.Count | Wire.Lint | Wire.Stats | Wire.Ping
  | Wire.Health ->
    true
  | Wire.Shutdown | Wire.Sub -> false
  (* View reads are pure; register/drop change the registry, so a blind
     replay could mask (or double-report) the first attempt's outcome. *)
  | Wire.Views { Wire.action = V_list | V_edges | V_counts | V_analytics; _ }
    ->
    true
  | Wire.Views { Wire.action = V_register | V_drop; _ } -> false

(* One fresh connection per attempt: after an [overloaded] answer, a
   refused connect or a mid-stream disconnect there is nothing worth
   keeping on the old socket, and a clean slate means the retry loop needs
   no per-transport state machine. Returns the raw response line so
   callers (mrpa call, the cram tests) can echo the server's bytes
   verbatim.

   With several endpoints this is the failover client: attempts rotate
   round-robin across the list, and the backoff sleep is paid only after a
   {e full} cycle has failed — trying the standby must be immediate, while
   hammering a dead fleet must still back off. *)
let request_failover ?(policy = no_retry) ?(sleep = Unix.sleepf) ?rand
    endpoints req =
  let eps = Array.of_list endpoints in
  let n = Array.length eps in
  if n = 0 then invalid_arg "Client.request_failover: no endpoints";
  (* At least one full cycle through the list: with [retries = 0] and a
     stale (or dead) first endpoint, the whole point of passing several
     endpoints is that a fresher replica further down still gets its
     chance before we give up. Backoff stays charged per completed cycle,
     so the widened floor never adds a sleep. *)
  let attempts = max (policy.retries + 1) n in
  let rec go attempt =
    let retry_or final =
      if attempt + 1 < attempts then begin
        (* Exponent = completed cycles through the endpoint list. *)
        if (attempt + 1) mod n = 0 then
          sleep (backoff_delay_ms ?rand policy ~attempt:(attempt / n) /. 1000.0);
        go (attempt + 1)
      end
      else final
    in
    match connect_err eps.(attempt mod n) with
    | Error (Some err, msg) when retryable_connect_error err ->
      retry_or (Error msg)
    | Error (_, msg) ->
      (* Not transient on {e this} endpoint (bad address, permission) —
         but with alternatives available, rotate instead of giving up. *)
      if n > 1 then retry_or (Error msg) else Error msg
    | Ok conn -> (
      let result = request_raw conn (Wire.encode_request req) in
      close conn;
      match result with
      | Error _ as e ->
        (* Mid-stream failure: the connection died after connect (EOF,
           ECONNRESET, EPIPE). Retry only what is safe to re-execute. *)
        if idempotent_verb req.Wire.verb then retry_or e else e
      | Ok line -> (
        match Json.parse line with
        | Error msg -> Error (Printf.sprintf "bad response: %s" msg)
        | Ok json when retryable_response json ->
          (* An [overloaded] / [stale] response is a valid answer — only
             replace it with a better one; when attempts run out, hand the
             last one to the caller as [Ok] so the wire taxonomy is
             preserved. *)
          retry_or (Ok line)
        | Ok _ -> Ok line))
  in
  go 0

let request_retry ?policy ?sleep ?rand endpoint req =
  request_failover ?policy ?sleep ?rand [ endpoint ] req
