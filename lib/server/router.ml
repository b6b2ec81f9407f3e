open Mrpa_graph
open Mrpa_core
open Mrpa_engine

module StrSet = Set.Make (String)

(* --- Configuration ------------------------------------------------------- *)

type config = {
  front : Listener.config;
  map : Shardmap.t;
  limits : Wire.limits;
  shard_timeout_ms : float;
  probe_timeout_ms : float;
  breaker_failures : int;
  breaker_cooldown_ms : float;
  frontier_cap : int;
}

let default_shard_timeout_ms = 2000.0
let default_probe_timeout_ms = 250.0
let default_breaker_failures = 3
let default_breaker_cooldown_ms = 1000.0
let default_frontier_cap = 128

let default_config ~map endpoint =
  {
    front = Listener.default_config endpoint;
    map;
    limits = Wire.default_limits;
    shard_timeout_ms = default_shard_timeout_ms;
    probe_timeout_ms = default_probe_timeout_ms;
    breaker_failures = default_breaker_failures;
    breaker_cooldown_ms = default_breaker_cooldown_ms;
    frontier_cap = default_frontier_cap;
  }

(* --- Router state -------------------------------------------------------- *)

(* Closed / Open are the durable states; "half-open" is an open breaker
   whose cooldown has expired — the next dispatch probes instead of
   failing fast, and the probe's outcome decides which durable state
   comes next. *)
type breaker_state = B_closed | B_open of float  (* opened at, epoch s *)

type breaker = {
  mutable bstate : breaker_state;
  mutable failures : int;  (* consecutive fully-failed dispatches *)
  mutable preferred : int;  (* endpoint index that answered last *)
  mutable dispatches : int;  (* lifetime count; the fault plane's clock *)
}

type fault_kind = F_kill | F_hang | F_slow of float
type fault = { fkind : fault_kind; at : int }

(* A vertex or label name a query spells. *)
type name = Vertex_name of string | Label_name of string

(* A kept connection to one shard endpoint, with the reader that owns its
   buffered bytes. Between exchanges nothing is pending on it. *)
type conn = { fd : Unix.file_descr; reader : Listener.reader }

type t = {
  config : config;
  breakers : breaker array;
  faults : (int, fault) Hashtbl.t;
  idle : conn list array array;  (* [shard].(endpoint): idle connections *)
  lock : Mutex.t;  (* breakers, faults, metrics, idle *)
  metrics : Metrics.t;  (* the router.* counters, answered by [stats] *)
  listener : Listener.t;
  next_id : int Atomic.t;
  started_ns : int64;
}

(* Seeded at zero so [stats] lists every counter from the first request. *)
let counter_names =
  [ "router.connections"; "router.requests"; "router.queries";
    "router.counts"; "router.dispatches"; "router.partial"; "router.degraded";
    "router.breaker_opens"; "router.breaker_fastfails"; "router.idle_timeouts";
    "router.oversized_requests"; "router.blank_floods";
    "router.edges_gathered"; "router.shard_connects" ]

let create config =
  if Shardmap.n_shards config.map = 0 then
    invalid_arg "Router.create: empty shard map";
  {
    config;
    breakers =
      Array.init (Shardmap.n_shards config.map) (fun _ ->
          { bstate = B_closed; failures = 0; preferred = 0; dispatches = 0 });
    faults = Hashtbl.create 4;
    idle =
      Array.map
        (fun s -> Array.make (List.length s.Shardmap.endpoints) [])
        (Array.of_list (Shardmap.shards config.map));
    lock = Mutex.create ();
    metrics =
      (let m = Metrics.create () in
       List.iter (fun k -> Metrics.set m k 0) counter_names;
       m);
    listener = Listener.create config.front;
    next_id = Atomic.make 0;
    started_ns = Metrics.now_ns ();
  }

let bound_endpoint t = Listener.bound_endpoint t.listener

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Caller holds [t.lock]. Empties the pool; the caller closes what it
   returns, outside the lock. *)
let take_idle t =
  Array.fold_left
    (fun acc eps ->
      let acc = Array.fold_left List.rev_append acc eps in
      Array.fill eps 0 (Array.length eps) [];
      acc)
    [] t.idle

(* [stop] may run in a signal handler, on the thread that holds [t.lock]:
   then it leaves the idle connections to [serve], which closes them once
   it has drained. Connections returned after [stop] are closed, not
   kept. *)
let stop t =
  Listener.stop t.listener;
  if Mutex.try_lock t.lock then begin
    let idle = take_idle t in
    Mutex.unlock t.lock;
    List.iter close_conn idle
  end

let m_incr ?by t key =
  with_lock t.lock (fun () -> Metrics.incr ?by t.metrics key)

let shard_index_exn t name =
  match Shardmap.index_of t.config.map name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Router: unknown shard %S" name)

(* Caller holds [t.lock]. *)
let breaker_name t b =
  match b.bstate with
  | B_closed -> "closed"
  | B_open since ->
    if Unix.gettimeofday () -. since >= t.config.breaker_cooldown_ms /. 1000.0
    then "half_open"
    else "open"

let breaker_state t name =
  Option.map
    (fun i -> with_lock t.lock (fun () -> breaker_name t t.breakers.(i)))
    (Shardmap.index_of t.config.map name)

(* --- Deterministic fault plane ------------------------------------------- *)

module Fault = struct
  type kind = Kill | Hang | Slow of float

  let arm t ~shard kind ~at =
    if at < 1 then invalid_arg "Router.Fault.arm: at < 1";
    let idx = shard_index_exn t shard in
    let fkind =
      match kind with Kill -> F_kill | Hang -> F_hang | Slow ms -> F_slow ms
    in
    with_lock t.lock (fun () -> Hashtbl.replace t.faults idx { fkind; at })

  let disarm t ~shard =
    let idx = shard_index_exn t shard in
    with_lock t.lock (fun () -> Hashtbl.remove t.faults idx)

  let dispatches t ~shard =
    let idx = shard_index_exn t shard in
    with_lock t.lock (fun () -> t.breakers.(idx).dispatches)
end

(* --- Transport: kept connections, one exchange at a time ----------------- *)

(* Readable while idle means the shard has closed the connection or said
   farewell ([idle_timeout]): either way it can carry no exchange. *)
let readable_now fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* An idle connection to endpoint [ei] of shard [idx], most recently
   returned first; stale ones are closed on the way. *)
let rec borrow t idx ei =
  let taken =
    with_lock t.lock (fun () ->
        match t.idle.(idx).(ei) with
        | [] -> None
        | c :: rest ->
          t.idle.(idx).(ei) <- rest;
          Some c)
  in
  match taken with
  | Some c when readable_now c.fd ->
    close_conn c;
    borrow t idx ei
  | taken -> taken

(* Only after a complete exchange: nothing is in flight on [c]. *)
let give_back t idx ei c =
  let kept =
    with_lock t.lock (fun () ->
        let keep = not (Listener.stopping t.listener) in
        if keep then t.idle.(idx).(ei) <- c :: t.idle.(idx).(ei);
        keep)
  in
  if not kept then close_conn c

let connect t ep =
  match Net.connect_fd ep with
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  | exception Failure msg -> Error msg
  | fd ->
    m_incr t "router.shard_connects";
    Ok { fd; reader = Listener.reader fd }

(* Send [line] (request id [id]) to endpoint [ei] of shard [idx] and read
   its reply, all within [abs_deadline]: on an idle connection when one is
   kept, else on a fresh one. The connection is kept only after a reply
   carrying [id]; any other outcome closes it, so a late reply can never
   answer a later request. A kept connection that fails before any reply
   (the write fails, EOF, or a farewell, whose id is null) had gone stale
   in the pool, so the exchange is tried once more on a fresh connection:
   every verb the router sends is idempotent. *)
let try_endpoint t idx ei ep ~id line ~abs_deadline =
  let rec on c ~kept =
    let fail msg =
      close_conn c;
      Error msg
    in
    let retry_or msg = if kept then (close_conn c; fresh ()) else fail msg in
    match Net.write_all c.fd line with
    | exception Unix.Unix_error (err, _, _) -> retry_or (Unix.error_message err)
    | () -> (
      match Listener.read_line c.reader ~deadline:(Some abs_deadline) with
      | Listener.Line l -> (
        match Result.map (fun j -> (j, Json.member "id" j)) (Json.parse l) with
        | Ok (json, Some got) when got = id ->
          give_back t idx ei c;
          Ok json
        | Ok (_, Some Json.Null) -> retry_or "connection closed by shard"
        | _ ->
          (* A peer that frames garbage, or answers another request, is as
             good as dead. *)
          fail "unexpected reply from shard")
      | Listener.Eof -> retry_or "connection closed by shard"
      | Listener.Timed_out -> fail "shard response timed out"
      | Listener.Too_long -> fail "shard reply too long"
      | exception e ->
        close_conn c;
        raise e)
  and fresh () =
    match connect t ep with Error _ as e -> e | Ok c -> on c ~kept:false
  in
  match borrow t idx ei with Some c -> on c ~kept:true | None -> fresh ()

(* --- Breaker-gated shard dispatch ---------------------------------------- *)

type outcome =
  | D_ok of Json.t  (* a parsed [ok:true] response *)
  | D_wire of string * string  (* a definite wire error: code, message *)
  | D_unavailable  (* breaker open / transport dead / all endpoints stale *)

let fresh_id t = Json.Number (float_of_int (Atomic.fetch_and_add t.next_id 1))

let record_success t idx ~endpoint_index =
  with_lock t.lock (fun () ->
      let b = t.breakers.(idx) in
      b.failures <- 0;
      b.bstate <- B_closed;
      b.preferred <- endpoint_index)

(* A fully-failed dispatch (every endpoint dead or stale). Opening is
   edge-triggered on crossing the threshold so [router.breaker_opens]
   counts state transitions, not failures. *)
let record_failure t idx =
  with_lock t.lock (fun () ->
      let b = t.breakers.(idx) in
      b.failures <- b.failures + 1;
      if b.failures >= t.config.breaker_failures then begin
        (match b.bstate with
        | B_closed -> Metrics.incr t.metrics "router.breaker_opens"
        | B_open _ -> ());
        b.bstate <- B_open (Unix.gettimeofday ())
      end)

let health_request t =
  {
    Wire.id = fresh_id t;
    verb = Wire.Health;
    query = None;
    options = Wire.default_options;
  }

(* Try every endpoint of one shard once (starting at the one that answered
   last), with the given absolute deadline shared across the attempts.
   [stale] and [overloaded] answers rotate like transport failures — a
   fresher / less loaded replica may be next in the list. *)
let attempt_endpoints t idx req ~abs_deadline =
  let shard = Shardmap.shard t.config.map idx in
  let eps = Array.of_list shard.Shardmap.endpoints in
  let n = Array.length eps in
  let start = with_lock t.lock (fun () -> t.breakers.(idx).preferred) in
  let line = Wire.encode_request req ^ "\n" in
  let transport_or_stale = ref false in
  let rec go k =
    if k >= n then begin
      if !transport_or_stale then record_failure t idx;
      D_unavailable
    end
    else begin
      let ei = (start + k) mod n in
      match try_endpoint t idx ei eps.(ei) ~id:req.Wire.id line ~abs_deadline with
      | Error _ ->
        transport_or_stale := true;
        go (k + 1)
      | Ok json -> (
        match Json.member "ok" json with
        | Some (Json.Bool true) ->
          record_success t idx ~endpoint_index:ei;
          D_ok json
        | Some (Json.Bool false) -> (
          let code =
            match
              Option.bind (Json.member "error" json) (Json.member "code")
            with
            | Some (Json.String c) -> c
            | _ -> "internal"
          in
          let message =
            match
              Option.bind (Json.member "error" json) (Json.member "message")
            with
            | Some (Json.String m) -> m
            | _ -> "shard error"
          in
          if code = Wire.error_code_name Wire.Stale then begin
            transport_or_stale := true;
            go (k + 1)
          end
          else if code = Wire.error_code_name Wire.Overloaded then
            (* Shedding load is proof of life: rotate without charging
               the breaker. *)
            go (k + 1)
          else begin
            (* A definite answer (query_error, infeasible, ...): the
               shard is alive and has spoken. *)
            record_success t idx ~endpoint_index:ei;
            D_wire (code, message)
          end)
        | _ ->
          transport_or_stale := true;
          go (k + 1))
    end
  in
  go 0

(* One breaker-gated dispatch of [req] to shard [idx]. *)
let dispatch t idx req ~abs_deadline =
  m_incr t "router.dispatches";
  let now = Unix.gettimeofday () in
  let cooldown = t.config.breaker_cooldown_ms /. 1000.0 in
  let fault, gate =
    with_lock t.lock (fun () ->
        let b = t.breakers.(idx) in
        b.dispatches <- b.dispatches + 1;
        let fault =
          match Hashtbl.find_opt t.faults idx with
          | Some f when b.dispatches >= f.at -> Some f.fkind
          | _ -> None
        in
        let gate =
          match b.bstate with
          | B_closed -> `Proceed
          | B_open since when now -. since < cooldown -> `Fast_fail
          | B_open _ -> `Probe
        in
        (fault, gate))
  in
  let abs_deadline =
    Float.min abs_deadline (now +. (t.config.shard_timeout_ms /. 1000.0))
  in
  let apply_fault k =
    match fault with
    | None -> k ()
    | Some F_kill ->
      record_failure t idx;
      D_unavailable
    | Some F_hang ->
      (* The shard accepted and went silent: burn the whole per-shard
         deadline, exactly like [recv_line] would against a wedged peer. *)
      let pause = Float.max 0.0 (abs_deadline -. Unix.gettimeofday ()) in
      Thread.delay pause;
      record_failure t idx;
      D_unavailable
    | Some (F_slow ms) ->
      Thread.delay (ms /. 1000.0);
      k ()
  in
  match gate with
  | `Fast_fail ->
    m_incr t "router.breaker_fastfails";
    D_unavailable
  | `Probe ->
    (* Half-open: one cheap health probe decides. On success the real
       request proceeds on the now-closed breaker; on failure the breaker
       reopens and the cooldown clock restarts. *)
    let probe_deadline =
      Unix.gettimeofday () +. (t.config.probe_timeout_ms /. 1000.0)
    in
    apply_fault (fun () ->
        match
          attempt_endpoints t idx (health_request t) ~abs_deadline:probe_deadline
        with
        | D_ok _ | D_wire _ -> attempt_endpoints t idx req ~abs_deadline
        | D_unavailable ->
          with_lock t.lock (fun () ->
              t.breakers.(idx).bstate <- B_open (Unix.gettimeofday ()));
          D_unavailable)
  | `Proceed -> apply_fault (fun () -> attempt_endpoints t idx req ~abs_deadline)

(* Dispatch [mk_req idx] to each shard [idx] of [targets] concurrently,
   the last one on the calling thread; order of the result list is the
   order of [targets]. *)
let scatter t targets mk_req ~abs_deadline =
  let run idx =
    try dispatch t idx (mk_req idx) ~abs_deadline with _ -> D_unavailable
  in
  match List.rev targets with
  | [] -> []
  | last :: others ->
    let spawned =
      List.rev_map
        (fun idx ->
          let cell = ref D_unavailable in
          (idx, cell, Thread.create (fun () -> cell := run idx) ()))
        others
    in
    let mine = run last in
    List.map
      (fun (idx, cell, th) ->
        Thread.join th;
        (idx, !cell))
      spawned
    @ [ (last, mine) ]

(* --- Frontier narrowing and shard targeting ------------------------------ *)

let all_shards map = List.init (Shardmap.n_shards map) Fun.id

let owners map names =
  List.sort_uniq compare (List.map (Shardmap.owner map) names)

let texts = List.map (fun (n : Parser.name) -> n.Parser.text)
let tails triples = List.map (fun (t, _, _) -> t.Parser.text) triples

(* Narrow an atom to the edges leaving [frontier] ([None]: anywhere).
   Returns [None] when the narrowed atom is provably empty (no dispatch at
   all), otherwise the (possibly rewritten) atom and the shard indices
   that can own matching edges. A frontier wider than [frontier_cap]
   narrows only the targets; the extra edges it fetches are real edges,
   and {!fetch_atom} keeps only the heads of those leaving the frontier. *)
let narrow_atom map ~frontier_cap frontier (atom : Parser.atom) =
  match (frontier, atom) with
  (* Unconstrained: target by the atom's own source position. *)
  | None, Parser.Pattern { src = Only ns; _ } ->
    Some (atom, owners map (texts ns))
  | None, Parser.Pattern _ -> Some (atom, all_shards map)
  | None, Parser.Edges triples -> Some (atom, owners map (tails triples))
  | Some frontier, Parser.Pattern p -> (
    let names =
      match p.src with
      | Any -> frontier
      | Only ns -> StrSet.inter (StrSet.of_list (texts ns)) frontier
      | Except ns -> StrSet.diff frontier (StrSet.of_list (texts ns))
    in
    match StrSet.elements names with
    | [] -> None
    | names ->
      let targets = owners map names in
      if List.length names <= frontier_cap then
        let src = List.map (fun text -> { Parser.text; pos = 0 }) names in
        Some (Parser.Pattern { p with src = Only src }, targets)
      else Some (atom, targets))
  | Some frontier, Parser.Edges triples -> (
    let at_frontier (t, _, _) = StrSet.mem t.Parser.text frontier in
    match List.filter at_frontier triples with
    | [] -> None
    | kept -> Some (Parser.Edges kept, owners map (tails kept)))

(* --- Gathering the reachable subgraph ------------------------------------ *)

exception Fatal of Wire.error_code * string

type ctx = {
  rt : t;
  scratch : Digraph.t;  (* per-request: every gathered edge *)
  options : Wire.options;  (* clamped *)
  abs_deadline : float option;
  mutable reasons : Err.reason list;
  mutable missing : StrSet.t;
  atom_cache : (string, (string * string) list) Hashtbl.t;
      (* dispatch key -> (tail, head) of the edges it fetched *)
  confirmed : (name, unit) Hashtbl.t;
      (* names a shard's parser accepted during this request *)
}

let note_reason ctx r =
  if not (List.mem r ctx.reasons) then ctx.reasons <- r :: ctx.reasons

let note_missing ctx idx =
  let name = (Shardmap.shard ctx.rt.config.map idx).Shardmap.name in
  if not (StrSet.mem name ctx.missing) then begin
    ctx.missing <- StrSet.add name ctx.missing;
    note_reason ctx Err.Shard_unavailable
  end

let reason_rank = function
  | Err.Shard_unavailable -> 0
  | Err.Deadline -> 1
  | Err.Fuel -> 2
  | Err.Memory -> 3
  | Err.Cancelled -> 4
  | Err.Limit -> 5

let final_verdict ctx =
  match
    List.sort (fun a b -> compare (reason_rank a) (reason_rank b)) ctx.reasons
  with
  | [] -> Err.Complete
  | r :: _ -> Err.Partial r

(* Milliseconds left of the request's deadline, at least [floor]. *)
let remaining_ms ctx ~floor =
  Option.map
    (fun d -> Float.max floor ((d -. Unix.gettimeofday ()) *. 1000.0))
    ctx.abs_deadline

(* Options forwarded with every atom dispatch. A shard only fetches edges
   for one selector (single-edge paths); the request's own strategy,
   limit, path mode and fuel / live-path budgets govern the engine run
   over the gathered subgraph, so only the deadline rides through. *)
let atom_options ctx =
  {
    ctx.options with
    Wire.strategy = None;
    limit = None;
    max_length = Some 1;
    simple = false;
    deadline_ms = remaining_ms ctx ~floor:1.0;
    fuel = None;
    max_paths = None;
    from_seq = None;
    epoch = None;
  }

let shard_verdict_of_result json =
  match
    Option.bind
      (Option.bind (Json.member "result" json) (Json.member "verdict"))
      Json.to_string_opt
  with
  | Some "complete" | None -> None
  | Some s ->
    let n = String.length s in
    let prefix = "partial:" in
    let pn = String.length prefix in
    if n > pn && String.sub s 0 pn = prefix then
      Err.reason_of_name (String.sub s pn (n - pn))
    else None

let edges_of_result json =
  match Option.bind (Json.member "result" json) (Json.member "paths") with
  | Some (Json.List paths) ->
    List.concat_map
      (fun p ->
        match Json.member "edges" p with
        | Some (Json.List [ e ]) -> (
          match
            ( Option.bind (Json.member "tail" e) Json.to_string_opt,
              Option.bind (Json.member "label" e) Json.to_string_opt,
              Option.bind (Json.member "head" e) Json.to_string_opt )
          with
          | Some a, Some b, Some c -> [ (a, b, c) ]
          | _ -> raise (Fatal (Wire.Internal, "malformed edge from shard")))
        | _ ->
          raise
            (Fatal
               ( Wire.Internal,
                 "unexpected non-single-edge path from a shard's selector \
                  dispatch" )))
      paths
  | _ -> raise (Fatal (Wire.Internal, "shard response carries no paths"))

(* A shard's parser rejects a whole atom when it does not know a name the
   atom spells. That rejection is an empty contribution only when the
   atom's every position is a wildcard or a single name: an edge carrying
   a name the shard does not know is not on that shard. A name set or a
   complement ([{r0,r2}], [!alpha]) also matches edges of names the shard
   does know, so rejecting it hides those edges. Partitions and compacted
   journals replicate both name universes, so this only arises on shards
   whose graph does not (a part written before label directives, a
   journal compacted before label records). *)
let rejection_is_empty = function
  | Parser.Pattern { src; lbl; dst } ->
    List.for_all
      (function Parser.Any | Parser.Only [ _ ] -> true | _ -> false)
      [ src; lbl; dst ]
  | Parser.Edges [ _ ] -> true
  | Parser.Edges _ -> false

(* --- Names the shards have accepted ---------------------------------------- *)

(* Every vertex and label name [atom] spells. *)
let atom_names = function
  | Parser.Pattern { src; lbl; dst } ->
    let at kind = function
      | Parser.Any -> []
      | Parser.Only ns | Parser.Except ns -> List.map kind (texts ns)
    in
    at (fun n -> Vertex_name n) src
    @ at (fun n -> Label_name n) lbl
    @ at (fun n -> Vertex_name n) dst
  | Parser.Edges triples ->
    List.concat_map
      (fun ((a : Parser.name), (l : Parser.name), (b : Parser.name)) ->
        [ Vertex_name a.text; Label_name l.text; Vertex_name b.text ])
      triples

(* Every name the query spells, each once, in the order [Parser.resolve]
   meets them: every [let] body, used or not, then the expression, each
   left to right. *)
let query_names (q : Parser.query) =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun tree ->
      List.concat_map
        (fun (t : Parser.tree) ->
          match t.Spanned.node with
          | Spanned.Sel atom -> atom_names atom
          | _ -> [])
        (Spanned.subterms tree))
    (q.Parser.lets @ [ q.Parser.body ])
  |> List.filter (fun n ->
         (not (Hashtbl.mem seen n))
         && (Hashtbl.replace seen n ();
             true))

let confirm ctx names =
  List.iter (fun n -> Hashtbl.replace ctx.confirmed n ()) names

(* The request's deadline, or one shard timeout from now. *)
let dispatch_deadline ctx =
  match ctx.abs_deadline with
  | Some d -> d
  | None -> Unix.gettimeofday () +. (ctx.rt.config.shard_timeout_ms /. 1000.0)

(* Scatter one atom's dispatch (its rendering [text]) and add the edges it
   fetches to the scratch graph; the (tail, head) names of those edges. *)
let scatter_atom ctx atom text targets =
  let mk_req _ =
    {
      Wire.id = fresh_id ctx.rt;
      verb = Wire.Query;
      query = Some text;
      options = atom_options ctx;
    }
  in
  let abs_deadline = dispatch_deadline ctx in
  let edges = ref [] in
  let qerrs = ref [] in
  let answered = ref 0 in
  List.iter
    (fun (idx, outcome) ->
      match outcome with
      | D_ok json ->
        incr answered;
        (match shard_verdict_of_result json with
        | Some r -> note_reason ctx r
        | None -> ());
        edges := List.rev_append (edges_of_result json) !edges
      | D_wire (code, _) when code = Wire.error_code_name Wire.Query_error ->
        qerrs := idx :: !qerrs
      | D_wire (code, msg) ->
        raise
          (Fatal
             ( (if code = Wire.error_code_name Wire.Infeasible then
                  Wire.Infeasible
                else Wire.Internal),
               Printf.sprintf "shard %s: %s"
                 (Shardmap.shard ctx.rt.config.map idx).Shardmap.name msg ))
      | D_unavailable -> note_missing ctx idx)
    (scatter ctx.rt targets mk_req ~abs_deadline);
  (* A shard that rejects the atom does not know one of its names. The
     names stay unconfirmed, so [first_unknown] asks every shard about
     them and a typo fails the request with the single server's error.
     If the names are known elsewhere, the rejecting shards' share of the
     atom's edges is missing unless the rejection is empty: the answer
     stays a sound subset, flagged. *)
  if !answered > 0 then confirm ctx (atom_names atom);
  if not (rejection_is_empty atom) then
    List.iter (fun idx -> note_missing ctx idx) !qerrs;
  m_incr ~by:(List.length !edges) ctx.rt "router.edges_gathered";
  List.map
    (fun (a, b, c) ->
      ignore (Digraph.add ctx.scratch a b c);
      (a, c))
    !edges

(* Fetch every edge matching [atom] that leaves [frontier] ([None]:
   anywhere) into the scratch graph; the heads of those edges. *)
let fetch_atom ctx frontier atom =
  match
    narrow_atom ctx.rt.config.map ~frontier_cap:ctx.rt.config.frontier_cap
      frontier atom
  with
  | None -> Some StrSet.empty
  | Some (narrowed, targets) ->
    let text =
      match Unparse.atom narrowed with
      | Some s -> s
      | None -> (
        (* Data-derived names defeated quoting; fall back to the original
           un-narrowed atom (parsed from user text, always renderable). *)
        match Unparse.atom atom with
        | Some s -> s
        | None -> raise (Fatal (Wire.Internal, "unrenderable selector atom")))
    in
    let key = text ^ "@" ^ String.concat "," (List.map string_of_int targets) in
    let edges =
      match Hashtbl.find_opt ctx.atom_cache key with
      | Some edges -> edges
      | None ->
        let edges = scatter_atom ctx narrowed text targets in
        Hashtbl.replace ctx.atom_cache key edges;
        edges
    in
    let leaves tail =
      match frontier with None -> true | Some f -> StrSet.mem tail f
    in
    Some
      (List.fold_left
         (fun acc (tail, head) ->
           if leaves tail then StrSet.add head acc else acc)
         StrSet.empty edges)

(* A lower bound on the length of every path [e] denotes. *)
let rec min_len (e : Parser.tree) =
  match e.Spanned.node with
  | Spanned.Empty | Spanned.Epsilon | Spanned.Star _ -> 0
  | Spanned.Sel _ -> 1
  | Spanned.Union (a, b) -> min (min_len a) (min_len b)
  | Spanned.Join (a, b) | Spanned.Product (a, b) -> min_len a + min_len b

(* Fetch into the scratch graph every edge of every path of [e] that
   starts in [frontier] ([None]: anywhere) and has at most [left] edges;
   the vertices those paths can end at. This is the automaton × graph
   product walked one frontier at a time: a star costs the frontier it
   reaches, not its whole label. Every scratch edge is a real edge, so
   stopping early (deadline, missing shard) leaves a sound subset. *)
let rec gather ctx frontier left (e : Parser.tree) =
  match ctx.abs_deadline with
  | Some d when Unix.gettimeofday () > d ->
    note_reason ctx Err.Deadline;
    Some StrSet.empty
  | _ -> (
    match e.Spanned.node with
    | Spanned.Empty -> Some StrSet.empty
    | Spanned.Epsilon -> frontier
    | Spanned.Sel atom ->
      if left < 1 then Some StrSet.empty else fetch_atom ctx frontier atom
    | Spanned.Union (a, b) -> (
      let heads_a = gather ctx frontier left a in
      match (heads_a, gather ctx frontier left b) with
      | Some x, Some y -> Some (StrSet.union x y)
      | _ -> None)
    | Spanned.Join (a, b) ->
      gather ctx (gather ctx frontier left a) (left - min_len a) b
    | Spanned.Product (a, b) -> (
      match gather ctx frontier left a with
      | Some s when StrSet.is_empty s -> Some StrSet.empty
      | _ -> gather ctx None (left - min_len a) b)
    | Spanned.Star a -> (
      match frontier with
      | None ->
        (* Every piece may start anywhere: one unconstrained pass covers
           them all. *)
        ignore (gather ctx None left a);
        None
      | Some start ->
        (* Each non-ε piece spends at least [step] edges; a vertex is
           expanded once, at the level it is first reached, with the
           largest budget any later visit could have. *)
        let step = max 1 (min_len a) in
        let rec level reached fresh left =
          if StrSet.is_empty fresh || left < 1 then Some reached
          else
            match gather ctx (Some fresh) left a with
            | None ->
              ignore (gather ctx None (left - step) a);
              None
            | Some heads ->
              let fresh = StrSet.diff heads reached in
              level (StrSet.union reached fresh) fresh (left - step)
        in
        level start start left))

(* A name the gather never sent was never checked by a shard's parser:
   its atom narrowed to an empty frontier, lay past the length budget, or
   sits in an unused macro. [first_unknown] returns the first such name,
   in resolve order, that no shard knows: the one a single server reports.
   Each round sends every shard one [lint] of the union of its open names,
   one atom per name. A shard that accepts the union knows every name in
   it. One that rejects it names, by the error's offset, the first name it
   does not know, and it knows the names before that one; the next round
   resumes it after the rejected name. So the check costs one round, plus
   one per name some shard rejects, and stops at the first name every
   shard rejected. A shard that cannot answer is counted missing, and no
   name is then unknown to all. The rounds share one deadline; once it
   has passed nothing more is sent. A query whose names the gather
   confirmed sends nothing. *)
let first_unknown ctx query =
  let atom_of n =
    let only text = Parser.Only [ { Parser.text; pos = 0 } ] in
    match n with
    | Vertex_name v -> Parser.Pattern { src = only v; lbl = Any; dst = Any }
    | Label_name l -> Parser.Pattern { src = Any; lbl = only l; dst = Any }
  in
  let names =
    query_names query
    |> List.filter (fun n -> not (Hashtbl.mem ctx.confirmed n))
    |> List.filter_map (fun n ->
           Option.map (fun text -> (n, text)) (Unparse.atom (atom_of n)))
    |> Array.of_list
  in
  let k = Array.length names in
  let shards = all_shards ctx.rt.config.map in
  let n_shards = List.length shards in
  let next = Array.make n_shards 0 in  (* a shard's first undecided name *)
  let rejections = Array.make k 0 in
  let abs_deadline = dispatch_deadline ctx in
  (* Shard [s]'s union: its text and each atom's (start offset, name). *)
  let union s =
    let buf = Buffer.create 64 in
    let starts =
      List.filter_map
        (fun i ->
          let n, text = names.(i) in
          if i < next.(s) || Hashtbl.mem ctx.confirmed n then None
          else begin
            if Buffer.length buf > 0 then Buffer.add_string buf " | ";
            let start = Buffer.length buf in
            Buffer.add_string buf text;
            Some (start, i)
          end)
        (List.init k Fun.id)
    in
    (Buffer.contents buf, starts)
  in
  let answer s (text, starts) outcome =
    let gone () =
      note_missing ctx s;
      next.(s) <- k
    in
    match outcome with
    | D_ok _ ->
      confirm ctx (List.map (fun (_, i) -> fst names.(i)) starts);
      next.(s) <- k
    | D_wire (code, msg) when code = Wire.error_code_name Wire.Query_error -> (
      (* The rejected atom is the last one starting at or before the
         error's offset; the atoms before it resolved. *)
      match Parser.error_offset msg with
      | Some o when o < String.length text -> (
        match List.rev (List.filter (fun (start, _) -> start <= o) starts) with
        | (_, i) :: resolved ->
          confirm ctx (List.map (fun (_, j) -> fst names.(j)) resolved);
          rejections.(i) <- rejections.(i) + 1;
          next.(s) <- i + 1
        | [] -> gone ())
      | _ -> gone ())
    | D_wire _ | D_unavailable -> gone ()
  in
  let rec round () =
    let rec all_rejected i =
      if i = k then None
      else if rejections.(i) = n_shards then Some (fst names.(i))
      else all_rejected (i + 1)
    in
    match all_rejected 0 with
    | Some n -> Some n
    | None -> (
      let work =
        List.filter_map
          (fun s ->
            match union s with _, [] -> None | u -> Some (s, u))
          shards
      in
      match work with
      | [] -> None
      | _ when Unix.gettimeofday () > abs_deadline ->
        (match ctx.abs_deadline with
        | Some _ -> note_reason ctx Err.Deadline
        | None -> List.iter (fun (s, _) -> note_missing ctx s) work);
        None
      | _ ->
        let mk_req s =
          {
            Wire.id = fresh_id ctx.rt;
            verb = Wire.Lint;
            query = Some (fst (List.assoc s work));
            options = Wire.default_options;
          }
        in
        List.iter
          (fun (s, outcome) -> answer s (List.assoc s work) outcome)
          (scatter ctx.rt (List.map fst work) mk_req ~abs_deadline);
        round ())
  in
  round ()

(* Every name the query spells but [unknown], interned into the scratch
   graph so that resolving accepts names no fetched edge brought in and
   rejects [unknown], as a single server would. *)
let intern_names g ~unknown query =
  List.iter
    (fun n ->
      if Some n <> unknown then
        match n with
        | Vertex_name v -> ignore (Digraph.vertex g v)
        | Label_name l -> ignore (Digraph.label g l))
    (query_names query)

(* --- Verb handling ------------------------------------------------------- *)

let esc = Render.escape_string

let missing_json ctx =
  match StrSet.elements ctx.missing with
  | [] -> None
  | names -> Some ("[" ^ String.concat "," (List.map esc names) ^ "]")

(* Gather, then run the engine's own plan over the gathered subgraph,
   under the request's options and what is left of its deadline. The
   engine's verdict joins the gather's reasons. *)
let evaluate ctx verb query =
  let o = ctx.options in
  let max_length = Option.get o.Wire.max_length in
  ignore (gather ctx None max_length query.Parser.body);
  intern_names ctx.scratch ~unknown:(first_unknown ctx query) query;
  Digraph.freeze ctx.scratch;
  let plan =
    match Parser.resolve ctx.scratch query with
    | Ok spanned ->
      Optimizer.plan ~simple:o.Wire.simple ~max_length ctx.scratch
        (Spanned.strip spanned)
    | Error e ->
      raise (Fatal (Wire.Query_error, Format.asprintf "%a" Parser.pp_error e))
  in
  let budget =
    Wire.budget_of_options
      { o with Wire.deadline_ms = remaining_ms ctx ~floor:0.0 }
  in
  let strategy = o.Wire.strategy and limit = o.Wire.limit in
  let answer, verdict =
    match verb with
    | Wire.Count -> (
      match Engine.count_plan ?strategy ?limit ~budget ctx.scratch plan with
      | n, verdict -> (`Count n, verdict)
      | exception Mrpa_automata.Counting.Overflow ->
        raise (Fatal (Wire.Query_error, Engine.overflow_error)))
    | _ ->
      let r = Engine.query_plan ?strategy ?limit ~budget ctx.scratch plan in
      (`Paths r, r.Engine.verdict)
  in
  (match verdict with Err.Partial r -> note_reason ctx r | Err.Complete -> ());
  answer

let handle_query t (req : Wire.request) (o : Wire.options) =
  let started = Unix.gettimeofday () in
  let query_text = Option.value ~default:"" req.Wire.query in
  match Parser.syntax query_text with
  | Error e ->
    Wire.error ~id:req.Wire.id ~code:Wire.Query_error
      (Format.asprintf "%a" Parser.pp_error e)
  | Ok query -> (
    let ctx =
      {
        rt = t;
        scratch = Digraph.create ();
        options = o;
        abs_deadline =
          Option.map (fun ms -> started +. (ms /. 1000.0)) o.Wire.deadline_ms;
        reasons = [];
        missing = StrSet.empty;
        atom_cache = Hashtbl.create 8;
        confirmed = Hashtbl.create 8;
      }
    in
    match evaluate ctx req.Wire.verb query with
    | exception Fatal (code, msg) ->
      Wire.error ~id:req.Wire.id ~code msg
    | answer -> (
      let verdict = final_verdict ctx in
      if verdict <> Err.Complete then m_incr t "router.partial";
      if not (StrSet.is_empty ctx.missing) then m_incr t "router.degraded";
      let missing = missing_json ctx in
      match answer with
      | `Count n ->
        m_incr t "router.counts";
        Wire.ok ~id:req.Wire.id
          ([
             ("count", string_of_int n);
             ("verdict", esc (Err.verdict_name verdict));
           ]
          @ match missing with None -> [] | Some j -> [ ("missing_shards", j) ])
      | `Paths r ->
        m_incr t "router.queries";
        (* [elapsed_ms] covers the whole routed request, gathering
           included, not only the engine run over the gathered subgraph. *)
        let stats =
          { r.Engine.stats with elapsed_s = Unix.gettimeofday () -. started }
        in
        Wire.ok_with ~id:req.Wire.id (fun b ->
            Outbuf.add_string b {|"result":|};
            Render.add_result b ctx.scratch { r with Engine.verdict; stats };
            (* The missing shards go in before the result's closing
               brace. *)
            Option.iter
              (fun j ->
                Outbuf.truncate b (Outbuf.length b - 1);
                Outbuf.add_string b {|,"missing_shards":|};
                Outbuf.add_string b j;
                Outbuf.add_char b '}')
              missing)))

(* Gather a per-shard payload member ("stats" / "health") from every
   shard; unreachable shards render as null. *)
let gather_member t ~verb ~member ~abs_deadline =
  let mk_req _ =
    { Wire.id = fresh_id t; verb; query = None; options = Wire.default_options }
  in
  let outcomes = scatter t (all_shards t.config.map) mk_req ~abs_deadline in
  List.map
    (fun (idx, outcome) ->
      let name = (Shardmap.shard t.config.map idx).Shardmap.name in
      let value =
        match outcome with
        | D_ok json -> (
          match Json.member member json with
          | Some j -> Json.to_string j
          | None -> "null")
        | D_wire _ | D_unavailable -> "null"
      in
      (idx, name, value))
    outcomes

let handle_stats t (req : Wire.request) =
  let abs_deadline =
    Unix.gettimeofday () +. (t.config.shard_timeout_ms /. 1000.0)
  in
  let shards = gather_member t ~verb:Wire.Stats ~member:"stats" ~abs_deadline in
  let json =
    with_lock t.lock (fun () ->
        Metrics.set t.metrics "router.shards" (Shardmap.n_shards t.config.map);
        Metrics.set t.metrics "router.uptime_ms"
          (int_of_float
             (Metrics.ns_to_ms (Metrics.elapsed_ns ~since:t.started_ns)));
        Metrics.to_json t.metrics)
  in
  Wire.ok ~id:req.Wire.id
    [
      ("stats", json);
      ( "shards",
        Render.obj (List.map (fun (_, name, v) -> (name, v)) shards) );
    ]

let handle_health t (req : Wire.request) =
  let abs_deadline =
    Unix.gettimeofday () +. (t.config.probe_timeout_ms /. 1000.0)
  in
  let shards =
    gather_member t ~verb:Wire.Health ~member:"health" ~abs_deadline
  in
  let shard_objs =
    List.map
      (fun (idx, name, health) ->
        let state, failures, dispatches =
          with_lock t.lock (fun () ->
              let b = t.breakers.(idx) in
              (breaker_name t b, b.failures, b.dispatches))
        in
        Render.obj
          [
            ("name", esc name);
            ("breaker", esc state);
            ("failures", string_of_int failures);
            ("dispatches", string_of_int dispatches);
            ("reachable", if health = "null" then "false" else "true");
            ("health", health);
          ])
      shards
  in
  Wire.ok ~id:req.Wire.id
    [
      ( "health",
        Render.obj
          [
            ("role", esc "router");
            ("shards", "[" ^ String.concat "," shard_objs ^ "]");
          ] );
    ]

(* Lint has no shard-placement question — any shard's static analyzer can
   answer over its own name tables, and the first reachable one does. *)
let handle_lint t (req : Wire.request) =
  let abs_deadline =
    Unix.gettimeofday () +. (t.config.shard_timeout_ms /. 1000.0)
  in
  let rec go = function
    | [] ->
      Wire.error ~id:req.Wire.id ~code:Wire.Internal
        "no shard reachable to answer lint"
    | idx :: rest -> (
      let forwarded =
        { req with Wire.id = fresh_id t; options = req.Wire.options }
      in
      match dispatch t idx forwarded ~abs_deadline with
      | D_ok json ->
        (* Relay the shard's payload under the caller's id. *)
        let json =
          match json with
          | Json.Obj fields ->
            Json.Obj
              (List.map
                 (fun (k, v) -> if k = "id" then (k, req.Wire.id) else (k, v))
                 fields)
          | _ -> json
        in
        fun b -> Outbuf.add_string b (Json.to_string json)
      | D_wire (code, msg) ->
        let code =
          if code = Wire.error_code_name Wire.Query_error then Wire.Query_error
          else Wire.Internal
        in
        Wire.error ~id:req.Wire.id ~code msg
      | D_unavailable -> go rest)
  in
  go (all_shards t.config.map)

let respond ~remote t line =
  match Wire.decode_request line with
  | Error msg -> Wire.error ~id:Json.Null ~code:Wire.Bad_request msg
  | Ok req -> (
    m_incr t "router.requests";
    let o = Wire.clamp_request t.config.limits req in
    match req.Wire.verb with
    | Wire.Ping -> Wire.ok ~id:req.Wire.id [ ("pong", "true") ]
    | Wire.Query | Wire.Count -> handle_query t req o
    | Wire.Stats -> handle_stats t req
    | Wire.Health -> handle_health t req
    | Wire.Lint -> handle_lint t req
    | Wire.Shutdown ->
      if not (Listener.shutdown_allowed t.config.front ~remote) then
        Wire.error ~id:req.Wire.id ~code:Wire.Unauthorized
          "shutdown over TCP requires --allow-remote-shutdown"
      else begin
        stop t;
        Wire.ok ~id:req.Wire.id [ ("stopping", "true") ]
      end
    | Wire.Sub | Wire.Views _ ->
      Wire.error ~id:req.Wire.id ~code:Wire.Bad_request
        (Printf.sprintf
           "verb %S is not supported by the router; address a shard directly"
           (Wire.verb_name req.Wire.verb)))

let handle_line ?(remote = false) t line =
  Outbuf.to_string ~size:1024 (respond ~remote t line)

(* --- Listening ----------------------------------------------------------- *)

(* A router session answers every line itself, so its thread owns the one
   writer the session's responses are rendered into. *)
let serve t =
  Fun.protect
    ~finally:(fun () ->
      (* Drained: the idle connections of sessions that have ended. *)
      List.iter close_conn (with_lock t.lock (fun () -> take_idle t)))
    (fun () ->
      Listener.serve t.listener
        ~on_farewell:(fun f ->
          m_incr t ("router." ^ Listener.farewell_counter f))
        (fun ~remote fd ->
          m_incr t "router.connections";
          let out = Listener.writer () in
          let send = Listener.send out fd in
          {
            Listener.handle =
              (fun line ->
                send (respond ~remote t line);
                if Listener.stopping t.listener then `Close else `Continue);
            send;
            close = ignore;
          }))
