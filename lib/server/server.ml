open Mrpa_graph
open Mrpa_engine

type role =
  | Standalone
  | Primary of { journal : string }
  | Replica of { follow : Wire.endpoint }

type config = {
  front : Listener.config;
  workers : int;
  queue_capacity : int;
  limits : Wire.limits;
  max_predicted_cost : int option;
  role : role;
}

(* One subscriber = one session thread draining this queue onto its
   connection. The tailer pushes under [lock]; [dead] is the tailer (or an
   epoch change) telling the streamer to hang up. *)
type subscriber = {
  sub_queue : string Queue.t;
  sub_lock : Mutex.t;
  mutable sub_dead : bool;
}

type primary_state = {
  source : Replication.Source.t;
  (* Guards [source] (tailer vs health/sub readers) and the subscriber
     registry. *)
  prim_lock : Mutex.t;
  subs : (int, subscriber) Hashtbl.t;
  mutable next_sub : int;
}

type replica_state = {
  follow : Wire.endpoint;
  appl : Replication.Apply.t;
  (* Guards [appl] (follower thread vs session reads). *)
  rep_lock : Mutex.t;
  mutable rep_epoch : int;
  mutable rep_connected : bool;
  mutable rep_last_contact : int64;  (* 0L = never *)
  mutable rep_resyncs : int;
}

type repl =
  | No_replication
  | Primary_repl of primary_state
  | Replica_repl of replica_state

type t = {
  config : config;
  (* The snapshot all sessions/workers read, with its caches and the
     journal sequence number it includes. Standalone servers set it once;
     primary/replica role threads publish a fresh frozen copy of their
     live graph as the journal stream advances. Always read it exactly
     once per request. *)
  snapshot : Snapshot.t Atomic.t;
  (* The materialized-view registry. Word views observe the live graph's
     edges; expression views are re-projected from the serving snapshot
     on demand. *)
  views : Views.t;
  repl : repl;
  pool : Pool.t;
  listener : Listener.t;
  (* In-flight budget registry: shutdown cancels every member so running
     queries abort at their next checkpoint instead of pinning workers. *)
  inflight : (int, Budget.t) Hashtbl.t;
  inflight_lock : Mutex.t;
  mutable next_request : int;
  (* Server-wide metrics. The collector is single-threaded by contract, so
     every touch goes through [metrics_lock]. *)
  metrics : Metrics.t;
  metrics_lock : Mutex.t;
  started_ns : int64;
}

let create ?snapshot config =
  let snapshot, live, repl =
    match config.role with
    | Standalone -> (
      match snapshot with
      | Some s -> (s, None, No_replication)
      | None -> invalid_arg "Server.create: a standalone server needs a snapshot")
    | Primary { journal } ->
      let source = Replication.Source.create journal in
      (* Initial catch-up so a restarted primary serves its data from the
         first request, not from the first poll. *)
      ignore (Replication.Source.poll source);
      let g = Replication.Source.graph source in
      ( Snapshot.of_graph ~seq:(Replication.Source.last_seq source) g,
        Some g,
        Primary_repl
          {
            source;
            prim_lock = Mutex.create ();
            subs = Hashtbl.create 8;
            next_sub = 0;
          } )
    | Replica { follow } ->
      let appl = Replication.Apply.create () in
      let g = Replication.Apply.graph appl in
      ( Snapshot.of_graph g,
        Some g,
        Replica_repl
          {
            follow;
            appl;
            rep_lock = Mutex.create ();
            rep_epoch = -1;
            rep_connected = false;
            rep_last_contact = 0L;
            rep_resyncs = 0;
          } )
  in
  let views = Views.create () in
  (* Primary/replica: observe the live graph so word views fold in every
     journal-applied write. Standalone: no live source — views are built
     from (and stay consistent with) the immutable snapshot. *)
  Option.iter (Views.attach views) live;
  {
    config;
    snapshot = Atomic.make snapshot;
    views;
    repl;
    pool =
      Pool.create ~workers:config.workers
        ~queue_capacity:config.queue_capacity;
    listener = Listener.create config.front;
    inflight = Hashtbl.create 32;
    inflight_lock = Mutex.create ();
    next_request = 0;
    metrics = Metrics.create ();
    metrics_lock = Mutex.create ();
    started_ns = Metrics.now_ns ();
  }

let snapshot t = Atomic.get t.snapshot

let stop t = Listener.stop t.listener
let stopping t = Listener.stopping t.listener
let bound_endpoint t = Listener.bound_endpoint t.listener
let connections_served t = Listener.connections t.listener

(* --- Locked helpers ---------------------------------------------------- *)

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let m_incr t name = with_lock t.metrics_lock (fun () -> Metrics.incr t.metrics name)

let register_budget t budget =
  with_lock t.inflight_lock (fun () ->
      let id = t.next_request in
      t.next_request <- id + 1;
      Hashtbl.replace t.inflight id budget;
      id)

let unregister_budget t id =
  with_lock t.inflight_lock (fun () -> Hashtbl.remove t.inflight id)

let cancel_inflight t =
  with_lock t.inflight_lock (fun () ->
      Hashtbl.iter (fun _ b -> Budget.cancel b) t.inflight)

(* --- Connection state ---------------------------------------------------- *)

(* Per-connection state shared between the session thread and the worker
   jobs it dispatched. With pipelining, several workers may finish for the
   same connection at once: [write_lock] makes each response line atomic on
   the socket, and [pending]/[drained] let the session wait for its last
   worker before closing the fd — a worker must never write into a file
   descriptor that has been closed (and possibly reused) under it. *)
type session_state = {
  fd : Unix.file_descr;
  remote : bool;  (* arrived over TCP *)
  write_lock : Mutex.t;
  mutable pending : int;
  pending_lock : Mutex.t;
  drained : Condition.t;
}

let session_state ~remote fd =
  {
    fd;
    remote;
    write_lock = Mutex.create ();
    pending = 0;
    pending_lock = Mutex.create ();
    drained = Condition.create ();
  }

(* Best-effort: a client that already vanished must not crash the worker
   or the session delivering its response. *)
let send ss response =
  with_lock ss.write_lock (fun () ->
      Listener.send_line ss.fd response)

let job_started ss =
  with_lock ss.pending_lock (fun () -> ss.pending <- ss.pending + 1)

let job_finished ss =
  with_lock ss.pending_lock (fun () ->
      ss.pending <- ss.pending - 1;
      if ss.pending = 0 then Condition.broadcast ss.drained)

let await_drain ss =
  with_lock ss.pending_lock (fun () ->
      while ss.pending > 0 do
        Condition.wait ss.drained ss.pending_lock
      done)

(* --- Request execution -------------------------------------------------- *)

let esc = Metrics.escape_string

(* Publish a fresh frozen snapshot of the live graph [g] at journal
   sequence [seq]. Role-thread only (the sole mutator of the live graph,
   so copying it here is race-free); sessions still holding the old
   snapshot keep using it, caches and all, consistently. *)
let refresh_snapshot t g ~seq =
  Atomic.set t.snapshot (Snapshot.of_graph ~seq g)

(* Execute a compiled plan for query/count. A Complete payload is an
   answer over [snap]'s immutable graph, so it goes into [snap]'s result
   cache. *)
let eval_compiled t snap (req : Wire.request) (o : Wire.options) rkey
    (c : Snapshot.compiled) budget =
  let g = Snapshot.graph snap in
  let note_verdict verdict =
    match verdict with
    | Err.Complete -> ()
    | Err.Partial _ -> m_incr t "server.partial"
  in
  match req.Wire.verb with
  | Wire.Query ->
    let r =
      Engine.query_plan ?strategy:o.Wire.strategy ?limit:o.Wire.limit ~budget
        g c.Snapshot.plan
    in
    m_incr t "server.queries";
    note_verdict r.Engine.verdict;
    let payload = [ ("result", Render.result_json g r) ] in
    if r.Engine.verdict = Err.Complete then
      Snapshot.cache_result snap rkey payload;
    Wire.response_ok ~id:req.Wire.id payload
  | Wire.Count -> (
    match
      Engine.count_plan ?strategy:o.Wire.strategy ?limit:o.Wire.limit ~budget
        g c.Snapshot.plan
    with
    | exception Mrpa_automata.Counting.Overflow ->
      m_incr t "server.query_errors";
      Wire.response_error ~id:req.Wire.id ~code:Wire.Query_error
        Engine.overflow_error
    | n, verdict ->
      m_incr t "server.counts";
      note_verdict verdict;
      let payload =
        [
          ("count", string_of_int n); ("verdict", esc (Err.verdict_name verdict));
        ]
      in
      if verdict = Err.Complete then
        Snapshot.cache_result snap rkey payload;
      Wire.response_ok ~id:req.Wire.id payload)
  | Wire.Lint | Wire.Stats | Wire.Ping | Wire.Shutdown | Wire.Health
  | Wire.Sub | Wire.Views _ ->
    assert false (* handled inline *)

(* The lint verb never evaluates anything, so it is answered inline by the
   session thread like [stats] — a pre-flight check must not be able to
   queue behind the evaluations it is meant to avert. It reads the same
   plan-cache entry the evaluation path will use. *)
let lint_response t (req : Wire.request) =
  let snap = snapshot t in
  let g = Snapshot.graph snap in
  let query_text = Option.get req.Wire.query in
  let o = Wire.clamp t.config.limits req.Wire.options in
  let max_length = Option.get o.Wire.max_length in
  match Snapshot.compile snap ~max_length ~simple:o.Wire.simple query_text with
  | Error msg ->
    m_incr t "server.query_errors";
    Wire.response_error ~id:req.Wire.id ~code:Wire.Query_error msg
  | Ok c ->
    m_incr t "server.lints";
    let cost = c.Snapshot.cost in
    let diags =
      Mrpa_lint.Lint.analyze
        ~signature:(Snapshot.signature snap)
        ~cost ~max_length ?fuel:o.Wire.fuel ?deadline_ms:o.Wire.deadline_ms g
        c.Snapshot.spanned
    in
    let bound_json = function
      | Mrpa_lint.Interval.Fin n -> string_of_int n
      | Mrpa_lint.Interval.Inf -> esc "inf"
    in
    let finding d =
      let module D = Mrpa_lint.Diagnostic in
      Render.obj
        [
          ("code", esc d.D.code);
          ("severity", esc (D.severity_label d.D.severity));
          ("start", string_of_int d.D.span.Mrpa_core.Span.start);
          ("stop", string_of_int d.D.span.Mrpa_core.Span.stop);
          ("message", esc d.D.message);
        ]
    in
    let payload =
      Render.obj
        [
          ("findings", "[" ^ String.concat "," (List.map finding diags) ^ "]");
          ("max_length", string_of_int max_length);
          ("predicted_cost", bound_json cost.Mrpa_lint.Cost.predicted_cost);
          ("predicted_paths", bound_json cost.Mrpa_lint.Cost.predicted_paths);
        ]
    in
    Wire.response_ok ~id:req.Wire.id [ ("lint", payload) ]

(* Static admission control: with a [--max-predicted-cost] ceiling set, a
   query whose predicted cost exceeds the ceiling is refused with an
   [infeasible] error before a pool worker ever sees it. The analysis now
   comes straight off the plan-cache entry, so admission on a hot query is
   one LRU lookup, not a parse + abstract interpretation. *)
let admission_reject t (req : Wire.request) (c : Snapshot.compiled) =
  match t.config.max_predicted_cost with
  | None -> None
  | Some ceiling ->
    let predicted = c.Snapshot.cost.Mrpa_lint.Cost.predicted_cost in
    if Mrpa_lint.Interval.b_exceeds_int predicted ceiling then begin
      m_incr t "server.infeasible";
      Some
        (Wire.response_error ~id:req.Wire.id ~code:Wire.Infeasible
           (Printf.sprintf
              "predicted cost %s work units exceeds the server ceiling \
               %d; narrow the query or lower max_length"
              (Mrpa_lint.Interval.b_to_string predicted)
              ceiling))
    end
    else None

let stats_response t req =
  let snap = snapshot t in
  let g = Snapshot.graph snap in
  let plan_hits, plan_misses = Snapshot.plan_cache_stats snap in
  let res_hits, res_misses = Snapshot.result_cache_stats snap in
  (* Views totals take the registry lock — do it before metrics_lock so the
     two never nest. *)
  let n_views = Views.count t.views in
  let v_rebuilds, v_updates, v_reprojections = Views.totals t.views in
  let json =
    with_lock t.metrics_lock (fun () ->
        Metrics.set t.metrics "graph.vertices" (Digraph.n_vertices g);
        Metrics.set t.metrics "graph.edges" (Digraph.n_edges g);
        Metrics.set t.metrics "graph.labels" (Digraph.n_labels g);
        Metrics.set t.metrics "server.workers" t.config.workers;
        Metrics.set t.metrics "server.queue_capacity" t.config.queue_capacity;
        Metrics.set t.metrics "server.queued" (Pool.queued t.pool);
        Metrics.set t.metrics "server.running" (Pool.running t.pool);
        Metrics.set t.metrics "server.job_errors" (Pool.job_errors t.pool);
        Metrics.set t.metrics "server.worker_restarts" (Pool.restarts t.pool);
        Metrics.set t.metrics "server.parses" (Snapshot.parse_count snap);
        Metrics.set t.metrics "server.plan_cache_hits" plan_hits;
        Metrics.set t.metrics "server.plan_cache_misses" plan_misses;
        Metrics.set t.metrics "server.plan_cache_size"
          (Snapshot.plan_cache_length snap);
        Metrics.set t.metrics "server.result_cache_hits" res_hits;
        Metrics.set t.metrics "server.result_cache_misses" res_misses;
        Metrics.set t.metrics "server.result_cache_size"
          (Snapshot.result_cache_length snap);
        Metrics.set t.metrics "server.views" n_views;
        Metrics.set t.metrics "server.view_rebuilds" v_rebuilds;
        Metrics.set t.metrics "server.view_updates" v_updates;
        Metrics.set t.metrics "server.view_reprojections" v_reprojections;
        Metrics.set t.metrics "server.uptime_ms"
          (int_of_float
             (Metrics.ns_to_ms (Metrics.elapsed_ns ~since:t.started_ns)));
        Metrics.to_json t.metrics)
  in
  Wire.response_ok ~id:req.Wire.id [ ("stats", json) ]

(* Submit a governed job without waiting for it: the worker writes its own
   response through the session's write lock, which is what lets several
   tagged requests from one connection run concurrently. Refusals
   (draining, queue full) are answered inline. [run] produces the response
   line; its budget is registered in the in-flight table so shutdown can
   cancel it cooperatively. *)
let submit_governed t ss (req : Wire.request) budget run =
  let reg_id = register_budget t budget in
  let job () =
    Fun.protect
      ~finally:(fun () ->
        unregister_budget t reg_id;
        job_finished ss)
      (fun () ->
        let response =
          try run ()
          with e ->
            m_incr t "server.internal_errors";
            Wire.response_error ~id:req.Wire.id ~code:Wire.Internal
              (Printexc.to_string e)
        in
        send ss response)
  in
  if stopping t then begin
    unregister_budget t reg_id;
    send ss
      (Wire.response_error ~id:req.Wire.id ~code:Wire.Shutting_down
         "server is draining")
  end
  else begin
    (* Count the job before submitting so a worker that races ahead and
       finishes cannot drive [pending] negative. *)
    job_started ss;
    if not (Pool.submit t.pool job) then begin
      job_finished ss;
      unregister_budget t reg_id;
      m_incr t "server.overloaded";
      send ss
        (Wire.response_error ~id:req.Wire.id ~code:Wire.Overloaded
           "job queue is full; retry later")
    end
  end

let dispatch_async t snap ss (req : Wire.request) effective rkey
    (c : Snapshot.compiled) =
  let budget = Wire.budget_of_options effective in
  submit_governed t ss req budget (fun () ->
      eval_compiled t snap req effective rkey c budget)

(* --- Sessions ------------------------------------------------------------ *)

let shutdown_allowed t ss =
  Listener.shutdown_allowed t.config.front ~remote:ss.remote

(* --- Bounded-staleness gate ---------------------------------------------- *)

(* How long a session will wait for the snapshot to catch up before
   answering [stale]. Short by design: a replica that is actually behind
   should push the client to another endpoint, not hold its request
   hostage. *)
let stale_wait_ms = 500.0

(* The snapshot a gated read is answered from, or the [stale] message.
   [min_seq] is checked against {!Snapshot.seq} of the snapshot returned,
   not against the live graph: the promise is "the answer reflects seq >=
   S", and answers come from that snapshot. [max_staleness_ms] is a
   replica-only check — standalone and primary servers are the authority
   for their own data and are never stale; a primary trivially satisfies
   any [min_seq] its tailer has reached. *)
let serving_snapshot t (o : Wire.options) =
  if o.Wire.min_seq = None && o.Wire.max_staleness_ms = None then
    Ok (snapshot t)
  else begin
    let seq_ok snap =
      match (o.Wire.min_seq, t.repl) with
      | None, _ -> true
      | Some s, No_replication -> s = 0
      | Some s, (Primary_repl _ | Replica_repl _) -> Snapshot.seq snap >= s
    in
    let fresh_ok () =
      match (o.Wire.max_staleness_ms, t.repl) with
      | None, _ | Some _, (No_replication | Primary_repl _) -> true
      | Some ms, Replica_repl r ->
        r.rep_last_contact <> 0L
        && Metrics.ns_to_ms (Metrics.elapsed_ns ~since:r.rep_last_contact) <= ms
    in
    let deadline =
      Int64.add (Metrics.now_ns ()) (Int64.of_float (stale_wait_ms *. 1e6))
    in
    let rec wait () =
      let snap = snapshot t in
      if seq_ok snap && fresh_ok () then Ok snap
      else if
        stopping t
        || Int64.compare (Metrics.now_ns ()) deadline >= 0
      then begin
        m_incr t "server.stale";
        Error
          (if not (seq_ok snap) then
             Printf.sprintf
               "snapshot is at seq %d, behind the requested min_seq %d"
               (Snapshot.seq snap)
               (Option.value ~default:0 o.Wire.min_seq)
           else
             Printf.sprintf
               "no contact with the primary within the requested %.0f ms"
               (Option.value ~default:0.0 o.Wire.max_staleness_ms))
      end
      else begin
        Thread.delay 0.01;
        wait ()
      end
    in
    wait ()
  end

let handle_eval t ss (req : Wire.request) =
  let effective = Wire.clamp_request t.config.limits req in
  match serving_snapshot t effective with
  | Error msg ->
    send ss (Wire.response_error ~id:req.Wire.id ~code:Wire.Stale msg)
  | Ok snap -> (
    let query_text = Option.get req.Wire.query in
    let max_length = Option.get effective.Wire.max_length in
    let rkey =
      Snapshot.result_key
        ~verb:(Wire.verb_name req.Wire.verb)
        ~query:query_text ~max_length ~simple:effective.Wire.simple
        ~strategy:effective.Wire.strategy ~limit:effective.Wire.limit
    in
    (* Result cache first: a hit answers inline without parsing anything and
       without occupying a worker — the whole point of caching the hot set. *)
    match Snapshot.cached_result snap rkey with
    | Some payload ->
      m_incr t
        (match req.Wire.verb with
        | Wire.Query -> "server.queries"
        | _ -> "server.counts");
      send ss (Wire.response_ok ~id:req.Wire.id payload)
    | None -> (
      match
        Snapshot.compile snap ~max_length ~simple:effective.Wire.simple
          query_text
      with
      | Error msg ->
        m_incr t "server.query_errors";
        send ss (Wire.response_error ~id:req.Wire.id ~code:Wire.Query_error msg)
      | Ok compiled -> (
        match admission_reject t req compiled with
        | Some response -> send ss response
        | None -> dispatch_async t snap ss req effective rkey compiled)))

(* --- Materialized views --------------------------------------------------- *)

(* The lock under which the live graph may legally be read: every journal
   application happens beneath it ([Source.poll] on a primary,
   [Apply.apply_line]/[reset] on a replica), so a session thread holding
   it is a safe reader for a word-view build. Standalone servers have no
   live graph and no mutator, so no lock is needed. *)
let with_role_lock t f =
  match t.repl with
  | No_replication -> f ()
  | Primary_repl p -> with_lock p.prim_lock f
  | Replica_repl r -> with_lock r.rep_lock f

(* The graph a freshly registered word view materialises from: the live
   graph when there is one (read under the role lock), the frozen snapshot
   otherwise. *)
let register_graph t =
  match t.repl with
  | No_replication -> Snapshot.graph (snapshot t)
  | Primary_repl p -> Replication.Source.graph p.source
  | Replica_repl r -> Replication.Apply.graph r.appl

let view_info_json (i : Views.info) =
  Render.obj
    ([
       ("name", esc i.Views.i_name);
       ("kind", esc i.Views.i_kind);
       ("spec", esc i.Views.i_spec);
     ]
    @ (match i.Views.i_max_length with
      | Some m -> [ ("max_length", string_of_int m) ]
      | None -> [])
    @ [
        ("vertices", string_of_int i.Views.i_vertices);
        ("edges", string_of_int i.Views.i_edges);
        ("rebuilds", string_of_int i.Views.i_rebuilds);
        ("updates", string_of_int i.Views.i_updates);
        ("reprojections", string_of_int i.Views.i_reprojections);
        ("bound", if i.Views.i_bound then "true" else "false");
        ("dirty", if i.Views.i_dirty then "true" else "false");
        ("partial", if i.Views.i_partial then "true" else "false");
        ("as_of_seq", string_of_int i.Views.i_as_of_seq);
        ("staleness_ms", Printf.sprintf "%.1f" i.Views.i_staleness_ms);
      ])

let views_register t (req : Wire.request) (v : Wire.view_req) =
  let name = Option.get v.Wire.view_name in
  let registered kind =
    m_incr t "server.view_registers";
    Wire.response_ok ~id:req.Wire.id
      [ ("view", Render.obj [ ("registered", esc name); ("kind", esc kind) ]) ]
  in
  match (v.Wire.word, v.Wire.view_query) with
  | Some word, None -> (
    let result =
      with_role_lock t (fun () ->
          Views.register t.views ~name ~graph:(register_graph t)
            (Views.Word word))
    in
    match result with
    | Ok () -> registered "word"
    | Error msg -> Wire.response_error ~id:req.Wire.id ~code:Wire.Bad_request msg)
  | None, Some query -> (
    (* The expression is validated and cost-analysed against the serving
       snapshot exactly like a query: a parse failure is a query_error, a
       predicted cost above the server ceiling is infeasible — a hostile
       registration is refused before it can ever occupy a worker. *)
    let effective = Wire.clamp t.config.limits req.Wire.options in
    let snap = snapshot t in
    let max_length = Option.get effective.Wire.max_length in
    match Snapshot.compile snap ~max_length ~simple:false query with
    | Error msg ->
      m_incr t "server.query_errors";
      Wire.response_error ~id:req.Wire.id ~code:Wire.Query_error msg
    | Ok compiled -> (
      match admission_reject t req compiled with
      | Some response -> response
      | None -> (
        match
          Views.register t.views ~name ~graph:(Snapshot.graph snap)
            (Views.Expr { query; max_length })
        with
        | Ok () -> registered "expr"
        | Error msg ->
          Wire.response_error ~id:req.Wire.id ~code:Wire.Bad_request msg)))
  | _ ->
    (* decode_view enforces exactly one of word/query. *)
    Wire.response_error ~id:req.Wire.id ~code:Wire.Bad_request
      "view registration needs a \"word\" or a \"query\""

(* A worker-side view read from [snap], the snapshot the staleness gate
   passed. Its {!Snapshot.seq} is the freshness test for a cached
   projection and the [as_of_seq] reported back to the client. *)
let views_read t snap (req : Wire.request) (v : Wire.view_req)
    (effective : Wire.options) budget =
  let name = Option.get v.Wire.view_name in
  let seq0 = Snapshot.seq snap in
  let g = Snapshot.graph snap in
  let reproject ~query ~max_length =
    match Snapshot.compile snap ~max_length ~simple:false query with
    | Error msg -> Error msg
    | Ok compiled ->
      let sg =
        Mrpa_analysis.Projection.path_derived_expr
          ~guard:(Budget.guard budget) g
          (Mrpa_core.Spanned.strip compiled.Snapshot.spanned)
          ~max_length
      in
      Ok (sg, Budget.tripped budget <> None, seq0)
  in
  (* Word views can be ahead of the serving snapshot (they are synchronous
     with the live stream); vertices interned since the last refresh get a
     positional placeholder until the next snapshot lands. *)
  let vertex_name i =
    if i < Digraph.n_vertices g then Digraph.vertex_name g (Vertex.of_int i)
    else Printf.sprintf "#%d" i
  in
  let unknown () =
    m_incr t "server.view_unknown";
    Wire.response_error ~id:req.Wire.id ~code:Wire.Unknown_view
      (Printf.sprintf "no view named %S" name)
  in
  let failed msg =
    m_incr t "server.query_errors";
    Wire.response_error ~id:req.Wire.id ~code:Wire.Query_error
      (Printf.sprintf "view %S re-projection failed: %s" name msg)
  in
  let truncate l =
    match effective.Wire.limit with
    | Some k ->
      List.filteri (fun i _ -> i < k) l
    | None -> l
  in
  let base partial =
    [
      ("name", esc name);
      ("as_of_seq", string_of_int seq0);
      ("partial", if partial then "true" else "false");
    ]
  in
  match v.Wire.action with
  | Wire.V_edges -> (
    m_incr t "server.view_reads";
    match Views.simple_graph t.views ~name ~snap_seq:seq0 ~reproject with
    | Error Views.Unknown_view -> unknown ()
    | Error (Views.Projection_failed msg) -> failed msg
    | Ok (sg, partial) ->
      let pairs =
        truncate (Mrpa_analysis.Simple_graph.edges sg)
        |> List.map (fun (i, j) ->
               Printf.sprintf "[%s,%s]" (esc (vertex_name i))
                 (esc (vertex_name j)))
      in
      Wire.response_ok ~id:req.Wire.id
        [
          ( "view",
            Render.obj
              (base partial
              @ [
                  ( "vertices",
                    string_of_int (Mrpa_analysis.Simple_graph.n_vertices sg) );
                  ("edges", string_of_int (Mrpa_analysis.Simple_graph.n_edges sg));
                  ("pairs", "[" ^ String.concat "," pairs ^ "]");
                ]) );
        ])
  | Wire.V_counts -> (
    m_incr t "server.view_reads";
    match Views.counts t.views ~name ~snap_seq:seq0 ~reproject with
    | Error Views.Unknown_view -> unknown ()
    | Error (Views.Projection_failed msg) -> failed msg
    | Ok (pairs, partial) ->
      let rendered =
        truncate pairs
        |> List.map (fun (i, j, c) ->
               Printf.sprintf "[%s,%s,%d]" (esc (vertex_name i))
                 (esc (vertex_name j)) (int_of_float c))
      in
      Wire.response_ok ~id:req.Wire.id
        [
          ( "view",
            Render.obj
              (base partial
              @ [
                  ("pairs", "[" ^ String.concat "," rendered ^ "]");
                ]) );
        ])
  | Wire.V_analytics -> (
    m_incr t "server.view_analytics";
    match Views.simple_graph t.views ~name ~snap_seq:seq0 ~reproject with
    | Error Views.Unknown_view -> unknown ()
    | Error (Views.Projection_failed msg) -> failed msg
    | Ok (sg, partial) ->
      let module C = Mrpa_analysis.Centrality in
      let module SG = Mrpa_analysis.Simple_graph in
      let measure = Option.value ~default:"degree" v.Wire.measure in
      let top = Option.value ~default:10 v.Wire.top in
      let ranking scores =
        let ranked = C.top_k top scores in
        "["
        ^ String.concat ","
            (List.map
               (fun (i, s) ->
                 Render.obj
                   [
                     ("vertex", esc (vertex_name i));
                     ("score", Printf.sprintf "%.6g" s);
                   ])
               ranked)
        ^ "]"
      in
      let graph_fields =
        [
          ("vertices", string_of_int (SG.n_vertices sg));
          ("edges", string_of_int (SG.n_edges sg));
        ]
      in
      let payload =
        match measure with
        | "degree" -> Ok [ ("top", ranking (C.out_degree sg)) ]
        | "pagerank" -> Ok [ ("top", ranking (C.pagerank sg)) ]
        | "components" ->
          let c = Mrpa_analysis.Components.weakly_connected sg in
          let largest =
            if c.Mrpa_analysis.Components.n_components = 0 then 0
            else snd (Mrpa_analysis.Components.largest c)
          in
          Ok
            [
              ("count", string_of_int c.Mrpa_analysis.Components.n_components);
              ("largest", string_of_int largest);
            ]
        | "communities" ->
          let c = Mrpa_analysis.Communities.label_propagation sg in
          let sizes = Mrpa_analysis.Communities.sizes c in
          let largest = Array.fold_left max 0 sizes in
          let q = Mrpa_analysis.Communities.modularity sg c in
          Ok
            ([
               ("count", string_of_int c.Mrpa_analysis.Communities.n_communities);
               ("largest", string_of_int largest);
             ]
            @
            if Float.is_nan q then []
            else [ ("modularity", Printf.sprintf "%.4f" q) ])
        | other ->
          Error
            (Printf.sprintf
               "unknown measure %S (want degree, pagerank, components or \
                communities)"
               other)
      in
      match payload with
      | Error msg ->
        Wire.response_error ~id:req.Wire.id ~code:Wire.Bad_request msg
      | Ok fields ->
        Wire.response_ok ~id:req.Wire.id
          [
            ( "view",
              Render.obj
                (base partial
                @ [ ("measure", esc measure) ]
                @ graph_fields @ fields) );
          ])
  | Wire.V_register | Wire.V_drop | Wire.V_list ->
    assert false (* answered inline by handle_views *)

let handle_views t ss (req : Wire.request) (v : Wire.view_req) =
  match v.Wire.action with
  | Wire.V_register -> send ss (views_register t req v)
  | Wire.V_drop ->
    let name = Option.get v.Wire.view_name in
    if Views.drop t.views name then begin
      m_incr t "server.view_drops";
      send ss
        (Wire.response_ok ~id:req.Wire.id
           [ ("view", Render.obj [ ("dropped", esc name) ]) ])
    end
    else begin
      m_incr t "server.view_unknown";
      send ss
        (Wire.response_error ~id:req.Wire.id ~code:Wire.Unknown_view
           (Printf.sprintf "no view named %S" name))
    end
  | Wire.V_list ->
    m_incr t "server.view_lists";
    let infos = Views.list t.views ~snap_seq:(Snapshot.seq (snapshot t)) in
    send ss
      (Wire.response_ok ~id:req.Wire.id
         [
           ( "views",
             "[" ^ String.concat "," (List.map view_info_json infos) ^ "]" );
         ])
  | Wire.V_edges | Wire.V_counts | Wire.V_analytics -> (
    (* Reads go through the same bounded-staleness gate and worker pool as
       queries: a stale expression view re-projects under a governed
       budget, and even a cheap word-view extraction must not let a flood
       of view reads starve the session threads. *)
    let effective = Wire.clamp t.config.limits req.Wire.options in
    match serving_snapshot t effective with
    | Error msg ->
      send ss (Wire.response_error ~id:req.Wire.id ~code:Wire.Stale msg)
    | Ok snap ->
      let budget = Wire.budget_of_options effective in
      submit_governed t ss req budget (fun () ->
          views_read t snap req v effective budget))

(* --- Replication verbs --------------------------------------------------- *)

let health_response t req =
  (* Load signal for routers and failover clients: how much work is
     waiting ([queue_depth]) and running ([inflight]) right now. Reported
     for every role so a circuit breaker's half-open probe learns both
     liveness and load from one round trip. *)
  let load_fields =
    [
      ("queue_depth", string_of_int (Pool.queued t.pool));
      ("inflight", string_of_int (Pool.running t.pool));
    ]
  in
  let fields =
    match t.repl with
    | No_replication ->
      [ ("role", esc "standalone"); ("last_seq", "0"); ("lag", "0") ]
    | Primary_repl p ->
      let last, ep, wedged, nsubs =
        with_lock p.prim_lock (fun () ->
            ( Replication.Source.last_seq p.source,
              Replication.Source.epoch p.source,
              Replication.Source.wedged p.source,
              Hashtbl.length p.subs ))
      in
      [
        ("role", esc "primary");
        ("last_seq", string_of_int last);
        ("lag", "0");
        ("epoch", string_of_int ep);
        ("subscribers", string_of_int nsubs);
      ]
      @ (match wedged with Some r -> [ ("wedged", esc r) ] | None -> [])
    | Replica_repl r ->
      let last, pseq =
        with_lock r.rep_lock (fun () ->
            ( Replication.Apply.last_applied r.appl,
              Replication.Apply.primary_seq r.appl ))
      in
      let staleness =
        if r.rep_last_contact = 0L then -1.0
        else Metrics.ns_to_ms (Metrics.elapsed_ns ~since:r.rep_last_contact)
      in
      [
        ("role", esc "replica");
        ("last_seq", string_of_int last);
        ("primary_seq", string_of_int pseq);
        ("lag", string_of_int (max 0 (pseq - last)));
        ("snap_seq", string_of_int (Snapshot.seq (snapshot t)));
        ("epoch", string_of_int r.rep_epoch);
        ("connected", if r.rep_connected then "true" else "false");
        ("staleness_ms", Printf.sprintf "%.1f" staleness);
        ("resyncs", string_of_int r.rep_resyncs);
      ]
  in
  Wire.response_ok ~id:req.Wire.id
    [ ("health", Render.obj (fields @ load_fields)) ]

(* Stream backlog + live records to one subscriber until the connection
   dies, the server stops, or the tailer declares the subscriber dead
   (epoch change). Record lines go through the fault plane; heartbeats and
   comments bypass it so fault positions are deterministic. *)
let stream_to_subscriber t ss sub backlog =
  let alive = ref true in
  let deliver line =
    let actions =
      if line <> "" && line.[0] = '#' then [ Replication.Fault.Deliver line ]
      else Replication.Fault.apply line
    in
    List.iter
      (fun action ->
        if !alive then
          match action with
          | Replication.Fault.Deliver l -> (
            try
              with_lock ss.write_lock (fun () ->
                  Net.write_all ss.fd (l ^ "\n"))
            with Unix.Unix_error _ -> alive := false)
          | Replication.Fault.Tear_after partial ->
            (try with_lock ss.write_lock (fun () -> Net.write_all ss.fd partial)
             with Unix.Unix_error _ -> ());
            alive := false)
      actions
  in
  List.iter (fun r -> deliver r.Replication.line) backlog;
  while !alive && not (stopping t) do
    let batch, dead =
      with_lock sub.sub_lock (fun () ->
          let items = List.of_seq (Queue.to_seq sub.sub_queue) in
          Queue.clear sub.sub_queue;
          (items, sub.sub_dead))
    in
    if batch = [] then
      if dead then alive := false else Thread.delay 0.02
    else List.iter deliver batch
  done

let handle_sub t ss (req : Wire.request) =
  match t.repl with
  | No_replication | Replica_repl _ ->
    send ss
      (Wire.response_error ~id:req.Wire.id ~code:Wire.Bad_request
         "sub requires a server running with --role primary")
  | Primary_repl p ->
    let from_seq = Option.value ~default:1 req.Wire.options.Wire.from_seq in
    let sub_epoch = Option.value ~default:(-1) req.Wire.options.Wire.epoch in
    let sub =
      { sub_queue = Queue.create (); sub_lock = Mutex.create (); sub_dead = false }
    in
    (* Registration and backlog are computed under the same lock the
       tailer broadcasts under, so every record is either in the backlog
       or queued after registration — never both, never neither. *)
    let sub_id, ep, last, reset, backlog =
      with_lock p.prim_lock (fun () ->
          let id = p.next_sub in
          p.next_sub <- id + 1;
          Hashtbl.replace p.subs id sub;
          let ep = Replication.Source.epoch p.source in
          let last = Replication.Source.last_seq p.source in
          match
            Replication.Source.backlog p.source ~from_seq ~epoch:sub_epoch
          with
          | Replication.Source.Tail records -> (id, ep, last, false, records)
          | Replication.Source.Reset records -> (id, ep, last, true, records))
    in
    m_incr t "server.subs";
    Fun.protect
      ~finally:(fun () ->
        with_lock p.prim_lock (fun () -> Hashtbl.remove p.subs sub_id))
      (fun () ->
        let start_seq =
          match backlog with
          | [] -> last + 1
          | r :: _ -> r.Replication.seq
        in
        send ss
          (Wire.response_ok ~id:req.Wire.id
             [
               ( "sub",
                 Render.obj
                   [
                     ("start_seq", string_of_int start_seq);
                     ("last_seq", string_of_int last);
                     ("epoch", string_of_int ep);
                     ("reset", if reset then "true" else "false");
                   ] );
             ]);
        stream_to_subscriber t ss sub backlog)

let handle_request t ss line =
  m_incr t "server.requests";
  match Wire.decode_request line with
  | Error msg ->
    m_incr t "server.bad_requests";
    send ss (Wire.response_error ~id:Json.Null ~code:Wire.Bad_request msg);
    `Continue
  | Ok req -> (
    match req.Wire.verb with
    | Wire.Ping ->
      m_incr t "server.pings";
      send ss (Wire.response_ok ~id:req.Wire.id [ ("pong", "true") ]);
      `Continue
    | Wire.Stats ->
      send ss (stats_response t req);
      `Continue
    | Wire.Lint ->
      send ss (lint_response t req);
      `Continue
    | Wire.Health ->
      m_incr t "server.healths";
      send ss (health_response t req);
      `Continue
    | Wire.Sub ->
      (* Takes over the connection: the handoff response, then a one-way
         record stream until either side hangs up. *)
      handle_sub t ss req;
      `Close
    | Wire.Shutdown ->
      if shutdown_allowed t ss then begin
        send ss (Wire.response_ok ~id:req.Wire.id [ ("stopping", "true") ]);
        stop t;
        `Close
      end
      else begin
        m_incr t "server.unauthorized";
        send ss
          (Wire.response_error ~id:req.Wire.id ~code:Wire.Unauthorized
             "shutdown over TCP requires --allow-remote-shutdown");
        `Continue
      end
    | Wire.Views v ->
      handle_views t ss req v;
      `Continue
    | Wire.Query | Wire.Count ->
      handle_eval t ss req;
      `Continue)

(* --- Role threads -------------------------------------------------------- *)

let hb_interval_ns = 200_000_000L

let broadcast p lines =
  with_lock p.prim_lock (fun () ->
      Hashtbl.iter
        (fun _ sub ->
          with_lock sub.sub_lock (fun () ->
              List.iter (fun l -> Queue.push l sub.sub_queue) lines))
        p.subs)

let kill_subs p =
  with_lock p.prim_lock (fun () ->
      Hashtbl.iter
        (fun _ sub -> with_lock sub.sub_lock (fun () -> sub.sub_dead <- true))
        p.subs)

(* The primary's tailer: poll the journal, broadcast new records to
   subscribers, refresh the serving snapshot, and interleave heartbeats so
   replicas have a staleness clock even when no one is writing. *)
let primary_loop t p =
  let last_hb = ref 0L in
  while not (stopping t) do
    let ep0 = Replication.Source.epoch p.source in
    let records =
      with_lock p.prim_lock (fun () -> Replication.Source.poll p.source)
    in
    let ep1 = Replication.Source.epoch p.source in
    if ep1 <> ep0 then begin
      (* The journal was rewritten (compaction / truncation) and
         resequenced: streams from the old epoch are unusable. Hang up on
         every subscriber; they resubscribe and get a reset handoff. The
         live graph was replaced wholesale, so views must rebind to the
         new object (and re-materialise — old seqs mean nothing now). *)
      kill_subs p;
      with_lock p.prim_lock (fun () ->
          Views.rebind t.views (Replication.Source.graph p.source))
    end
    else if records <> [] then
      broadcast p (List.map (fun r -> r.Replication.line) records);
    if records <> [] || ep1 <> ep0 then
      refresh_snapshot t
        (Replication.Source.graph p.source)
        ~seq:(Replication.Source.last_seq p.source);
    let now = Metrics.now_ns () in
    if Int64.compare (Int64.sub now !last_hb) hb_interval_ns >= 0 then begin
      last_hb := now;
      broadcast p
        [ Replication.heartbeat ~seq:(Replication.Source.last_seq p.source) ]
    end;
    Thread.delay 0.02
  done

let stop_aware_sleep t seconds =
  let deadline =
    Int64.add (Metrics.now_ns ()) (Int64.of_float (seconds *. 1e9))
  in
  while
    (not (stopping t))
    && Int64.compare (Metrics.now_ns ()) deadline < 0
  do
    Thread.delay 0.02
  done

(* Subscribe from where we left off. [None] means the handshake itself
   failed (the peer is not a primary, or died mid-handshake). *)
let follow_handshake r fd conn =
  let sub_req =
    {
      Wire.id = Json.Null;
      verb = Wire.Sub;
      query = None;
      options =
        {
          Wire.default_options with
          Wire.from_seq = Some (Replication.Apply.last_applied r.appl + 1);
          (* Before the first successful handshake there is no epoch to
             claim; omitting the field yields the full-reset handoff. *)
          epoch = (if r.rep_epoch >= 0 then Some r.rep_epoch else None);
        };
    }
  in
  match Net.write_all fd (Wire.encode_request sub_req ^ "\n") with
  | exception Unix.Unix_error _ -> None
  | () -> (
    let deadline = Some (Unix.gettimeofday () +. 5.0) in
    match Listener.read_line conn ~deadline with
    | Listener.Line line -> (
      match Json.parse line with
      | Error _ -> None
      | Ok json -> (
        match (Json.member "ok" json, Json.member "sub" json) with
        | Some (Json.Bool true), Some sub ->
          let geti name d =
            match Option.bind (Json.member name sub) Json.to_int_opt with
            | Some v -> v
            | None -> d
          in
          let reset =
            match Json.member "reset" sub with
            | Some (Json.Bool b) -> b
            | _ -> false
          in
          Some (geti "epoch" 0, geti "last_seq" 0, reset)
        | _ -> None))
    | Listener.Eof | Listener.Timed_out | Listener.Too_long -> None)

(* Apply the record stream until it breaks. Snapshot refreshes are
   batched: on a quiet tick, every [refresh_batch] applied records under
   sustained load, and at stream end — so a write burst costs a handful of
   graph copies, not one per record. Returns [false] when the handshake
   was refused (the caller backs off hard instead of hammering). *)
let refresh_batch = 512

let follow_stream t r fd =
  let conn =
    Listener.reader ~max_bytes:t.config.front.max_request_bytes
      ~stop:(fun () -> stopping t) fd
  in
  match follow_handshake r fd conn with
  | None -> false
  | Some (ep, primary_last, reset) ->
    with_lock r.rep_lock (fun () ->
        if reset then begin
          Replication.Apply.reset r.appl;
          (* [reset] replaces the replica's graph wholesale and restarts
             the sequence space: rebind so word views re-materialise from
             the fresh graph and expression views forget stale seqs. *)
          Views.rebind t.views (Replication.Apply.graph r.appl)
        end;
        Replication.Apply.note_primary_seq r.appl primary_last);
    r.rep_epoch <- ep;
    r.rep_connected <- true;
    r.rep_last_contact <- Metrics.now_ns ();
    let dirty = ref reset in
    let applied_since = ref 0 in
    let refresh () =
      refresh_snapshot t
        (Replication.Apply.graph r.appl)
        ~seq:(Replication.Apply.last_applied r.appl);
      dirty := false;
      applied_since := 0
    in
    let running = ref true in
    while !running && not (stopping t) do
      let tick = Some (Unix.gettimeofday () +. 0.05) in
      match Listener.read_line conn ~deadline:tick with
      | Listener.Timed_out -> if !dirty then refresh ()
      | Listener.Eof | Listener.Too_long -> running := false
      | Listener.Line line -> (
        let outcome =
          with_lock r.rep_lock (fun () ->
              Replication.Apply.apply_line r.appl line)
        in
        r.rep_last_contact <- Metrics.now_ns ();
        match outcome with
        | Replication.Apply.Applied _ ->
          dirty := true;
          incr applied_since;
          if !applied_since >= refresh_batch then refresh ()
        | Replication.Apply.Skipped | Replication.Apply.Heartbeat _ -> ()
        | Replication.Apply.Resync _ ->
          r.rep_resyncs <- r.rep_resyncs + 1;
          running := false)
    done;
    if !dirty then refresh ();
    r.rep_connected <- false;
    true

(* The replica's follower: connect, subscribe, apply until the stream
   breaks, reconnect with jittered backoff (the PR 5 client policy). *)
let follower_loop t r =
  let attempt = ref 0 in
  while not (stopping t) do
    match Net.connect_fd r.follow with
    | exception (Unix.Unix_error _ | Failure _) ->
      r.rep_connected <- false;
      let policy = { Client.retries = 0; Client.backoff_ms = 50.0 } in
      let delay_ms = Client.backoff_delay_ms policy ~attempt:(min !attempt 7) in
      incr attempt;
      stop_aware_sleep t (delay_ms /. 1000.0)
    | fd ->
      let handshook =
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> follow_stream t r fd)
      in
      if handshook then begin
        attempt := 0;
        stop_aware_sleep t 0.05
      end
      else begin
        incr attempt;
        stop_aware_sleep t 0.5
      end
  done

(* --- Listening ----------------------------------------------------------- *)

let open_session t ~remote fd =
  m_incr t "server.connections";
  let ss = session_state ~remote fd in
  {
    Listener.handle = handle_request t ss;
    send = send ss;
    (* Workers may still own responses for this connection; the fd must
       outlive them. *)
    close = (fun () -> await_drain ss);
  }

let serve t =
  let role_thread = ref None in
  let start_role () =
    role_thread :=
      match t.repl with
      | No_replication -> None
      | Primary_repl p -> Some (Thread.create (fun () -> primary_loop t p) ())
      | Replica_repl r -> Some (Thread.create (fun () -> follower_loop t r) ())
  in
  (* Graceful drain: no new work, abort running queries at their next
     checkpoint and let the pool finish; the listener then waits for the
     sessions to flush their final responses. *)
  let drain () =
    Option.iter Thread.join !role_thread;
    cancel_inflight t;
    Pool.shutdown t.pool
  in
  Listener.serve t.listener ~on_listening:start_role ~on_stop:drain
    ~on_farewell:(fun f -> m_incr t ("server." ^ Listener.farewell_counter f))
    (open_session t)
