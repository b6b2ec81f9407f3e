(* The traced run: per-layer attribution, measured from outside the
   program.

   1. The standalone and primary workloads replay the seeded request stream
      in-process, on a snapshot built the way the server builds it, through
      the layers' public functions in the server's order: Wire decode,
      result-cache lookup, Snapshot.compile (on a miss also split into
      parse / cost analysis / planning), Engine execute, Render, Wire
      envelope. Each call is a span; spans are kept in memory and written
      to .perfbench/spans-WORKLOAD-SEED.jsonl at the end.
   2. The live fleet's [stats] counters and per-process /proc CPU over the
      timed window, which the caller measured, give the load-dependent
      numbers.
   3. For [routed], a forwarding proxy on every shard socket times the
      router's shard round trips.

   Per-layer names that do not apply to a workload read 0. *)

open Mrpa_graph
open Mrpa_engine
module Wire = Mrpa_server.Wire
module Snapshot = Mrpa_server.Snapshot

(* --- Spans -------------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (** 0 for a root. *)
  req : int;
  name : string;
  t0 : int64;
  t1 : int64;
}

let recording = ref true
let spans : span list ref = ref []
let next_span = ref 1

let span ?(parent = 0) ~req name f =
  if not !recording then f 0
  else begin
    let id = !next_span in
    incr next_span;
    let t0 = Metrics.now_ns () in
    let r = f id in
    spans := { id; parent; req; name; t0; t1 = Metrics.now_ns () } :: !spans;
    r
  end

let us s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e3

let durations name =
  List.filter_map (fun s -> if s.name = name then Some (us s) else None) !spans

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        {|{"id":%d,"parent":%d,"req":%d,"name":"%s","start_ns":%Ld,"end_ns":%Ld}|}
        s.id s.parent s.req s.name s.t0 s.t1;
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

let timed f =
  let t0 = Proc.now () in
  let r = f () in
  (r, Proc.now () -. t0)

(* --- In-process replay of one request ----------------------------------- *)

(* The stages that make up a request, as the server runs them. *)
let stages = [ "decode"; "result_cache"; "compile"; "execute"; "render"; "envelope" ]

type replay = {
  mutable compile_misses : int list;  (** request ids whose compile missed. *)
  mutable result_hits : int;
  mutable result_misses : int;
  mutable plans : (Wire.request * Wire.options * Plan.t) list;
}

let fresh_replay () =
  { compile_misses = []; result_hits = 0; result_misses = 0; plans = [] }

let get = function Ok x -> x | Error e -> failwith e

(* The cost of a miss, split into the three calls Snapshot.compile makes;
   a second compile, recorded under its own root. *)
let split_compile snap ~req ~max_length ~simple query =
  span ~req "compile.split" (fun root ->
      let g = Snapshot.graph snap and stats = Snapshot.profile snap in
      match span ~parent:root ~req "parse" (fun _ -> Parser.parse_spanned g query) with
      | Error _ -> ()
      | Ok sp ->
        ignore
          (span ~parent:root ~req "lint" (fun _ ->
               Mrpa_lint.Cost.analyze ~stats g ~max_length sp));
        ignore
          (span ~parent:root ~req "optimize" (fun _ ->
               Optimizer.plan ~simple ~stats ~max_length g
                 (Mrpa_core.Spanned.strip sp))))

let serve_one rp snap ~req line =
  span ~req "request" (fun root ->
      let step name f = span ~parent:root ~req name (fun _ -> f ()) in
      let r = get (step "decode" (fun () -> Wire.decode_request line)) in
      let o = Wire.clamp Wire.default_limits r.Wire.options in
      let query = Option.get r.Wire.query in
      let max_length = Option.value ~default:Engine.default_max_length o.Wire.max_length in
      let simple = o.Wire.simple in
      let rkey =
        Snapshot.result_key ~verb:(Wire.verb_name r.Wire.verb) ~query
          ~max_length ~simple ~strategy:o.Wire.strategy ~limit:o.Wire.limit
      in
      match step "result_cache" (fun () -> Snapshot.cached_result snap rkey) with
      | Some payload ->
        rp.result_hits <- rp.result_hits + 1;
        ignore (step "envelope" (fun () -> Wire.response_ok ~id:r.Wire.id payload))
      | None ->
        rp.result_misses <- rp.result_misses + 1;
        let _, misses0 = Snapshot.plan_cache_stats snap in
        let c = get (step "compile" (fun () -> Snapshot.compile snap ~max_length ~simple query)) in
        if snd (Snapshot.plan_cache_stats snap) > misses0 then
          rp.compile_misses <- req :: rp.compile_misses;
        let plan =
          match o.Wire.strategy with
          | None -> c.Snapshot.plan
          | Some s -> Plan.with_strategy c.Snapshot.plan s
        in
        let g = Snapshot.graph snap and budget = Wire.budget_of_options o in
        let gen0 = Snapshot.generation snap in
        let payload, verdict =
          match r.Wire.verb with
          | Wire.Query ->
            let res = step "execute" (fun () -> Engine.query_plan ?limit:o.Wire.limit ~budget g plan) in
            rp.plans <- (r, o, plan) :: rp.plans;
            ([ ("result", step "render" (fun () -> Render.result_json g res)) ], res.Engine.verdict)
          | _ ->
            let n, v = step "execute" (fun () -> Engine.count_plan ~budget g plan) in
            ( [ ("count", string_of_int n); ("verdict", Metrics.escape_string (Err.verdict_name v)) ],
              v )
        in
        if verdict = Err.Complete then Snapshot.cache_result snap ~generation:gen0 rkey payload;
        ignore (step "envelope" (fun () -> Wire.response_ok ~id:r.Wire.id payload)))

(* Per request, the summed time of its stages. *)
let stage_sums () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if List.mem s.name stages then
        Hashtbl.replace tbl s.req (us s +. Option.value ~default:0. (Hashtbl.find_opt tbl s.req)))
    !spans;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

(* --- Engine counters and backends ---------------------------------------- *)

(* A backend is timed only where its run is feasible: the reference
   semantics materialises every subexpression, so it is skipped when the
   planner's bound on any of them is large. *)
let reference_feasible (p : Plan.t) =
  List.for_all
    (fun row ->
      match row.Mrpa_lint.Cost.info.Mrpa_lint.Cost.card with
      | Mrpa_lint.Cost.Fin n -> n <= 50_000
      | Mrpa_lint.Cost.Inf -> false)
    p.Plan.cost.Mrpa_lint.Cost.rows

let backends =
  [
    ("reference", Plan.Reference);
    ("stack-machine", Plan.Stack_machine);
    ("product-bfs", Plan.Product_bfs);
  ]

(* Mean execute time per backend over the distinct plans replayed; 0 for a
   backend that is infeasible or overruns a one-second deadline on any of
   them. *)
let backend_times g plans =
  let distinct =
    List.sort_uniq (fun (r, _, _) (r', _, _) -> compare r.Wire.query r'.Wire.query) plans
  in
  let distinct = List.filteri (fun i _ -> i < 8) distinct in
  List.map
    (fun (name, strategy) ->
      let times =
        List.map
          (fun ((_ : Wire.request), (o : Wire.options), plan) ->
            if strategy = Plan.Reference && not (reference_feasible plan) then None
            else
              let run () =
                let budget = Wire.budget_of_options { o with Wire.deadline_ms = Some 1000. } in
                timed (fun () ->
                    Engine.query_plan ?limit:o.Wire.limit ~budget g
                      (Plan.with_strategy plan strategy))
              in
              (* a slow backend runs once, a fast one three times *)
              let first = run () in
              let results =
                if snd first < 0.05 then first :: List.init 2 (fun _ -> run ()) else [ first ]
              in
              if
                List.exists
                  (fun (r, _) -> r.Engine.verdict = Err.Partial Err.Deadline)
                  results
              then None
              else Some (Stats.median (List.map snd results) *. 1e6))
          distinct
      in
      let value =
        if times = [] || List.mem None times then 0.
        else Stats.mean (List.filter_map Fun.id times)
      in
      ("engine.execute_us." ^ name, value))
    backends

(* Mean of the [bfs.edges_scanned] and [result.paths] counters the
   engine's profiled pipeline reports, over the replayed queries. *)
let engine_counters g plans =
  let per =
    List.map
      (fun ((_ : Wire.request), (o : Wire.options), plan) ->
        let m = Metrics.create () in
        ignore
          (Eval.run_governed ?limit:o.Wire.limit ~metrics:m
             ~budget:(Wire.budget_of_options o) g plan);
        let c k = float_of_int (Option.value ~default:0 (Metrics.counter m k)) in
        (c "result.paths", c "bfs.edges_scanned"))
      plans
  in
  (Stats.mean (List.map fst per), Stats.mean (List.map snd per))

(* --- Live counters ------------------------------------------------------- *)

let sockets (f : Fleet.t) = f.Fleet.front :: f.Fleet.shard_sockets

(* [stats] counters of every server in the fleet, summed by name. *)
let counters (f : Fleet.t) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun sock ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)))
        (Proc.stats sock))
    (sockets f);
  tbl

let delta before after name =
  let get t = Option.value ~default:0. (Hashtbl.find_opt t name) in
  get after -. get before

let ratio hits misses = if hits +. misses > 0. then hits /. (hits +. misses) else 0.

(* --- Shard proxy (routed) ------------------------------------------------ *)

type pconn = {
  down : Unix.file_descr;  (** the router's side. *)
  up : Unix.file_descr;  (** the shard's side. *)
  dbuf : Loadgen.rbuf;
  ubuf : Loadgen.rbuf;
  sends : float Queue.t;
}

type seq_window = {
  n : int;
  qps : float;
  self_ms : float list;  (** per request: latency minus shard round trips. *)
  rtt_ms : float list;
  shard_bytes : int;
}

(* Length of the union of intervals, clipped to [lo, hi]. *)
let covered lo hi intervals =
  let sorted =
    List.sort compare (List.map (fun (a, b) -> (max a lo, min b hi)) intervals)
  in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        if b <= reach then (acc, reach)
        else (acc +. (b -. max a reach), b))
      (0., lo) sorted
  in
  total

(* One request at a time against [front], so every shard round trip seen
   while a request is open belongs to it. [proxies] pairs each listening
   proxy socket with the shard socket it forwards to. *)
let sequential ~front ~proxies ~seconds next =
  let client = match Proc.connect front with Some fd -> fd | None -> failwith "connect" in
  let crb = Loadgen.rbuf () in
  let pconns = ref [] in
  let intervals = ref [] and rtts = ref [] and bytes = ref 0 in
  let chunk = Bytes.create 262144 in
  let close_pair p =
    (try Unix.close p.down with Unix.Unix_error _ -> ());
    (try Unix.close p.up with Unix.Unix_error _ -> ());
    pconns := List.filter (fun q -> q != p) !pconns
  in
  let forward p ~from ~into rb on_line =
    match Unix.read from chunk 0 (Bytes.length chunk) with
    | 0 -> close_pair p
    | n -> (
      match Unix.write into chunk 0 n with
      | _ ->
        Loadgen.append rb chunk n;
        Loadgen.lines rb on_line
      | exception Unix.Unix_error _ -> close_pair p)
    | exception Unix.Unix_error _ -> close_pair p
  in
  let pump timeout =
    let fds =
      (client :: List.map fst proxies)
      @ List.concat_map (fun p -> [ p.down; p.up ]) !pconns
    in
    match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | readable, _, _ ->
      List.iter
        (fun fd ->
          match List.assoc_opt fd proxies with
          | Some upstream -> (
            let down, _ = Unix.accept fd in
            match Proc.connect upstream with
            | Some up ->
              pconns :=
                { down; up; dbuf = Loadgen.rbuf (); ubuf = Loadgen.rbuf (); sends = Queue.create () }
                :: !pconns
            | None -> Unix.close down)
          | None ->
            List.iter
              (fun p ->
                if fd == p.down then
                  forward p ~from:p.down ~into:p.up p.dbuf (fun _ ->
                      Queue.push (Proc.now ()) p.sends)
                else if fd == p.up then
                  forward p ~from:p.up ~into:p.down p.ubuf (fun line ->
                      let t1 = Proc.now () in
                      bytes := !bytes + String.length line + 1;
                      match Queue.take_opt p.sends with
                      | Some t0 ->
                        intervals := (t0, t1) :: !intervals;
                        rtts := ((t1 -. t0) *. 1000.) :: !rtts
                      | None -> ()))
              !pconns)
        readable;
      List.filter (fun fd -> fd == client) readable
  in
  let start = Proc.now () in
  let self = ref [] and n = ref 0 in
  while Proc.now () < start +. seconds do
    let id = !n + 1 in
    intervals := [];
    let sent = Proc.now () in
    Mrpa_server.Net.write_all client (Inputs.line ~id (next ()));
    let answered = ref false in
    while not !answered do
      if pump 1.0 <> [] then
        match Unix.read client chunk 0 (Bytes.length chunk) with
        | 0 -> failwith "router closed the connection"
        | k ->
          Loadgen.append crb chunk k;
          Loadgen.lines crb (fun _ ->
              let recv = Proc.now () in
              answered := true;
              self := ((recv -. sent -. covered sent recv !intervals) *. 1000.) :: !self)
    done;
    incr n
  done;
  let elapsed = Proc.now () -. start in
  List.iter close_pair !pconns;
  Unix.close client;
  { n = !n; qps = float_of_int !n /. elapsed; self_ms = !self; rtt_ms = !rtts; shard_bytes = !bytes }

(* A second router over the same shards, reaching them through proxies
   the generator serves. *)
let proxied_router ~dir (fleet : Fleet.t) =
  let proxies =
    List.mapi
      (fun i up ->
        let path = Filename.concat dir (Printf.sprintf "px%d.sock" i) in
        Fleet.remove path;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 16;
        ((fd, up), path))
      fleet.Fleet.shard_sockets
  in
  let map = Filename.concat dir "proxied.map" in
  Fleet.write_map map (List.map snd proxies);
  let router, sock = Fleet.route ~dir ~name:"router-px" ~map in
  Proc.await_ping router sock;
  (router, sock, List.map fst proxies)

(* --- Per-layer report ---------------------------------------------------- *)

(* Every per-layer metric with its unit; BENCHMARK.json lists the same. *)
let metric_units =
  [
    ("session.residual_ms", "ms");
    ("pool.overloaded", "count");
    ("wire.decode_us", "us");
    ("wire.envelope_us", "us");
    ("wire.response_bytes", "bytes");
    ("snapshot.compile_hit_us", "us");
    ("snapshot.compile_miss_us", "us");
    ("compile.parse_us", "us");
    ("compile.cost_us", "us");
    ("compile.optimize_us", "us");
    ("plan_cache.hit_ratio", "fraction");
    ("result_cache.hit_ratio", "fraction");
    ("snapshot.refresh_ms", "ms");
    ("setup.load_s", "s");
    ("setup.freeze_s", "s");
    ("setup.profile_s", "s");
    ("setup.partition_s", "s");
    ("engine.execute_us", "us");
    ("engine.execute_us.reference", "us");
    ("engine.execute_us.stack-machine", "us");
    ("engine.execute_us.product-bfs", "us");
    ("engine.paths_per_req", "count");
    ("engine.edges_scanned_per_req", "count");
    ("render.result_us", "us");
    ("stages.sum_ms", "ms");
    ("stages.cpu_share", "fraction");
    ("router.dispatches_per_req", "count");
    ("router.cpu_ms_per_req", "ms");
    ("shard.cpu_ms_per_req", "ms");
    ("shard.rtt_ms", "ms");
    ("shard.response_bytes_per_req", "bytes");
    ("router.self_ms", "ms");
    ("journal.append_us", "us");
    ("write.visible_ms", "ms");
    ("loadgen.cpu_ms_per_req", "ms");
    ("loadgen.inflight", "count");
    ("loadgen.core_share", "fraction");
    ("trace.overhead_pct", "%");
    ("oracle.mismatches", "count");
    ("host.steal_pct", "%");
    ("host.foreign_pct", "%");
    ("window.measured_share", "fraction");
  ]

let report values ~mismatches =
  List.map
    (fun (name, unit) ->
      let v =
        if name = "oracle.mismatches" then float_of_int mismatches
        else Option.value ~default:0. (List.assoc_opt name values)
      in
      (name, v, unit))
    metric_units

let mean_of name = Stats.mean (durations name)

(* Setup split: load the file, freeze it, profile it. *)
let setup_split load =
  let g, load_s = timed load in
  let copy, freeze_s =
    timed (fun () ->
        let c = Digraph.copy g in
        Digraph.freeze c;
        c)
  in
  let _, profile_s = timed (fun () -> Stat.profile copy) in
  [ ("setup.load_s", load_s); ("setup.freeze_s", freeze_s); ("setup.profile_s", profile_s) ]

(* Replay [n] requests twice, each time on a fresh snapshot: untraced, then
   traced; the difference in wall time is the tracing overhead. *)
let standalone_replay (w : Workload.t) ~n =
  let pass traced =
    let snap = Snapshot.load w.Workload.graph_file in
    (* primed like the live server, untraced *)
    recording := false;
    List.iteri
      (fun i r -> serve_one (fresh_replay ()) snap ~req:(-1 - i) (String.trim (Inputs.line ~id:0 r)))
      w.Workload.prime;
    recording := traced;
    let rp = fresh_replay () in
    let next = w.Workload.stream () in
    let (), wall =
      timed (fun () ->
          for req = 1 to n do
            serve_one rp snap ~req (String.trim (Inputs.line ~id:req (next ())))
          done)
    in
    (snap, rp, wall)
  in
  let _, _, plain = pass false in
  let snap, rp, traced = pass true in
  recording := true;
  (* split the misses after the timed pass, so they do not perturb it *)
  let next = w.Workload.stream () in
  for req = 1 to n do
    let r = next () in
    if List.mem req rp.compile_misses then
      split_compile snap ~req ~max_length:r.Inputs.max_length ~simple:false r.Inputs.query
  done;
  (snap, rp, 100. *. (traced -. plain) /. plain)

(* Write-mix: the same read stream and the live run's appends, refreshing
   the snapshot after each append as the primary does. *)
let write_mix_replay (w : Workload.t) ~initial ~ops =
  let gl = Io.load initial in
  let gw = Option.get w.Workload.writer_graph in
  let name v = Digraph.vertex_name gw v in
  let appends = ref (w.Workload.appended ()) in
  let refreshes = ref [] in
  let refresh old =
    let snap, s = timed (fun () -> Snapshot.of_graph gl) in
    Option.iter (fun o -> Snapshot.unwatch o gl) old;
    refreshes := (s *. 1000.) :: !refreshes;
    snap
  in
  let snap = ref (refresh None) in
  let rp = fresh_replay () in
  let next = w.Workload.stream () in
  let every = Inputs.write_every in
  let op = ref 0 and req = ref 0 in
  while !op < ops && !appends <> [] do
    if !op mod every = every - 1 then begin
      let _, e = List.hd !appends in
      appends := List.tl !appends;
      ignore
        (Digraph.add gl (name (Edge.tail e))
           (Digraph.label_name gw (Edge.label e))
           (name (Edge.head e)));
      snap := refresh (Some !snap)
    end
    else begin
      incr req;
      serve_one rp !snap ~req:!req (String.trim (Inputs.line ~id:!req (next ())))
    end;
    incr op
  done;
  (!snap, rp, Stats.median !refreshes)

let run (w : Workload.t) (fleet : Fleet.t) ~dir ~seed ~seconds ~before ~after
    ~(live : Loadgen.result) =
  let v = ref [] in
  let set name value = v := (name, value) :: !v in
  let completed = float_of_int (max 1 live.Loadgen.completed_after_t0) in
  let f = Loadgen.figures live in
  let live_p50 = Stats.percentile f.Loadgen.latencies 0.5 in
  let cpu_per_req = f.Loadgen.server_ms_per_req in
  set "host.steal_pct" (100. *. f.Loadgen.steal);
  set "host.foreign_pct" (100. *. f.Loadgen.foreign);
  set "window.measured_share" f.Loadgen.used;
  let d = delta before after in
  set "pool.overloaded" (d "server.overloaded");
  set "wire.response_bytes"
    (float_of_int live.Loadgen.response_bytes /. float_of_int (max 1 live.Loadgen.attempted));
  set "loadgen.cpu_ms_per_req" (live.Loadgen.loadgen_cpu_ms /. completed);
  set "loadgen.core_share" (Loadgen.core_share live);
  set "loadgen.inflight" (float_of_int (Loadgen.depth * Proc.nproc ()));
  let layer_stats (snap, rp, overhead) =
    let g = Snapshot.graph snap in
    let misses = rp.compile_misses in
    let compile_of hit =
      List.filter_map
        (fun s ->
          if s.name = "compile" && List.mem s.req misses <> hit then Some (us s) else None)
        !spans
    in
    set "wire.decode_us" (mean_of "decode");
    set "wire.envelope_us" (mean_of "envelope");
    set "snapshot.compile_hit_us" (Stats.mean (compile_of true));
    set "snapshot.compile_miss_us" (Stats.mean (compile_of false));
    set "compile.parse_us" (mean_of "parse");
    set "compile.cost_us" (mean_of "lint");
    set "compile.optimize_us" (mean_of "optimize");
    set "engine.execute_us" (mean_of "execute");
    set "render.result_us" (mean_of "render");
    let sums = stage_sums () in
    set "stages.sum_ms" (Stats.mean sums /. 1000.);
    set "stages.cpu_share" (Stats.mean sums /. 1000. /. cpu_per_req);
    set "session.residual_ms" (live_p50 -. (Stats.median sums /. 1000.));
    set "trace.overhead_pct" overhead;
    set "result_cache.hit_ratio"
      (ratio (float_of_int rp.result_hits) (float_of_int rp.result_misses));
    let paths, scanned = engine_counters g rp.plans in
    set "engine.paths_per_req" paths;
    set "engine.edges_scanned_per_req" scanned;
    List.iter (fun (k, x) -> set k x) (backend_times g rp.plans)
  in
  (match w.Workload.workload with
  | Inputs.Hot_eval | Inputs.Cold_plan ->
    List.iter (fun (k, x) -> set k x)
      (setup_split (fun () -> Io.load w.Workload.graph_file));
    let n = if w.Workload.workload = Inputs.Hot_eval then 400 else 16 in
    layer_stats (standalone_replay w ~n);
    (* the live counters cover the timed window; they override the
       replay's, which start cold *)
    set "plan_cache.hit_ratio"
      (ratio (d "server.plan_cache_hits") (d "server.plan_cache_misses"));
    set "result_cache.hit_ratio"
      (ratio (d "server.result_cache_hits") (d "server.result_cache_misses"))
  | Inputs.Write_mix ->
    List.iter (fun (k, x) -> set k x)
      (setup_split (fun () -> Journal.replay w.Workload.graph_file));
    let initial = w.Workload.graph_file ^ ".initial.tsv" in
    let snap, rp, refresh_ms = write_mix_replay w ~initial ~ops:(20 * Inputs.write_every) in
    layer_stats (snap, rp, 0.);
    (* server counters reset at every refresh: the replay's are the ones *)
    let misses = float_of_int (List.length rp.compile_misses) in
    set "plan_cache.hit_ratio"
      (ratio (float_of_int rp.result_misses -. misses) misses);
    set "snapshot.refresh_ms" refresh_ms;
    set "journal.append_us" (Stats.median (Array.to_list live.Loadgen.append_us));
    set "write.visible_ms" (Stats.median (Array.to_list live.Loadgen.visible_ms))
  | Inputs.Routed ->
    let g, load_s = timed (fun () -> Io.load w.Workload.graph_file) in
    set "setup.load_s" load_s;
    let map = get (Mrpa_server.Shardmap.load (Filename.concat dir "fleet.map")) in
    set "setup.partition_s" (snd (timed (fun () -> Mrpa_server.Shardmap.partition map g)));
    let requests = d "router.requests" in
    set "router.dispatches_per_req" (d "router.dispatches" /. max 1. requests);
    let router_pid = (Option.get fleet.Fleet.router).Proc.pid in
    let router_cpu, shard_cpu =
      List.partition (fun (pid, _) -> pid = router_pid) live.Loadgen.server_cpu_by_pid
    in
    let sum l = List.fold_left (fun acc (_, x) -> acc +. x) 0. l in
    set "router.cpu_ms_per_req" (sum router_cpu /. completed);
    set "shard.cpu_ms_per_req" (sum shard_cpu /. completed);
    set "plan_cache.hit_ratio"
      (ratio (d "server.plan_cache_hits") (d "server.plan_cache_misses"));
    set "result_cache.hit_ratio"
      (ratio (d "server.result_cache_hits") (d "server.result_cache_misses"));
    let half = seconds /. 2. in
    let direct = sequential ~front:fleet.Fleet.front ~proxies:[] ~seconds:half (w.Workload.stream ()) in
    let router, sock, proxies = proxied_router ~dir fleet in
    let px = sequential ~front:sock ~proxies ~seconds:half (w.Workload.stream ()) in
    Proc.stop router;
    List.iter (fun (fd, _) -> Unix.close fd) proxies;
    set "router.self_ms" (Stats.median px.self_ms);
    set "shard.rtt_ms" (Stats.median px.rtt_ms);
    set "shard.response_bytes_per_req"
      (float_of_int px.shard_bytes /. float_of_int (max 1 px.n));
    set "trace.overhead_pct" (100. *. (direct.qps -. px.qps) /. direct.qps));
  write_spans
    (Printf.sprintf ".perfbench/spans-%s-%d.jsonl"
       (Inputs.workload_name w.Workload.workload) seed);
  report !v
