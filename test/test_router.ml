(* Tests for the sharded serving tier: shard maps (parsing, hash placement,
   partitioning), the scatter-gather router's parity with the single-server
   engine over a live shard fleet, and the robustness surface — degraded
   answers when a shard dies, the per-shard circuit breaker's
   open/half-open/closed life cycle (driven by the deterministic fault
   plane), per-shard failover, and the failover client's rotate-on-dead
   behaviour. *)

open Mrpa_core
open Mrpa_server
module H = Helpers

(* --- Shard maps ---------------------------------------------------------- *)

let sample_map =
  "# mrpa.shardmap/1\n\
   # comment\n\
   shard s0 unix:/tmp/s0.sock\n\n\
   shard s1 tcp:10.0.0.2:7440 tcp:10.0.0.3:7440\n"

let test_shardmap_parse () =
  let m =
    match Shardmap.of_string sample_map with
    | Ok m -> m
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  Alcotest.(check int) "two shards" 2 (Shardmap.n_shards m);
  Alcotest.(check (option int)) "index s1" (Some 1) (Shardmap.index_of m "s1");
  Alcotest.(check int)
    "s1 has two endpoints" 2
    (List.length (Shardmap.shard m 1).Shardmap.endpoints);
  (* Canonical rendering round-trips. *)
  (match Shardmap.of_string (Shardmap.to_string m) with
  | Ok m' ->
    Alcotest.(check string)
      "roundtrip" (Shardmap.to_string m) (Shardmap.to_string m')
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  (* Ownership is total, in range, and deterministic. *)
  List.iter
    (fun name ->
      let o = Shardmap.owner m name in
      Alcotest.(check bool) "in range" true (o >= 0 && o < 2);
      Alcotest.(check int) "deterministic" o (Shardmap.owner m name))
    [ "i"; "j"; "k"; "never seen" ]

let test_shardmap_errors () =
  let bad text =
    match Shardmap.of_string text with
    | Ok _ -> Alcotest.failf "expected an error for %S" text
    | Error _ -> ()
  in
  bad "";
  bad "shard s0 unix:/a.sock\n";
  (* missing header *)
  bad "# mrpa.shardmap/1\n";
  (* no shards *)
  bad "# mrpa.shardmap/1\nshard s0\n";
  (* no endpoints *)
  bad "# mrpa.shardmap/1\nshard s0 unix:/a\nshard s0 unix:/b\n";
  (* dup name *)
  bad "# mrpa.shardmap/1\nshard s0 nonsense$endpoint\n"

let test_shardmap_partition () =
  let g = H.paper_graph () in
  let m =
    match
      Shardmap.of_string
        "# mrpa.shardmap/1\n\
         shard s0 unix:/tmp/a\nshard s1 unix:/tmp/b\nshard s2 unix:/tmp/c\n"
    with
    | Ok m -> m
    | Error e -> Alcotest.failf "map: %s" e
  in
  let parts = Shardmap.partition m g in
  Alcotest.(check int) "one part per shard" 3 (Array.length parts);
  (* Every part carries the full vertex universe... *)
  Array.iter
    (fun part ->
      Alcotest.(check int)
        "full vertex universe" (Mrpa_graph.Digraph.n_vertices g)
        (Mrpa_graph.Digraph.n_vertices part))
    parts;
  (* ... the edge sets are disjoint, placed by owner(tail), and their
     union is the input. *)
  let total = ref 0 in
  Array.iteri
    (fun i part ->
      Mrpa_graph.Digraph.iter_edges
        (fun e ->
          incr total;
          let tail =
            Mrpa_graph.Digraph.vertex_name part (Mrpa_graph.Edge.tail e)
          in
          Alcotest.(check int) "edge on its owner" i (Shardmap.owner m tail))
        part)
    parts;
  Alcotest.(check int) "no edge lost or duplicated"
    (Mrpa_graph.Digraph.n_edges g)
    !total

(* --- A live shard fleet -------------------------------------------------- *)

let wait_for_socket path =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    match Client.connect (Wire.Unix_socket path) with
    | Ok conn -> Client.close conn
    | Error m ->
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "shard never came up on %s: %s" path m
      else begin
        Thread.yield ();
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()

let start_shard ~socket graph =
  let config =
    {
      Server.front = Listener.default_config (Wire.Unix_socket socket);
      workers = 2;
      queue_capacity = 8;
      limits = Wire.default_limits;
      max_predicted_cost = None;
      role = Server.Standalone;
    }
  in
  let server = Server.create ~snapshot:(Snapshot.of_graph graph) config in
  let thread = Thread.create (fun () -> Server.serve server) () in
  wait_for_socket socket;
  (server, thread)

let stop_shard (server, thread) =
  Server.stop server;
  Thread.join thread

(* Partition [graph] across [n] single-server shards on Unix sockets in a
   temp dir, build an (unserved — driven through [handle_line]) router over
   them, and hand everything to [f]. The fleet is torn down afterwards even
   if [f] kills some of it first. [partition] builds the shards' graphs. *)
let with_fleet ?(n = 3) ?(graph = H.paper_graph ()) ?(tune = fun c -> c)
    ?(partition = Shardmap.partition) f =
  let dir = Filename.temp_file "mrpa_route" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let names = List.init n (fun i -> Printf.sprintf "s%d" i) in
  let sock name = Filename.concat dir (name ^ ".sock") in
  let map =
    match
      Shardmap.of_string
        (Shardmap.magic ^ "\n"
        ^ String.concat ""
            (List.map
               (fun nm -> Printf.sprintf "shard %s unix:%s\n" nm (sock nm))
               names))
    with
    | Ok m -> m
    | Error e -> Alcotest.failf "fleet map: %s" e
  in
  let parts = partition map graph in
  let shards =
    Hashtbl.create n (* name -> running shard, so tests can kill/restart *)
  in
  List.iteri
    (fun i nm -> Hashtbl.replace shards nm (start_shard ~socket:(sock nm) parts.(i)))
    names;
  let kill nm =
    match Hashtbl.find_opt shards nm with
    | Some s ->
      stop_shard s;
      Hashtbl.remove shards nm
    | None -> ()
  in
  let restart nm =
    kill nm;
    let i = Option.get (Shardmap.index_of map nm) in
    Hashtbl.replace shards nm (start_shard ~socket:(sock nm) parts.(i))
  in
  let router =
    Router.create
      (tune
         (Router.default_config ~map
            (Wire.Unix_socket (Filename.concat dir "router.sock"))))
  in
  Fun.protect
    ~finally:(fun () ->
      (* Stop every shard before joining any, so their listeners' poll
         intervals run out together. *)
      Hashtbl.iter (fun _ (server, _) -> Server.stop server) shards;
      Hashtbl.iter (fun _ (_, thread) -> Thread.join thread) shards;
      List.iter
        (fun nm -> if Sys.file_exists (sock nm) then Sys.remove (sock nm))
        names;
      Unix.rmdir dir)
    (fun () -> f router ~graph ~kill ~restart)

(* Fast breaker/timeout settings so the fault tests stay quick. *)
let fast c =
  {
    c with
    Router.shard_timeout_ms = 400.0;
    probe_timeout_ms = 200.0;
    breaker_failures = 3;
    breaker_cooldown_ms = 120.0;
  }

(* --- Response plumbing --------------------------------------------------- *)

let query_req ?(verb = Wire.Query) ?(options = Wire.default_options) text =
  Wire.encode_request
    { Wire.id = Json.Number 1.0; verb; query = Some text; options }

let parse_resp line =
  match Json.parse line with
  | Ok j -> j
  | Error m -> Alcotest.failf "unparseable response %S: %s" line m

let expect_ok line =
  let j = parse_resp line in
  (match Json.member "ok" j with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.failf "expected ok response, got %s" line);
  j

let expect_error code line =
  let j = parse_resp line in
  (match Json.member "ok" j with
  | Some (Json.Bool false) -> ()
  | _ -> Alcotest.failf "expected error response, got %s" line);
  let got =
    Option.bind
      (Option.bind (Json.member "error" j) (Json.member "code"))
      Json.to_string_opt
  in
  Alcotest.(check (option string))
    "error code"
    (Some (Wire.error_code_name code))
    got

let result_member j name =
  Option.bind (Json.member "result" j) (Json.member name)

let result_verdict j = Option.bind (result_member j "verdict") Json.to_string_opt

(* The count and verdict of a count response. *)
let count_of j =
  ( Option.bind (Json.member "count" j) Json.to_int_opt,
    Option.bind (Json.member "verdict" j) Json.to_string_opt )

let missing_shards j =
  (* On query responses [missing_shards] lives in the result; on count
     responses it is a top-level member. *)
  let m =
    match result_member j "missing_shards" with
    | Some _ as m -> m
    | None -> Json.member "missing_shards" j
  in
  match m with
  | Some (Json.List l) -> List.filter_map Json.to_string_opt l
  | _ -> []

(* A path as its (tail, label, head) triples — comparable across the
   engine's in-memory paths and the router's rendered JSON. *)
let engine_signatures g pset =
  Path_set.fold
    (fun p acc ->
      List.map
        (fun e ->
          ( Mrpa_graph.Digraph.vertex_name g (Mrpa_graph.Edge.tail e),
            Mrpa_graph.Digraph.label_name g (Mrpa_graph.Edge.label e),
            Mrpa_graph.Digraph.vertex_name g (Mrpa_graph.Edge.head e) ))
        (Mrpa_graph.Path.edges p)
      :: acc)
    pset []
  |> List.sort compare

let response_signatures j =
  match result_member j "paths" with
  | Some (Json.List paths) ->
    List.map
      (fun p ->
        match Json.member "edges" p with
        | Some (Json.List edges) ->
          List.map
            (fun e ->
              let s name =
                match Option.bind (Json.member name e) Json.to_string_opt with
                | Some v -> v
                | None -> Alcotest.failf "edge missing %s" name
              in
              (s "tail", s "label", s "head"))
            edges
        | _ -> Alcotest.fail "path without edges")
      paths
    |> List.sort compare
  | _ -> Alcotest.fail "response without result.paths"

(* --- Parity: the router equals the engine on a healthy fleet ------------- *)

let parity_queries =
  [
    "[i,alpha,_]";
    "[i,alpha,_] . [_,beta,_]";
    "[_,alpha,_] | [_,beta,_]";
    "[_,alpha,_] . [_,beta,_]*";
    "[_,beta,_]+";
    "[_,alpha,_]?";
    "[_,beta,_]{2}";
    "[_,beta,_]{1,2}";
    "[_,alpha,_] >< [_,beta,_]";
    "E . [_,beta,!j]";
    "[!{i},alpha,_]";
    "[{i,k},alpha,_] . [_,beta,{i,j}]";
    "{(i,alpha,j);(j,beta,k)} . [_,beta,_]";
    "eps | [_,alpha,_]";
    "let a = [_,alpha,_] in a . [_,beta,_] . a";
    "[i,_,_]{1,3}";
    "empty | [k,alpha,_]";
    (* Shard s0 owns no alpha edge, but knows the label: the complement
       is answered, not refused. *)
    "[_,!alpha,_]";
  ]

let test_router_parity () =
  with_fleet (fun router ~graph ~kill:_ ~restart:_ ->
      let options =
        { Wire.default_options with Wire.max_length = Some 4 }
      in
      List.iter
        (fun text ->
          let expected =
            Mrpa_engine.Engine.query_exn ~max_length:4 graph text
          in
          let j = expect_ok (Router.handle_line router (query_req ~options text)) in
          Alcotest.(check (option string))
            (text ^ " verdict") (Some "complete") (result_verdict j);
          Alcotest.(check int)
            (text ^ " count")
            (Path_set.cardinal expected.Mrpa_engine.Engine.paths)
            (match Option.bind (result_member j "count") Json.to_int_opt with
            | Some n -> n
            | None -> Alcotest.fail "no count");
          Alcotest.(check (list (list (triple string string string))))
            (text ^ " paths")
            (engine_signatures graph expected.Mrpa_engine.Engine.paths)
            (response_signatures j))
        parity_queries)

let test_router_options () =
  with_fleet (fun router ~graph ~kill:_ ~restart:_ ->
      (* simple restriction matches the engine's. *)
      let options =
        {
          Wire.default_options with
          Wire.max_length = Some 4;
          simple = true;
        }
      in
      let text = "[_,beta,_]* . [_,alpha,_]" in
      let expected =
        Mrpa_engine.Engine.query_exn ~max_length:4 ~simple:true graph text
      in
      let j = expect_ok (Router.handle_line router (query_req ~options text)) in
      Alcotest.(check (list (list (triple string string string))))
        "simple paths"
        (engine_signatures graph expected.Mrpa_engine.Engine.paths)
        (response_signatures j);
      (* limit truncates to a sound subset with a partial:limit verdict. *)
      let options =
        { Wire.default_options with Wire.max_length = Some 4; limit = Some 1 }
      in
      let j =
        expect_ok (Router.handle_line router (query_req ~options "[_,beta,_]"))
      in
      Alcotest.(check (option string))
        "limit verdict" (Some "partial:limit") (result_verdict j);
      Alcotest.(check (option int))
        "limit count" (Some 1)
        (Option.bind (result_member j "count") Json.to_int_opt);
      (* count verb agrees with query verb. *)
      let j =
        expect_ok
          (Router.handle_line router (query_req ~verb:Wire.Count "[_,_,_]"))
      in
      Alcotest.(check (option int))
        "count verb" (Some 7)
        (Option.bind (Json.member "count" j) Json.to_int_opt))

(* The count contract through the router, over a 2-shard partition: the
   count and verdict of each table row, as the engine and the single
   server give them. *)
let test_router_count_contract () =
  with_fleet ~n:2 ~graph:(H.count_graph ()) (fun router ~graph:_ ~kill:_ ~restart:_ ->
      List.iter
        (fun (row : H.count_row) ->
          let name = H.count_row_name row in
          let options =
            {
              Wire.default_options with
              Wire.max_length = Some row.H.c_max_length;
              simple = row.H.c_simple;
              limit = row.H.c_limit;
            }
          in
          let j =
            expect_ok
              (Router.handle_line router
                 (query_req ~verb:Wire.Count ~options row.H.c_query))
          in
          Alcotest.(check (pair (option int) (option string)))
            name
            (Some row.H.c_count, Some row.H.c_verdict)
            (count_of j))
        H.count_rows)

let test_router_query_errors () =
  with_fleet (fun router ~graph:_ ~kill:_ ~restart:_ ->
      (* A name unknown on every shard is the typo the single server's
         parser would catch. *)
      expect_error Wire.Query_error
        (Router.handle_line router (query_req "[nonexistent,alpha,_]"));
      expect_error Wire.Query_error
        (Router.handle_line router (query_req "[i,no_such_label,_]"));
      (* Router-side parse errors. *)
      expect_error Wire.Query_error
        (Router.handle_line router (query_req "[i,alpha,_] ."));
      expect_error Wire.Query_error
        (Router.handle_line router (query_req "unknown_macro"));
      expect_error Wire.Query_error
        (Router.handle_line router (query_req "[i,alpha,_] trailing"));
      (* Unsupported verbs are refused, not silently dropped. *)
      expect_error Wire.Bad_request
        (Router.handle_line router
           (Wire.encode_request
              {
                Wire.id = Json.Null;
                verb = Wire.Sub;
                query = None;
                options = Wire.default_options;
              })))

(* --- Robustness: fault matrix, breaker life cycle, failover -------------- *)

let test_degraded_kill () =
  with_fleet ~tune:fast (fun router ~graph ~kill ~restart:_ ->
      ignore graph;
      (* Healthy first: complete. *)
      let j = expect_ok (Router.handle_line router (query_req "[_,_,_]")) in
      Alcotest.(check (option string))
        "healthy verdict" (Some "complete") (result_verdict j);
      kill "s1";
      let j = expect_ok (Router.handle_line router (query_req "[_,_,_]")) in
      Alcotest.(check (option string))
        "degraded verdict"
        (Some "partial:shard_unavailable")
        (result_verdict j);
      Alcotest.(check (list string)) "missing shard named" [ "s1" ]
        (missing_shards j);
      (* The degraded answer is a sound subset: every returned path exists
         in the full denotation. *)
      let expected =
        Mrpa_engine.Engine.query_exn (H.paper_graph ()) "[_,_,_]"
      in
      let full = engine_signatures (H.paper_graph ()) expected.Mrpa_engine.Engine.paths in
      List.iter
        (fun p ->
          Alcotest.(check bool) "subset of truth" true (List.mem p full))
        (response_signatures j))

let test_breaker_lifecycle () =
  with_fleet ~tune:fast (fun router ~graph:_ ~kill ~restart ->
      let q () = Router.handle_line router (query_req "[_,_,_]") in
      Alcotest.(check (option string))
        "starts closed" (Some "closed")
        (Router.breaker_state router "s0");
      kill "s0";
      (* breaker_failures = 3 consecutive fully-failed dispatches open it. *)
      for _ = 1 to 3 do
        ignore (expect_ok (q ()))
      done;
      Alcotest.(check (option string))
        "opens after the threshold" (Some "open")
        (Router.breaker_state router "s0");
      (* While open, dispatches fail fast: no I/O, the dispatch counter
         still advances, the answer stays sound-degraded. *)
      let before = Router.Fault.dispatches router ~shard:"s0" in
      let j = expect_ok (q ()) in
      Alcotest.(check (option string))
        "fast-fail is still degraded"
        (Some "partial:shard_unavailable")
        (result_verdict j);
      Alcotest.(check int)
        "fast-fail counted" (before + 1)
        (Router.Fault.dispatches router ~shard:"s0");
      (* After the cooldown the breaker half-opens... *)
      Unix.sleepf 0.2;
      Alcotest.(check (option string))
        "half-open after cooldown" (Some "half_open")
        (Router.breaker_state router "s0");
      (* ... and with the shard still down, the probe re-opens it. *)
      ignore (expect_ok (q ()));
      Alcotest.(check (option string))
        "probe failure re-opens" (Some "open")
        (Router.breaker_state router "s0");
      (* Restart the shard; within one probe interval the router is back
         to complete answers. *)
      restart "s0";
      Unix.sleepf 0.2;
      let j = expect_ok (q ()) in
      Alcotest.(check (option string))
        "recovered" (Some "complete") (result_verdict j);
      Alcotest.(check (option string))
        "closed again" (Some "closed")
        (Router.breaker_state router "s0"))

let test_fault_harness () =
  with_fleet ~tune:fast (fun router ~graph:_ ~kill:_ ~restart:_ ->
      let q () = Router.handle_line router (query_req "[_,_,_]") in
      (* Kill from the 2nd dispatch on: first query fine, then degraded. *)
      Router.Fault.arm router ~shard:"s2" Router.Fault.Kill
        ~at:(Router.Fault.dispatches router ~shard:"s2" + 2);
      let j = expect_ok (q ()) in
      Alcotest.(check (option string))
        "before the fault" (Some "complete") (result_verdict j);
      let j = expect_ok (q ()) in
      Alcotest.(check (option string))
        "fault fires deterministically"
        (Some "partial:shard_unavailable")
        (result_verdict j);
      Alcotest.(check (list string)) "names the faulted shard" [ "s2" ]
        (missing_shards j);
      Router.Fault.disarm router ~shard:"s2";
      let j = expect_ok (q ()) in
      Alcotest.(check (option string))
        "disarm restores" (Some "complete") (result_verdict j);
      (* Slow: struggling but alive — still complete. *)
      Router.Fault.arm router ~shard:"s2" (Router.Fault.Slow 30.0) ~at:1;
      let j = expect_ok (q ()) in
      Alcotest.(check (option string))
        "slow shard still complete" (Some "complete") (result_verdict j);
      Router.Fault.disarm router ~shard:"s2")

let test_fault_hang_bounded () =
  with_fleet ~tune:fast (fun router ~graph:_ ~kill:_ ~restart:_ ->
      (* A hung shard burns only its own per-shard deadline
         (shard_timeout_ms = 400), not the whole request, and yields a
         sound degraded answer. *)
      Router.Fault.arm router ~shard:"s0" Router.Fault.Hang ~at:1;
      let t0 = Unix.gettimeofday () in
      let j = expect_ok (Router.handle_line router (query_req "[_,_,_]")) in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check (option string))
        "hang degrades"
        (Some "partial:shard_unavailable")
        (result_verdict j);
      Alcotest.(check bool)
        (Printf.sprintf "bounded by the per-shard deadline (%.1fs)" elapsed)
        true (elapsed < 2.0);
      Router.Fault.disarm router ~shard:"s0")

let test_shard_failover () =
  (* A shard whose endpoint list starts with a dead address still answers
     through its live replica — no degraded verdict at all. *)
  let dir = Filename.temp_file "mrpa_failover" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let live = Filename.concat dir "live.sock" in
  let dead = Filename.concat dir "dead.sock" in
  let map =
    match
      Shardmap.of_string
        (Printf.sprintf "%s\nshard solo unix:%s unix:%s\n" Shardmap.magic dead
           live)
    with
    | Ok m -> m
    | Error e -> Alcotest.failf "map: %s" e
  in
  let shard = start_shard ~socket:live (H.paper_graph ()) in
  let router =
    Router.create
      (fast
         (Router.default_config ~map
            (Wire.Unix_socket (Filename.concat dir "router.sock"))))
  in
  Fun.protect
    ~finally:(fun () ->
      stop_shard shard;
      if Sys.file_exists live then Sys.remove live;
      Unix.rmdir dir)
    (fun () ->
      let j = expect_ok (Router.handle_line router (query_req "[_,_,_]")) in
      Alcotest.(check (option string))
        "replica answers" (Some "complete") (result_verdict j);
      Alcotest.(check (option int))
        "full count" (Some 7)
        (Option.bind (result_member j "count") Json.to_int_opt))

(* --- Router verbs beyond query ------------------------------------------- *)

let test_router_verbs () =
  with_fleet ~tune:fast (fun router ~graph:_ ~kill ~restart:_ ->
      let req verb =
        Wire.encode_request
          { Wire.id = Json.Null; verb; query = None; options = Wire.default_options }
      in
      (* ping is answered locally. *)
      let j = expect_ok (Router.handle_line router (req Wire.Ping)) in
      Alcotest.(check (option bool))
        "pong" (Some true)
        (Option.bind (Json.member "pong" j) Json.to_bool_opt);
      (* health nests per-shard breaker state and the shards' own health
         (including the PR 10 queue_depth/inflight fields). *)
      kill "s2";
      let j = expect_ok (Router.handle_line router (req Wire.Health)) in
      let shards =
        match
          Option.bind (Json.member "health" j) (Json.member "shards")
        with
        | Some (Json.List l) -> l
        | _ -> Alcotest.fail "health without shards"
      in
      Alcotest.(check int) "one entry per shard" 3 (List.length shards);
      List.iter
        (fun s ->
          let name =
            Option.bind (Json.member "name" s) Json.to_string_opt
          in
          let reachable =
            Option.bind (Json.member "reachable" s) Json.to_bool_opt
          in
          match name with
          | Some "s2" ->
            Alcotest.(check (option bool)) "dead unreachable" (Some false)
              reachable
          | Some _ ->
            Alcotest.(check (option bool)) "live reachable" (Some true)
              reachable;
            (match Option.bind (Json.member "health" s) (Json.member "queue_depth") with
            | Some (Json.Number _) -> ()
            | _ -> Alcotest.fail "shard health lacks queue_depth")
          | None -> Alcotest.fail "shard entry without a name")
        shards;
      (* stats: router counters plus a per-shard section (null when dead). *)
      let j = expect_ok (Router.handle_line router (req Wire.Stats)) in
      (match
         Option.bind
           (Option.bind (Json.member "stats" j) (Json.member "counters"))
           (Json.member "router.shards")
       with
      | Some (Json.Number n) -> Alcotest.(check int) "router.shards" 3 (int_of_float n)
      | _ -> Alcotest.fail "stats without router.shards");
      (match Option.bind (Json.member "shards" j) (Json.member "s2") with
      | Some Json.Null -> ()
      | _ -> Alcotest.fail "dead shard should report null stats");
      (* shutdown over TCP is gated. *)
      expect_error Wire.Unauthorized
        (Router.handle_line ~remote:true router (req Wire.Shutdown)))

(* --- The router's own front door ----------------------------------------- *)

(* Serve the fleet's router on its Unix socket (with [front] adjusting
   the session bounds) and hand [f] a function that opens raw
   connections to it. *)
let with_served_router ?(front = fun c -> c) f =
  with_fleet
    ~tune:(fun c -> { c with Router.front = front c.Router.front })
    (fun router ~graph:_ ~kill:_ ~restart:_ ->
      let thread = Thread.create (fun () -> Router.serve router) () in
      let rec socket_path n =
        match Router.bound_endpoint router with
        | Some (Wire.Unix_socket p) -> p
        | _ when n > 0 ->
          Unix.sleepf 0.01;
          socket_path (n - 1)
        | _ -> Alcotest.fail "router never bound"
      in
      let path = socket_path 500 in
      wait_for_socket path;
      let open_raw () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      in
      Fun.protect
        ~finally:(fun () ->
          Router.stop router;
          Thread.join thread)
        (fun () -> f router open_raw))

let with_raw open_raw f =
  let fd = open_raw () in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd (Listener.reader fd))

let write fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* The next response line, within 5 s. *)
let response r =
  match Listener.read_line r ~deadline:(Some (Unix.gettimeofday () +. 5.0)) with
  | Listener.Line line -> line
  | Listener.Eof -> Alcotest.fail "connection closed without a response"
  | Listener.Timed_out -> Alcotest.fail "no response in time"
  | Listener.Too_long -> Alcotest.fail "response too long"

let closed r =
  match Listener.read_line r ~deadline:(Some (Unix.gettimeofday () +. 5.0)) with
  | Listener.Eof -> true
  | _ -> false

let ping_line =
  Wire.encode_request
    {
      Wire.id = Json.Null;
      verb = Wire.Ping;
      query = None;
      options = Wire.default_options;
    }

let router_counter router name =
  let stats =
    Wire.encode_request
      {
        Wire.id = Json.Null;
        verb = Wire.Stats;
        query = None;
        options = Wire.default_options;
      }
  in
  let j = expect_ok (Router.handle_line router stats) in
  Option.bind
    (Option.bind
       (Option.bind (Json.member "stats" j) (Json.member "counters"))
       (Json.member name))
    Json.to_int_opt

let test_router_idle_timeout () =
  with_served_router
    ~front:(fun f -> { f with Listener.idle_timeout_ms = Some 300.0 })
    (fun router open_raw ->
      with_raw open_raw (fun fd r ->
          (* A slowloris client: half a request line, then silence. *)
          write fd "{\"mrpa\"";
          let t0 = Unix.gettimeofday () in
          let farewell = response r in
          let elapsed = Unix.gettimeofday () -. t0 in
          expect_error Wire.Idle_timeout farewell;
          Alcotest.(check bool)
            (Printf.sprintf "within the deadline (%.2fs)" elapsed)
            true (elapsed < 2.0);
          Alcotest.(check bool) "closed after farewell" true (closed r));
      Alcotest.(check (option int))
        "counted" (Some 1)
        (router_counter router "router.idle_timeouts"))

let test_router_blank_flood () =
  with_served_router (fun router open_raw ->
      with_raw open_raw (fun fd r ->
          write fd (String.make 200 '\n');
          expect_error Wire.Bad_request (response r);
          Alcotest.(check bool) "closed after farewell" true (closed r));
      Alcotest.(check (option int))
        "counted" (Some 1)
        (router_counter router "router.blank_floods"))

let test_router_oversized () =
  with_served_router
    ~front:(fun f -> { f with Listener.max_request_bytes = 64 })
    (fun router open_raw ->
      with_raw open_raw (fun fd r ->
          write fd (String.make 200 'x' ^ "\n");
          expect_error Wire.Request_too_large (response r);
          Alcotest.(check bool) "closed after farewell" true (closed r));
      Alcotest.(check (option int))
        "counted" (Some 1)
        (router_counter router "router.oversized_requests"))

let test_router_final_unterminated_line () =
  with_served_router (fun _router open_raw ->
      with_raw open_raw (fun fd r ->
          (* The last request has no newline: EOF terminates it. *)
          write fd ping_line;
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          let j = expect_ok (response r) in
          Alcotest.(check (option bool))
            "pong" (Some true)
            (Option.bind (Json.member "pong" j) Json.to_bool_opt)))

(* An integer literal past [max_int] is a query error at its offset; the
   session survives it. *)
let test_router_overlong_integer () =
  with_served_router (fun _router open_raw ->
      with_raw open_raw (fun fd r ->
          write fd (query_req "[99999999999999999999,_,_]" ^ "\n");
          expect_error Wire.Query_error (response r);
          write fd (ping_line ^ "\n");
          ignore (expect_ok (response r))))

(* --- Satellite 1: the failover client rotates past a dead endpoint ------- *)

let test_client_failover_rotates () =
  let dir = Filename.temp_file "mrpa_rotate" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let live = Filename.concat dir "live.sock" in
  let dead = Filename.concat dir "dead.sock" in
  let shard = start_shard ~socket:live (H.paper_graph ()) in
  Fun.protect
    ~finally:(fun () ->
      stop_shard shard;
      if Sys.file_exists live then Sys.remove live;
      Unix.rmdir dir)
    (fun () ->
      let slept = ref 0 in
      let req =
        {
          Wire.id = Json.Null;
          verb = Wire.Ping;
          query = None;
          options = Wire.default_options;
        }
      in
      (* retries = 0, dead endpoint first: the attempt floor is one full
         cycle, so the live standby still answers — with no backoff sleep
         charged (backoff is per completed cycle). *)
      match
        Client.request_failover ~policy:Client.no_retry
          ~sleep:(fun _ -> incr slept)
          [ Wire.Unix_socket dead; Wire.Unix_socket live ]
          req
      with
      | Error m -> Alcotest.failf "failover gave up too early: %s" m
      | Ok line ->
        ignore (expect_ok line);
        Alcotest.(check int) "no backoff inside the first cycle" 0 !slept)

(* --- The router against the engine --------------------------------------- *)

let engine_plan graph ~simple ~max_length text =
  Mrpa_engine.Optimizer.plan ~simple ~max_length graph
    (Mrpa_engine.Parser.parse_exn graph text)

(* One request through the router and through the engine on the whole
   graph, as a single server runs it: the counts, verdicts and (short of a
   limit, which may keep different paths) the path sets agree. *)
let check_against_engine router graph ~verb (o : Wire.options) text =
  let name =
    Printf.sprintf "%s %s max_length=%d%s%s" (Wire.verb_name verb) text
      (Option.get o.Wire.max_length)
      (if o.Wire.simple then " simple" else "")
      (match o.Wire.limit with Some k -> Printf.sprintf " limit=%d" k | None -> "")
  in
  let plan =
    engine_plan graph ~simple:o.Wire.simple
      ~max_length:(Option.get o.Wire.max_length) text
  in
  let j = expect_ok (Router.handle_line router (query_req ~verb ~options:o text)) in
  match verb with
  | Wire.Count ->
    let n, v = Mrpa_engine.Engine.count_plan ?limit:o.Wire.limit graph plan in
    Alcotest.(check (pair (option int) (option string)))
      name
      (Some n, Some (Mrpa_engine.Err.verdict_name v))
      (count_of j)
  | _ ->
    let r = Mrpa_engine.Engine.query_plan ?limit:o.Wire.limit graph plan in
    let verdict = Mrpa_engine.Err.verdict_name r.Mrpa_engine.Engine.verdict in
    Alcotest.(check (option string)) (name ^ " verdict") (Some verdict)
      (result_verdict j);
    let got = response_signatures j in
    if verdict = "partial:limit" then begin
      let full =
        engine_signatures graph
          (Mrpa_engine.Engine.query_plan graph plan).Mrpa_engine.Engine.paths
      in
      Alcotest.(check int) (name ^ " count")
        (Path_set.cardinal r.Mrpa_engine.Engine.paths)
        (List.length (List.sort_uniq compare got));
      List.iter
        (fun p -> Alcotest.(check bool) (name ^ " sound") true (List.mem p full))
        got
    end
    else
      Alcotest.(check (list (list (triple string string string))))
        (name ^ " paths")
        (engine_signatures graph r.Mrpa_engine.Engine.paths)
        got

(* A random graph over 1-3 shards, and a few random expressions each run
   under a few option sets through both verbs. *)
let differential_gen =
  QCheck2.Gen.(
    let* recipe = H.recipe_gen in
    let* seeds = list_size (return 3) (int_bound 1_000_000) in
    let* n = int_range 1 3 in
    let* options =
      list_size (return 2)
        (triple (int_range 1 4) bool (option (int_range 0 6)))
    in
    return (recipe, seeds, n, options))

let print_differential (recipe, seeds, n, options) =
  Printf.sprintf "%s seeds=[%s] shards=%d options=[%s]" (H.print_recipe recipe)
    (String.concat ";" (List.map string_of_int seeds))
    n
    (String.concat "; "
       (List.map
          (fun (m, s, l) ->
            Printf.sprintf "max_length=%d simple=%b limit=%s" m s
              (match l with Some k -> string_of_int k | None -> "-"))
          options))

let qcheck_router_equals_engine =
  H.qtest ~count:40 "router equals engine on random queries" differential_gen
    print_differential (fun (recipe, seeds, n, options) ->
      let graph = H.graph_of_recipe recipe in
      with_fleet ~n ~graph (fun router ~graph ~kill:_ ~restart:_ ->
          List.iter
            (fun seed ->
              let text =
                Mrpa_engine.Unparse.expr graph
                  (H.random_expr (Mrpa_graph.Prng.create seed) graph)
              in
              List.iter
                (fun (max_length, simple, limit) ->
                  let o =
                    {
                      Wire.default_options with
                      Wire.max_length = Some max_length;
                      simple;
                      limit;
                    }
                  in
                  List.iter
                    (fun verb -> check_against_engine router graph ~verb o text)
                    [ Wire.Query; Wire.Count ])
                options)
            seeds);
      true)

(* Every shard knows every label, so a shard that owns no edge of a label
   answers an atom naming it with nothing rather than an error that used
   to drop the shard's other matches. *)
let label_fault_graph () =
  let g = Mrpa_graph.Digraph.create () in
  List.iter
    (fun (t, l, h) -> ignore (Mrpa_graph.Digraph.add g t l h))
    [
      ("v3", "r0", "v3"); ("v3", "r2", "v0"); ("v1", "r0", "v1");
      ("v3", "r1", "v2"); ("v0", "r1", "v2"); ("v1", "r2", "v2");
      ("v2", "r0", "v3"); ("v1", "r1", "v3"); ("v1", "r2", "v3");
      ("v3", "r2", "v2"); ("v3", "r0", "v1"); ("v1", "r1", "v0");
      ("v0", "r2", "v3"); ("v3", "r2", "v1");
    ];
  g

let test_router_label_universe () =
  with_fleet ~graph:(label_fault_graph ()) (fun router ~graph ~kill:_ ~restart:_ ->
      let o = { Wire.default_options with Wire.max_length = Some 3 } in
      let j =
        expect_ok
          (Router.handle_line router
             (query_req ~verb:Wire.Count ~options:o "[_,{r0,r2},_]"))
      in
      Alcotest.(check (pair (option int) (option string)))
        "every r0/r2 edge" (Some 10, Some "complete") (count_of j);
      List.iter
        (fun verb ->
          check_against_engine router graph ~verb o "[_,{r0,r2},_]* . E")
        [ Wire.Query; Wire.Count ])

(* A shard graph rebuilt from its vertices and edges alone, as a part
   saved before label directives is (or a journal compacted before label
   records): it knows only the labels it owns an edge of. *)
let edges_only_partition map g =
  let module D = Mrpa_graph.Digraph in
  Array.map
    (fun part ->
      let g' = D.create () in
      List.iter
        (fun v -> ignore (D.vertex g' (D.vertex_name part v)))
        (D.vertices part);
      D.iter_edges
        (fun e ->
          let open Mrpa_graph.Edge in
          ignore
            (D.add g'
               (D.vertex_name part (tail e))
               (D.label_name part (label e))
               (D.vertex_name part (head e))))
        part;
      g')
    (Shardmap.partition map g)

(* On such a fleet a shard rejects an atom naming a label it owns no edge
   of. For a name set or a complement that hides the shard's other
   matches, so the answer is a flagged subset, never complete; a single
   name hides nothing. *)
let test_router_label_unknown_on_a_shard () =
  with_fleet ~graph:(label_fault_graph ()) ~partition:edges_only_partition
    (fun router ~graph ~kill:_ ~restart:_ ->
      let count text =
        let j =
          expect_ok
            (Router.handle_line router (query_req ~verb:Wire.Count text))
        in
        (count_of j, missing_shards j)
      in
      let engine_count text =
        fst
          (Mrpa_engine.Engine.count_plan graph
             (engine_plan graph ~simple:false ~max_length:8 text))
      in
      Alcotest.(check (pair (pair (option int) (option string)) (list string)))
        "a single name: complete"
        ((Some (engine_count "[_,r0,_]"), Some "complete"), [])
        (count "[_,r0,_]");
      List.iter
        (fun text ->
          let (n, verdict), missing = count text in
          Alcotest.(check (option string))
            (text ^ " is flagged") (Some "partial:shard_unavailable") verdict;
          Alcotest.(check bool)
            (text ^ " names s1 missing") true (List.mem "s1" missing);
          Alcotest.(check bool)
            (text ^ " is a subset") true
            (Option.get n < engine_count text))
        [ "[_,{r0,r2},_]"; "[_,!r0,_]" ];
      let j = expect_ok (Router.handle_line router (query_req "[_,!r0,_]")) in
      Alcotest.(check (option string))
        "query verb too" (Some "partial:shard_unavailable") (result_verdict j);
      (* v0's frontier {v2} holds no v3, so the second atom is never sent
         and its names go to the lint rounds. s1 rejects r0, which other
         shards know, and is asked again about the names after it. *)
      let text = "[v0,r1,_] . ([v3,r0,_] | [v3,r2,_])" in
      Alcotest.(check (pair (pair (option int) (option string)) (list string)))
        "a name some shard knows is no typo"
        ((Some (engine_count text), Some "complete"), [])
        (count text);
      let text = "[v0,r1,_] . ([v3,r0,_] | [v3,zz,_])" in
      let line = Router.handle_line router (query_req ~verb:Wire.Count text) in
      expect_error Wire.Query_error line;
      Alcotest.(check (option string))
        "the typo after a name s1 lacks"
        (match Mrpa_engine.Parser.parse graph text with
        | Error e -> Some (Format.asprintf "%a" Mrpa_engine.Parser.pp_error e)
        | Ok _ -> None)
        (Option.bind
           (Option.bind
              (Json.member "error" (parse_resp line))
              (Json.member "message"))
           Json.to_string_opt))

(* Each shard as a journal-backed shard rebuilds its graph: the part
   compacted into a fresh journal, then replayed. *)
let journal_partition map g =
  let module J = Mrpa_graph.Journal in
  Array.map
    (fun part ->
      let path = Filename.temp_file "mrpa_shard" ".log" in
      Sys.remove path;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let j = J.attach ~replay_existing:false part path in
          J.compact j;
          J.close j;
          J.replay path))
    (Shardmap.partition map g)

(* Compaction writes a label record for every label that carries no edge,
   so a journal-backed shard knows the whole label universe and a name
   set or complement answers complete. *)
let test_router_journal_labels () =
  with_fleet ~graph:(label_fault_graph ()) ~partition:journal_partition
    (fun router ~graph ~kill:_ ~restart:_ ->
      List.iter
        (fun text ->
          let j =
            expect_ok
              (Router.handle_line router (query_req ~verb:Wire.Count text))
          in
          let expected =
            fst
              (Mrpa_engine.Engine.count_plan graph
                 (engine_plan graph ~simple:false ~max_length:8 text))
          in
          Alcotest.(check (pair (option int) (option string)))
            text
            (Some expected, Some "complete")
            (count_of j))
        [ "[_,{r0,r2},_]"; "[_,!r0,_]" ])

(* A name in an atom the gather never sends (its frontier narrows to
   nothing, or it sits in an unused macro) is still checked, so a typo is
   the single server's query error: the first unknown name, in the order
   the parser resolves them. The unsent names cost one [lint] per shard,
   however many there are, and a name the gather confirmed costs none. *)
let test_router_unsent_names () =
  let ring = Mrpa_graph.Generate.ring ~n:12 ~n_labels:3 in
  with_fleet ~graph:ring (fun router ~graph ~kill:_ ~restart:_ ->
      let count text =
        Router.handle_line router (query_req ~verb:Wire.Count text)
      in
      List.iter
        (fun text ->
          let line = count text in
          expect_error Wire.Query_error line;
          let error =
            Option.bind
              (Option.bind
                 (Json.member "error" (parse_resp line))
                 (Json.member "message"))
              Json.to_string_opt
          in
          let expected =
            match Mrpa_engine.Parser.parse graph text with
            | Error e ->
              Format.asprintf "%a" Mrpa_engine.Parser.pp_error e
            | Ok _ -> Alcotest.failf "%s parses on the whole graph" text
          in
          Alcotest.(check (option string)) text (Some expected) error)
        [
          "[v0,_,_] . [nosuch,_,_]";
          "[v0,_,_] . [_,nolabel,_]";
          "let m = [nosuch,_,_] in [v0,_,_]";
          "[v0,_,_] . [{v5,nosuch},_,_]";
          "[v0,_,_] . ([v5,_,_] | [nosuch,_,_] | [_,nolabel,_])";
          "let m = [_,nolabel,_] in [v0,_,_] . [nosuch,_,_]";
        ];
      let sent () =
        List.fold_left
          (fun n s -> n + Router.Fault.dispatches router ~shard:s)
          0 [ "s0"; "s1"; "s2" ]
      in
      let dispatches text =
        let before = sent () in
        Alcotest.(check (pair (option int) (option string)))
          text
          (Some
             (fst
                (Mrpa_engine.Engine.count_plan graph
                   (engine_plan graph ~simple:false ~max_length:8 text))),
           Some "complete")
          (count_of (expect_ok (count text)));
        sent () - before
      in
      let gather = dispatches "[v0,_,_]" in
      Alcotest.(check int) "v0 confirmed by its own atom" gather
        (dispatches "[v0,_,_] . [v0,_,_]");
      Alcotest.(check int) "three unsent names: one lint on each of 3 shards"
        (gather + 3)
        (dispatches "[v0,_,_] . [{v5,v6},_,_] . [_,r1,_]"))

(* A request whose deadline has passed sends no name check: the unsent
   names stay unchecked, the answer is [partial:deadline], no shard is
   counted missing and no breaker is charged. *)
let test_router_unsent_names_past_deadline () =
  let ring = Mrpa_graph.Generate.ring ~n:12 ~n_labels:3 in
  let shards = [ "s0"; "s1"; "s2" ] in
  with_fleet ~graph:ring (fun router ~graph:_ ~kill:_ ~restart:_ ->
      let sent () =
        List.map (fun s -> Router.Fault.dispatches router ~shard:s) shards
      in
      let before = sent () in
      let options = { Wire.default_options with Wire.deadline_ms = Some 0.0 } in
      for _ = 1 to 3 do
        let j =
          expect_ok
            (Router.handle_line router
               (query_req ~verb:Wire.Count ~options
                  "[v0,_,_] . [nosuch1,_,_] . [nosuch2,_,_] . [_,nolabel,_]"))
        in
        Alcotest.(check (option string))
          "verdict" (Some "partial:deadline") (snd (count_of j));
        Alcotest.(check (list string)) "no missing shard" [] (missing_shards j)
      done;
      Alcotest.(check (list int)) "nothing dispatched" before (sent ());
      List.iter
        (fun s ->
          Alcotest.(check (option string))
            s (Some "closed") (Router.breaker_state router s))
        shards)

(* A count whose live-path budget trips is the engine's count under the
   same budget: the budget governs the engine run, not the shard fetches. *)
let test_router_count_memory () =
  let ring = Mrpa_graph.Generate.ring ~n:12 ~n_labels:3 in
  with_fleet ~graph:ring (fun router ~graph ~kill:_ ~restart:_ ->
      let text = "E*" and max_length = 8 and max_paths = 2 in
      let n, v =
        Mrpa_engine.Engine.count_plan
          ~budget:(Mrpa_engine.Budget.create ~max_live:max_paths ())
          graph
          (engine_plan graph ~simple:false ~max_length text)
      in
      Alcotest.(check string) "the budget trips" "partial:memory"
        (Mrpa_engine.Err.verdict_name v);
      let o =
        {
          Wire.default_options with
          Wire.max_length = Some max_length;
          max_paths = Some max_paths;
        }
      in
      let j =
        expect_ok
          (Router.handle_line router (query_req ~verb:Wire.Count ~options:o text))
      in
      Alcotest.(check (pair (option int) (option string)))
        "engine count under the budget"
        (Some n, Some "partial:memory")
        (count_of j))

(* An anchored star fetches the frontier it reaches, not its whole label:
   the deterministic work counter behind the routed workload's gain. *)
let test_router_gathers_reachable () =
  let graph =
    Mrpa_graph.Generate.fig1 ~rng:(Mrpa_graph.Prng.create 7)
      ~n_noise_vertices:200 ~n_noise_edges:600
  in
  let beta =
    Mrpa_graph.Digraph.n_edges_with_label graph
      (Mrpa_graph.Digraph.label graph "beta")
  in
  with_fleet ~n:2 ~graph (fun router ~graph ~kill:_ ~restart:_ ->
      let text = "[n16,alpha,_] . [_,beta,_]*" in
      let o = { Wire.default_options with Wire.max_length = Some 3 } in
      let before = Option.get (router_counter router "router.edges_gathered") in
      check_against_engine router graph ~verb:Wire.Query o text;
      let gathered =
        Option.get (router_counter router "router.edges_gathered") - before
      in
      let out l =
        Mrpa_graph.Digraph.successors graph
          ~label:(Mrpa_graph.Digraph.label graph l)
          (Mrpa_graph.Digraph.vertex graph "n16")
      in
      Alcotest.(check bool) "the anchor has alpha and beta out-edges" true
        (out "alpha" <> [] && out "beta" <> []);
      Alcotest.(check bool)
        (Printf.sprintf "%d edges gathered, under 10%% of %d beta edges"
           gathered beta)
        true
        (gathered * 10 < beta))

let () =
  Alcotest.run "router"
    [
      ( "shardmap",
        [
          Alcotest.test_case "parse and roundtrip" `Quick test_shardmap_parse;
          Alcotest.test_case "malformed maps" `Quick test_shardmap_errors;
          Alcotest.test_case "partition soundness" `Quick
            test_shardmap_partition;
        ] );
      ( "parity",
        [
          Alcotest.test_case "router equals engine" `Quick test_router_parity;
          Alcotest.test_case "options: simple, limit, count" `Quick
            test_router_options;
          Alcotest.test_case "query errors" `Quick test_router_query_errors;
          Alcotest.test_case "count contract" `Quick
            test_router_count_contract;
          Alcotest.test_case "every shard knows every label" `Quick
            test_router_label_universe;
          Alcotest.test_case "a shard that lacks a label" `Quick
            test_router_label_unknown_on_a_shard;
          Alcotest.test_case "journal-backed shards know every label" `Quick
            test_router_journal_labels;
          Alcotest.test_case "typos in atoms never sent" `Quick
            test_router_unsent_names;
          Alcotest.test_case "no name check past the deadline" `Quick
            test_router_unsent_names_past_deadline;
          Alcotest.test_case "count under a live-path budget" `Quick
            test_router_count_memory;
          Alcotest.test_case "anchored star gathers its frontier" `Quick
            test_router_gathers_reachable;
          qcheck_router_equals_engine;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "kill one shard: sound degraded answer" `Quick
            test_degraded_kill;
          Alcotest.test_case "breaker open/half-open/closed" `Quick
            test_breaker_lifecycle;
          Alcotest.test_case "deterministic fault harness" `Quick
            test_fault_harness;
          Alcotest.test_case "hung shard burns only its own deadline" `Quick
            test_fault_hang_bounded;
          Alcotest.test_case "per-shard endpoint failover" `Quick
            test_shard_failover;
        ] );
      ( "verbs",
        [ Alcotest.test_case "ping/health/stats/shutdown" `Quick test_router_verbs ] );
      ( "front door",
        [
          Alcotest.test_case "half line gets idle_timeout" `Quick
            test_router_idle_timeout;
          Alcotest.test_case "blank flood closes" `Quick
            test_router_blank_flood;
          Alcotest.test_case "over-cap line" `Quick test_router_oversized;
          Alcotest.test_case "final unterminated line answered" `Quick
            test_router_final_unterminated_line;
          Alcotest.test_case "overlong integer is a query error" `Quick
            test_router_overlong_integer;
        ] );
      ( "client",
        [
          Alcotest.test_case "failover rotates past a dead endpoint" `Quick
            test_client_failover_rotates;
        ] );
    ]
