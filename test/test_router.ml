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
   if [f] kills some of it first. *)
let with_fleet ?(n = 3) ?(graph = H.paper_graph ()) ?(tune = fun c -> c) f =
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
  let parts = Shardmap.partition map graph in
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
      Hashtbl.iter (fun _ s -> stop_shard s) shards;
      Array.iteri (fun _ _ -> ()) parts;
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
      (* A complemented label on a shard that has never seen the name is
         refused (conservatively sound) rather than silently under-
         reported: shard s0 owns no alpha edges, and its vacuously-true
         complement would otherwise come back as a fake-empty answer. *)
      expect_error Wire.Query_error
        (Router.handle_line router (query_req "[_,!alpha,_]"));
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
      (match Option.bind (Json.member "stats" j) (Json.member "router.shards") with
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
    (Option.bind (Json.member "stats" j) (Json.member name))
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
