(* Tests for the mrpa_server subsystem: the hand-rolled JSON codec, the
   mrpa.wire/1 protocol (decode / encode / clamp), the bounded worker pool,
   frozen snapshots, concurrent-read soundness of shared snapshots, and an
   end-to-end client/server round trip over a Unix-domain socket. *)

open Mrpa_graph
open Mrpa_core
open Mrpa_engine
open Mrpa_server
module H = Helpers

(* --- Json --------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "hi");
        ("n", Json.Number 3.0);
        ("f", Json.Number 2.5);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("l", Json.List [ Json.Number 1.0; Json.String "x"; Json.Bool false ]);
        ("o", Json.Obj [ ("nested", Json.List []) ]);
      ]
  in
  let s = Json.to_string doc in
  (match Json.parse s with
  | Ok doc' -> Alcotest.(check bool) "roundtrip" true (doc = doc')
  | Error m -> Alcotest.failf "reparse failed: %s" m);
  Alcotest.(check string) "integral number prints without decimal point" "3"
    (Json.to_string (Json.Number 3.0));
  Alcotest.(check string) "fractional number keeps its fraction" "2.5"
    (Json.to_string (Json.Number 2.5))

let test_json_escapes () =
  (match Json.parse {|"a\nb\t\"\\\u0041\u00e9"|} with
  | Ok (Json.String s) ->
    Alcotest.(check string) "escapes decode" "a\nb\t\"\\A\xc3\xa9" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error m -> Alcotest.failf "parse failed: %s" m);
  (* surrogate pair: U+1F600 -> 4-byte UTF-8 *)
  match Json.parse {|"\ud83d\ude00"|} with
  | Ok (Json.String s) ->
    Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error m -> Alcotest.failf "surrogate parse failed: %s" m

let test_json_errors () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "expected parse error for %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "{\"a\":1,}";
  bad "[1 2]";
  bad "\"unterminated";
  bad "01";
  bad "true false";
  (* trailing garbage *)
  bad "nul";
  bad "{\"a\" 1}"

let test_json_accessors () =
  match Json.parse {|{"a": 4, "b": "x", "c": true, "d": 1.5}|} with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok j ->
    Alcotest.(check (option int)) "int member" (Some 4)
      (Option.bind (Json.member "a" j) Json.to_int_opt);
    Alcotest.(check (option string)) "string member" (Some "x")
      (Option.bind (Json.member "b" j) Json.to_string_opt);
    Alcotest.(check (option bool)) "bool member" (Some true)
      (Option.bind (Json.member "c" j) Json.to_bool_opt);
    Alcotest.(check bool) "non-integral float is not an int" true
      (Option.bind (Json.member "d" j) Json.to_int_opt = None);
    Alcotest.(check bool) "absent member" true (Json.member "zz" j = None)

(* --- Wire --------------------------------------------------------------- *)

let test_wire_decode () =
  let line =
    {|{"mrpa":"mrpa.wire/1","id":7,"verb":"query","query":"[i,alpha,_]",|}
    ^ {|"options":{"strategy":"bfs","limit":10,"max_length":4,"simple":true,|}
    ^ {|"deadline_ms":250,"fuel":1000,"max_paths":50}}|}
  in
  match Wire.decode_request line with
  | Error m -> Alcotest.failf "decode failed: %s" m
  | Ok r ->
    Alcotest.(check string) "verb" "query" (Wire.verb_name r.Wire.verb);
    Alcotest.(check (option string)) "query" (Some "[i,alpha,_]") r.Wire.query;
    let o = r.Wire.options in
    Alcotest.(check (option int)) "limit" (Some 10) o.Wire.limit;
    Alcotest.(check (option int)) "max_length" (Some 4) o.Wire.max_length;
    Alcotest.(check bool) "simple" true o.Wire.simple;
    Alcotest.(check (option int)) "fuel" (Some 1000) o.Wire.fuel;
    Alcotest.(check (option int)) "max_paths" (Some 50) o.Wire.max_paths;
    Alcotest.(check bool) "deadline" true (o.Wire.deadline_ms = Some 250.0);
    Alcotest.(check bool) "id echoed" true (r.Wire.id = Json.Number 7.0)

let test_wire_decode_errors () =
  let bad line frag =
    match Wire.decode_request line with
    | Ok _ -> Alcotest.failf "expected decode error for %s" line
    | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %s" frag)
        true
        (let lm = String.lowercase_ascii m in
         let lf = String.lowercase_ascii frag in
         let n = String.length lf in
         let rec scan i =
           i + n <= String.length lm
           && (String.sub lm i n = lf || scan (i + 1))
         in
         scan 0)
  in
  bad "not json" "bad json";
  bad {|{"verb":"ping"}|} "version";
  bad {|{"mrpa":"mrpa.wire/2","verb":"ping"}|} "version";
  bad {|{"mrpa":"mrpa.wire/1"}|} "verb";
  bad {|{"mrpa":"mrpa.wire/1","verb":"frobnicate"}|} "unknown verb";
  bad {|{"mrpa":"mrpa.wire/1","verb":"query"}|} "query";
  bad
    {|{"mrpa":"mrpa.wire/1","verb":"query","query":"x","options":{"limit":"ten"}}|}
    "limit";
  bad
    {|{"mrpa":"mrpa.wire/1","verb":"query","query":"x","options":{"fuel":-1}}|}
    "fuel";
  bad {|{"mrpa":"mrpa.wire/1","verb":"ping","options":3}|} "options"

let test_wire_roundtrip () =
  let r =
    {
      Wire.id = Json.Number 42.0;
      verb = Wire.Count;
      query = Some "[i,alpha,_]*";
      options =
        {
          Wire.default_options with
          limit = Some 5;
          simple = true;
          deadline_ms = Some 100.0;
        };
    }
  in
  match Wire.decode_request (Wire.encode_request r) with
  | Ok r' -> Alcotest.(check bool) "encode/decode roundtrip" true (r = r')
  | Error m -> Alcotest.failf "roundtrip failed: %s" m

let test_wire_clamp () =
  let limits =
    {
      Wire.max_deadline_ms = Some 500.0;
      max_fuel = Some 10_000;
      max_live_paths = None;
      max_limit = Some 100;
      max_length_cap = 6;
      min_staleness_ms = None;
    }
  in
  (* unset requests inherit the server ceiling *)
  let o = Wire.clamp limits Wire.default_options in
  Alcotest.(check bool) "deadline inherited" true (o.Wire.deadline_ms = Some 500.0);
  Alcotest.(check (option int)) "fuel inherited" (Some 10_000) o.Wire.fuel;
  Alcotest.(check (option int)) "limit inherited" (Some 100) o.Wire.limit;
  Alcotest.(check (option int)) "no max_paths ceiling" None o.Wire.max_paths;
  Alcotest.(check (option int)) "max_length defaults under cap" (Some 6)
    o.Wire.max_length;
  (* a greedy request is capped *)
  let greedy =
    {
      Wire.default_options with
      deadline_ms = Some 9_999.0;
      fuel = Some 1_000_000;
      limit = Some 5_000;
      max_length = Some 32;
    }
  in
  let o = Wire.clamp limits greedy in
  Alcotest.(check bool) "deadline capped" true (o.Wire.deadline_ms = Some 500.0);
  Alcotest.(check (option int)) "fuel capped" (Some 10_000) o.Wire.fuel;
  Alcotest.(check (option int)) "limit capped" (Some 100) o.Wire.limit;
  Alcotest.(check (option int)) "max_length capped" (Some 6) o.Wire.max_length;
  (* a modest request passes through *)
  let modest =
    { Wire.default_options with fuel = Some 10; max_length = Some 2 }
  in
  let o = Wire.clamp limits modest in
  Alcotest.(check (option int)) "modest fuel kept" (Some 10) o.Wire.fuel;
  Alcotest.(check (option int)) "modest max_length kept" (Some 2)
    o.Wire.max_length

let test_wire_responses () =
  let ok = Wire.response_ok ~id:(Json.Number 1.0) [ ("pong", "true") ] in
  (match Json.parse ok with
  | Ok j ->
    Alcotest.(check (option bool)) "ok:true" (Some true)
      (Option.bind (Json.member "ok" j) Json.to_bool_opt);
    Alcotest.(check (option bool)) "payload" (Some true)
      (Option.bind (Json.member "pong" j) Json.to_bool_opt);
    Alcotest.(check (option string)) "version" (Some Wire.version)
      (Option.bind (Json.member "mrpa" j) Json.to_string_opt)
  | Error m -> Alcotest.failf "ok response is not JSON: %s" m);
  let err =
    Wire.response_error ~id:Json.Null ~code:Wire.Overloaded "queue full"
  in
  match Json.parse err with
  | Ok j ->
    Alcotest.(check (option bool)) "ok:false" (Some false)
      (Option.bind (Json.member "ok" j) Json.to_bool_opt);
    Alcotest.(check (option string)) "code" (Some "overloaded")
      (Option.bind (Json.member "error" j) (fun e ->
           Option.bind (Json.member "code" e) Json.to_string_opt))
  | Error m -> Alcotest.failf "error response is not JSON: %s" m

(* --- Pool --------------------------------------------------------------- *)

let test_pool_runs_jobs () =
  let pool = Pool.create ~workers:3 ~queue_capacity:16 in
  let count = Atomic.make 0 in
  for _ = 1 to 10 do
    Alcotest.(check bool) "accepted" true
      (Pool.submit pool (fun () -> Atomic.incr count))
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "all jobs ran" 10 (Atomic.get count)

let test_pool_overload () =
  let pool = Pool.create ~workers:1 ~queue_capacity:2 in
  let gate = Mutex.create () in
  let release = Condition.create () in
  let released = ref false in
  let blocker () =
    Mutex.lock gate;
    while not !released do
      Condition.wait release gate
    done;
    Mutex.unlock gate
  in
  (* occupy the single worker... *)
  Alcotest.(check bool) "blocker accepted" true (Pool.submit pool blocker);
  (* give the worker a beat to pick the blocker up, then fill the queue *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  while Pool.running pool = 0 && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Alcotest.(check int) "worker busy" 1 (Pool.running pool);
  Alcotest.(check bool) "queued 1" true (Pool.submit pool (fun () -> ()));
  Alcotest.(check bool) "queued 2" true (Pool.submit pool (fun () -> ()));
  (* ...and the queue is now full: explicit backpressure *)
  Alcotest.(check bool) "overloaded" false (Pool.submit pool (fun () -> ()));
  Alcotest.(check int) "two waiting" 2 (Pool.queued pool);
  Mutex.lock gate;
  released := true;
  Condition.broadcast release;
  Mutex.unlock gate;
  Pool.shutdown pool;
  Alcotest.(check int) "drained" 0 (Pool.queued pool)

let test_pool_shutdown_drains () =
  let pool = Pool.create ~workers:2 ~queue_capacity:32 in
  let count = Atomic.make 0 in
  for _ = 1 to 20 do
    ignore (Pool.submit pool (fun () -> Atomic.incr count))
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "queued jobs ran before exit" 20 (Atomic.get count);
  Alcotest.(check bool) "refused after shutdown" false
    (Pool.submit pool (fun () -> ()))

let test_pool_survives_raising_job () =
  let pool = Pool.create ~workers:1 ~queue_capacity:8 in
  let ran = Atomic.make false in
  ignore (Pool.submit pool (fun () -> failwith "boom"));
  ignore (Pool.submit pool (fun () -> Atomic.set ran true));
  Pool.shutdown pool;
  Alcotest.(check bool) "later job still ran" true (Atomic.get ran);
  Alcotest.(check int) "error counted" 1 (Pool.job_errors pool)

let test_pool_rejects_bad_geometry () =
  Alcotest.check_raises "zero workers"
    (Invalid_argument "Pool.create: workers must be >= 1") (fun () ->
      ignore (Pool.create ~workers:0 ~queue_capacity:4));
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Pool.create: queue_capacity must be >= 1") (fun () ->
      ignore (Pool.create ~workers:1 ~queue_capacity:0))

(* --- Snapshot ----------------------------------------------------------- *)

let test_snapshot_freezes_copy () =
  let g = H.paper_graph () in
  let snap = Snapshot.of_graph g in
  let fg = Snapshot.graph snap in
  Alcotest.(check bool) "frozen" true (Digraph.is_frozen fg);
  Alcotest.(check int) "same edges" (Digraph.n_edges g) (Digraph.n_edges fg);
  (* mutation on the snapshot raises... *)
  Alcotest.(check bool) "add raises" true
    (match Digraph.add fg "new" "r" "new2" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* ...unknown-name interning raises too (it would mutate the interner) *)
  Alcotest.(check bool) "unknown vertex raises" true
    (match Digraph.vertex fg "nope" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* known names still resolve on the frozen graph *)
  Alcotest.(check bool) "known vertex resolves" true
    (Option.is_some (Digraph.find_vertex fg "i"));
  (* the original stays live and independent *)
  ignore (Digraph.add g "x" "gamma" "y");
  Alcotest.(check bool) "original still mutable" true
    (Digraph.n_edges g = Digraph.n_edges fg + 1)

let test_snapshot_queryable () =
  let snap = Snapshot.of_graph (H.paper_graph ()) in
  match Engine.query (Snapshot.graph snap) "[i,alpha,_]" with
  | Ok r ->
    Alcotest.(check int) "two alpha edges from i" 2
      (Path_set.cardinal r.Engine.paths)
  | Error m -> Alcotest.failf "query failed: %s" m

(* Republishing costs one structural copy of the graph plus its profile:
   no edge re-inserted, no name re-interned, no second pass to freeze.
   Minor-heap words allocated per edge by [Snapshot.of_graph]
   ([Gc.minor_words] is exact; the few large arrays that go straight to
   the major heap are per table, not per edge), on a 5k-person social
   graph and a 20k-person one built from four 5k-person draws with
   renamed vertices. The bound is this code's figure plus 10%;
   copy-then-freeze with hashtable profiling allocated about 90. *)
let republish_words_per_edge = 23.3

let allocated_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_republish_allocation () =
  let draw seed =
    Generate.social ~rng:(Prng.create seed) ~n_people:5_000 ~n_orgs:250
      ~n_projects:500
  in
  let small = draw 1 in
  let large = Digraph.copy small in
  for k = 2 to 4 do
    let h = draw k in
    let name v = Printf.sprintf "c%d.%s" k (Digraph.vertex_name h v) in
    Digraph.iter_edges
      (fun e ->
        ignore
          (Digraph.add large (name (Edge.tail e))
             (Digraph.label_name h (Edge.label e))
             (name (Edge.head e))))
      h
  done;
  List.iter
    (fun g ->
      let per_edge =
        allocated_words (fun () -> Snapshot.of_graph g)
        /. float_of_int (Digraph.n_edges g)
      in
      let what =
        Printf.sprintf "%d edges: %.1f words per edge, bound %.1f"
          (Digraph.n_edges g) per_edge (1.1 *. republish_words_per_edge)
      in
      Alcotest.(check bool) what true
        (per_edge <= 1.1 *. republish_words_per_edge))
    [ small; large ]

(* --- Concurrent-read soundness (satellite 3) ----------------------------- *)

(* The thread-safety contract under test: any number of domains may query
   one frozen snapshot concurrently and every one of them computes exactly
   the single-threaded denotation. *)

let queries =
  [
    "[i,alpha,_]";
    "[i,alpha,_] . [_,beta,_]";
    "[_,alpha,_]*";
    "([_,alpha,_] | [_,beta,_])*";
    "[_,beta,_] . [_,beta,_]";
  ]

let run_all g =
  List.map
    (fun q ->
      match Engine.query ~max_length:6 g q with
      | Ok r -> r.Engine.paths
      | Error m -> Alcotest.failf "query %S failed: %s" q m)
    queries

let test_concurrent_domains_agree () =
  let snap = Snapshot.of_graph (H.paper_graph ()) in
  let fg = Snapshot.graph snap in
  let reference = run_all fg in
  let n_domains = 4 and rounds = 5 in
  let worker () =
    let ok = ref true in
    for _ = 1 to rounds do
      let got = run_all fg in
      if not (List.for_all2 Path_set.equal reference got) then ok := false
    done;
    !ok
  in
  let domains = List.init n_domains (fun _ -> Domain.spawn worker) in
  let results = List.map Domain.join domains in
  Alcotest.(check (list bool))
    "every domain matches the sequential reference"
    (List.init n_domains (fun _ -> true))
    results

let qcheck_concurrent_snapshot_sound =
  H.qtest ~count:15 "concurrent snapshot queries = sequential denotation"
    H.with_graph_gen H.print_with_graph (fun (recipe, aux) ->
      let g = H.graph_of_recipe recipe in
      let rng = Prng.create aux in
      let exprs = List.init 3 (fun _ -> H.random_expr rng g) in
      let snap = Snapshot.of_graph g in
      let fg = Snapshot.graph snap in
      let eval gr =
        List.map
          (fun e -> (Engine.query_expr ~max_length:4 gr e).Engine.paths)
          exprs
      in
      let reference = eval fg in
      let domains = List.init 3 (fun _ -> Domain.spawn (fun () -> eval fg)) in
      let results = List.map Domain.join domains in
      List.for_all
        (fun got -> List.for_all2 Path_set.equal reference got)
        results)

(* --- End-to-end: server + client over a Unix socket ---------------------- *)

let with_server ?(limits = Wire.default_limits) ?idle_timeout_ms
    ?(max_request_bytes = Listener.default_max_request_bytes)
    ?max_predicted_cost
    ?snapshot ?(workers = 2) ?(queue_capacity = 8) f =
  let dir = Filename.temp_file "mrpa_srv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "s.sock" in
  let config =
    {
      Server.front =
        {
          (Listener.default_config (Wire.Unix_socket socket_path)) with
          idle_timeout_ms;
          max_request_bytes;
        };
      workers;
      queue_capacity;
      limits;
      max_predicted_cost;
      role = Server.Standalone;
    }
  in
  let snapshot =
    match snapshot with
    | Some s -> s
    | None -> Snapshot.of_graph (H.paper_graph ())
  in
  let server = Server.create ~snapshot config in
  let thread = Thread.create (fun () -> Server.serve server) () in
  let connect_with_retry () =
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec go () =
      match Client.connect (Wire.Unix_socket socket_path) with
      | Ok conn -> conn
      | Error m ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "server never came up: %s" m
        else begin
          Thread.yield ();
          Unix.sleepf 0.02;
          go ()
        end
    in
    go ()
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join thread;
      if Sys.file_exists socket_path then Sys.remove socket_path;
      Unix.rmdir dir)
    (fun () -> f server connect_with_retry socket_path)

let simple_req ?(id = Json.Null) ?query ?(options = Wire.default_options) verb =
  { Wire.id; verb; query; options }

let expect_ok name = function
  | Error m -> Alcotest.failf "%s: transport error: %s" name m
  | Ok j ->
    Alcotest.(check (option bool))
      (name ^ " ok") (Some true)
      (Option.bind (Json.member "ok" j) Json.to_bool_opt);
    j

let test_server_roundtrip () =
  with_server (fun server connect _path ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          (* ping *)
          let j =
            expect_ok "ping"
              (Client.request conn (simple_req ~id:(Json.Number 1.0) Wire.Ping))
          in
          Alcotest.(check bool) "id echoed" true
            (Json.member "id" j = Some (Json.Number 1.0));
          (* query *)
          let j =
            expect_ok "query"
              (Client.request conn
                 (simple_req ~query:"[i,alpha,_]" Wire.Query))
          in
          let result = Json.member "result" j in
          Alcotest.(check bool) "has result" true (Option.is_some result);
          Alcotest.(check (option string)) "complete" (Some "complete")
            (Option.bind result (fun r ->
                 Option.bind (Json.member "verdict" r) Json.to_string_opt));
          (* count *)
          let j =
            expect_ok "count"
              (Client.request conn (simple_req ~query:"[i,alpha,_]" Wire.Count))
          in
          Alcotest.(check (option int)) "count" (Some 2)
            (Option.bind (Json.member "count" j) Json.to_int_opt);
          (* a bad query is a query_error response, not a dead connection *)
          (match Client.request conn (simple_req ~query:"[[[" Wire.Query) with
          | Error m -> Alcotest.failf "bad query killed connection: %s" m
          | Ok j ->
            Alcotest.(check (option bool)) "bad query not ok" (Some false)
              (Option.bind (Json.member "ok" j) Json.to_bool_opt);
            Alcotest.(check (option string)) "code" (Some "query_error")
              (Option.bind (Json.member "error" j) (fun e ->
                   Option.bind (Json.member "code" e) Json.to_string_opt)));
          (* stats *)
          let j = expect_ok "stats" (Client.request conn (simple_req Wire.Stats)) in
          Alcotest.(check bool) "has stats payload" true
            (Option.is_some (Json.member "stats" j)));
      Alcotest.(check bool) "connection counted" true
        (Server.connections_served server >= 1))

let test_server_clamps_options () =
  (* a tiny fuel ceiling forces a partial verdict even when the client asks
     for an unbounded run *)
  let limits = { Wire.default_limits with max_fuel = Some 5 } in
  with_server ~limits (fun _server connect _path ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let j =
            expect_ok "governed query"
              (Client.request conn
                 (simple_req ~query:"([_,alpha,_] | [_,beta,_])*" Wire.Query))
          in
          match
            Option.bind (Json.member "result" j) (fun r ->
                Option.bind (Json.member "verdict" r) Json.to_string_opt)
          with
          | Some v ->
            Alcotest.(check bool)
              (Printf.sprintf "verdict %S is partial:fuel" v)
              true
              (String.length v >= 12 && String.sub v 0 12 = "partial:fuel")
          | None -> Alcotest.fail "no verdict in result"))

(* absent counter = never incremented = 0 *)
let counter_of_stats j key =
  Option.value ~default:0
    (Option.bind (Json.member "stats" j) (fun s ->
         Option.bind (Json.member "counters" s) (fun c ->
             Option.bind (Json.member key c) Json.to_int_opt)))

let test_server_lint_verb () =
  with_server (fun _server connect _path ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let j =
            expect_ok "lint"
              (Client.request conn (simple_req ~query:"[i,alpha,_]*" Wire.Lint))
          in
          let lint = Json.member "lint" j in
          Alcotest.(check bool) "has lint payload" true (Option.is_some lint);
          Alcotest.(check bool) "has findings list" true
            (Option.bind lint (Json.member "findings") <> None);
          Alcotest.(check bool) "has predicted_cost" true
            (Option.bind lint (Json.member "predicted_cost") <> None);
          (* an unparseable query is a query_error, not a dead connection *)
          (match Client.request conn (simple_req ~query:"[[[" Wire.Lint) with
          | Error m -> Alcotest.failf "bad lint killed connection: %s" m
          | Ok j ->
            Alcotest.(check (option string)) "code" (Some "query_error")
              (Option.bind (Json.member "error" j) (fun e ->
                   Option.bind (Json.member "code" e) Json.to_string_opt)));
          (* lint runs are counted, and never occupy a worker *)
          let j =
            expect_ok "stats" (Client.request conn (simple_req Wire.Stats))
          in
          Alcotest.(check int) "lint counted" 1
            (counter_of_stats j "server.lints");
          Alcotest.(check int) "no query dispatched" 0
            (counter_of_stats j "server.queries")))

(* The lint signature is built on first use, without a lock: threads that
   race on a fresh snapshot's first lint must all get a good answer. *)
let test_server_concurrent_first_lint () =
  let n = 6 in
  with_server ~snapshot:(Snapshot.of_graph (H.paper_graph ()))
    (fun _server connect _path ->
      let answers = Array.make n None in
      let lint i () =
        let conn = connect () in
        Fun.protect
          ~finally:(fun () -> Client.close conn)
          (fun () ->
            answers.(i) <-
              Some
                (Client.request conn
                   (simple_req ~query:"[i,alpha,_] . [_,beta,_]" Wire.Lint)))
      in
      List.iter Thread.join (List.init n (fun i -> Thread.create (lint i) ()));
      Array.iteri
        (fun i answer ->
          match answer with
          | None -> Alcotest.failf "lint %d: no answer" i
          | Some r ->
            let j = expect_ok (Printf.sprintf "lint %d" i) r in
            Alcotest.(check bool) "has lint payload" true
              (Option.is_some (Json.member "lint" j)))
        answers)

let test_server_admission_control () =
  (* Pick the ceiling from the analysis itself so the test tracks the cost
     model: just enough for the cheap anchored query, strictly less than
     the unanchored star needs. *)
  let cheap = "[i,alpha,_]" and expensive = "([_,alpha,_] | [_,beta,_])*" in
  let g = H.paper_graph () in
  let stats = Mrpa_graph.Stat.profile g in
  let cost_of q =
    match Parser.parse_spanned g q with
    | Error _ -> Alcotest.failf "setup: %s does not parse" q
    | Ok e -> (
      match
        (Mrpa_lint.Cost.analyze ~stats g ~max_length:8 e)
          .Mrpa_lint.Cost.predicted_cost
      with
      | Mrpa_lint.Interval.Fin n -> n
      | Mrpa_lint.Interval.Inf -> Alcotest.fail "setup: infinite bound")
  in
  let ceiling = cost_of cheap in
  Alcotest.(check bool) "setup: the star costs more than the ceiling" true
    (cost_of expensive > ceiling);
  with_server ~max_predicted_cost:ceiling (fun _server connect _path ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          (* under the ceiling: admitted and answered *)
          ignore (expect_ok "cheap query" (Client.request conn (simple_req ~query:cheap Wire.Query)));
          (* over the ceiling: refused with the dedicated error code *)
          (match Client.request conn (simple_req ~query:expensive Wire.Query) with
          | Error m -> Alcotest.failf "rejection killed connection: %s" m
          | Ok j ->
            Alcotest.(check (option bool)) "not ok" (Some false)
              (Option.bind (Json.member "ok" j) Json.to_bool_opt);
            Alcotest.(check (option string)) "code" (Some "infeasible")
              (Option.bind (Json.member "error" j) (fun e ->
                   Option.bind (Json.member "code" e) Json.to_string_opt)));
          (* the same ceiling applies to count *)
          (match Client.request conn (simple_req ~query:expensive Wire.Count) with
          | Error m -> Alcotest.failf "count rejection killed connection: %s" m
          | Ok j ->
            Alcotest.(check (option string)) "count code" (Some "infeasible")
              (Option.bind (Json.member "error" j) (fun e ->
                   Option.bind (Json.member "code" e) Json.to_string_opt)));
          (* a parse error still reports as query_error, not infeasible *)
          (match Client.request conn (simple_req ~query:"[[[" Wire.Query) with
          | Error m -> Alcotest.failf "parse error killed connection: %s" m
          | Ok j ->
            Alcotest.(check (option string)) "parse error code"
              (Some "query_error")
              (Option.bind (Json.member "error" j) (fun e ->
                   Option.bind (Json.member "code" e) Json.to_string_opt)));
          (* exactly the two rejections were counted, and only the admitted
             query ever reached the pool *)
          let j =
            expect_ok "stats" (Client.request conn (simple_req Wire.Stats))
          in
          Alcotest.(check int) "infeasible counted" 2
            (counter_of_stats j "server.infeasible");
          Alcotest.(check int) "one query dispatched" 1
            (counter_of_stats j "server.queries")))

let test_server_shutdown_verb () =
  with_server (fun _server connect _path ->
      let conn = connect () in
      let j =
        expect_ok "shutdown" (Client.request conn (simple_req Wire.Shutdown))
      in
      Alcotest.(check (option bool)) "stopping" (Some true)
        (Option.bind (Json.member "stopping" j) Json.to_bool_opt);
      Client.close conn
      (* with_server's finally joins the serve thread: if the shutdown verb
         did not actually stop the server, this test hangs and fails. *))

let test_server_bad_request_line () =
  with_server (fun _server connect _path ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          match Client.request_raw conn "this is not json" with
          | Error m -> Alcotest.failf "transport error: %s" m
          | Ok line -> (
            match Json.parse line with
            | Error m -> Alcotest.failf "response not JSON: %s" m
            | Ok j ->
              Alcotest.(check (option string)) "bad_request" (Some "bad_request")
                (Option.bind (Json.member "error" j) (fun e ->
                     Option.bind (Json.member "code" e) Json.to_string_opt)))))

(* TCP server on an ephemeral port: bind port 0, let the kernel pick, and
   read the actual endpoint back through [Server.bound_endpoint]. *)
let with_tcp_server ?(allow_remote_shutdown = false) f =
  let snap = Snapshot.of_graph (H.paper_graph ()) in
  let config =
    {
      Server.front =
        {
          (Listener.default_config (Wire.Tcp ("127.0.0.1", 0))) with
          allow_remote_shutdown;
        };
      workers = 1;
      queue_capacity = 4;
      limits = Wire.default_limits;
      max_predicted_cost = None;
      role = Server.Standalone;
    }
  in
  let server = Server.create ~snapshot:snap config in
  let thread = Thread.create (fun () -> Server.serve server) () in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec endpoint () =
    match Server.bound_endpoint server with
    | Some ep -> ep
    | None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "tcp server never bound"
      else begin
        Unix.sleepf 0.02;
        endpoint ()
      end
  in
  let ep = endpoint () in
  let rec connect () =
    match Client.connect ep with
    | Ok conn -> conn
    | Error m ->
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "tcp connect failed: %s" m
      else begin
        Unix.sleepf 0.02;
        connect ()
      end
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join thread)
    (fun () -> f server connect)

let test_server_tcp_roundtrip () =
  with_tcp_server (fun _server connect ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let j =
            expect_ok "tcp query"
              (Client.request conn (simple_req ~query:"[i,alpha,_]" Wire.Query))
          in
          Alcotest.(check bool) "result over tcp" true
            (Option.is_some (Json.member "result" j))))

let stats_counter name j =
  Option.bind (Json.member "stats" j) (fun s ->
      Option.bind (Json.member "counters" s) (fun c ->
          Option.bind (Json.member name c) Json.to_int_opt))

let error_code_of j =
  Option.bind (Json.member "error" j) (fun e ->
      Option.bind (Json.member "code" e) Json.to_string_opt)

let test_server_overload_response () =
  (* 16 concurrent heavy queries against 2 workers + 8 queue slots: the
     requests arrive within a few ms of each other while each job takes
     tens of ms, so the pool overflows and sheds with [overloaded]. The
     overflow is a race by nature — a loaded machine can serialise the
     arrivals enough that every job is absorbed — so an unlucky round
     (no shed, but every client answered correctly) is retried a bounded
     number of times rather than failed; one shed round proves the
     backpressure path end to end. The result cache is off: a complete
     answer would otherwise be cached, and every later request served
     inline without ever reaching the pool. *)
  let limits = { Wire.default_limits with max_deadline_ms = Some 400.0 } in
  let snapshot =
    Snapshot.of_graph ~result_cache_capacity:0 (H.paper_graph ())
  in
  with_server ~limits ~snapshot (fun _server connect _path ->
      let heavy = "([_,alpha,_] | [_,beta,_])* . ([_,alpha,_] | [_,beta,_])*" in
      let round () =
        let conns = List.init 16 (fun _ -> connect ()) in
        Fun.protect
          ~finally:(fun () -> List.iter Client.close conns)
          (fun () ->
            let codes = Mutex.create () in
            let overloaded = ref 0 and answered = ref 0 in
            let threads =
              List.map
                (fun conn ->
                  Thread.create
                    (fun () ->
                      match
                        Client.request conn
                          (simple_req ~query:heavy
                             ~options:
                               {
                                 Wire.default_options with
                                 deadline_ms = Some 400.0;
                               }
                             Wire.Query)
                      with
                      | Error _ -> ()
                      | Ok j ->
                        Mutex.lock codes;
                        incr answered;
                        (match error_code_of j with
                        | Some "overloaded" -> incr overloaded
                        | _ -> ());
                        Mutex.unlock codes)
                    ())
                conns
            in
            List.iter Thread.join threads;
            Alcotest.(check int) "every client got an answer" 16 !answered;
            !overloaded)
      in
      let rec shed_round n =
        let overloaded = round () in
        if overloaded < 1 then
          if n = 0 then
            Alcotest.fail "no request shed in any round (pool never overflowed)"
          else shed_round (n - 1)
      in
      shed_round 4)

(* --- Pool supervision ----------------------------------------------------- *)

let test_pool_supervisor_restarts_worker () =
  let pool = Pool.create ~workers:1 ~queue_capacity:8 in
  (* Poison the only worker: a [Fatal] job kills it, and without the
     supervisor the pool would silently stop executing anything. *)
  ignore (Pool.submit pool (fun () -> raise (Pool.Fatal "poisoned")));
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Pool.restarts pool = 0 && Unix.gettimeofday () < deadline do
    Thread.yield ();
    Unix.sleepf 0.005
  done;
  Alcotest.(check int) "restart counted" 1 (Pool.restarts pool);
  let ran = Atomic.make false in
  Alcotest.(check bool) "pool still accepts work" true
    (Pool.submit pool (fun () -> Atomic.set ran true));
  Pool.shutdown pool;
  Alcotest.(check bool) "replacement worker ran the job" true (Atomic.get ran);
  Alcotest.(check int) "fatal also counted as job error" 1
    (Pool.job_errors pool)

let test_pool_supervisor_restarts_repeatedly () =
  let pool = Pool.create ~workers:2 ~queue_capacity:16 in
  for _ = 1 to 3 do
    ignore (Pool.submit pool (fun () -> raise (Pool.Fatal "again")))
  done;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Pool.restarts pool < 3 && Unix.gettimeofday () < deadline do
    Thread.yield ();
    Unix.sleepf 0.005
  done;
  Alcotest.(check int) "three restarts" 3 (Pool.restarts pool);
  let count = Atomic.make 0 in
  for _ = 1 to 8 do
    ignore (Pool.submit pool (fun () -> Atomic.incr count))
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "pool at full strength afterwards" 8 (Atomic.get count)

(* --- Session hardening ---------------------------------------------------- *)

let test_server_idle_timeout () =
  with_server ~idle_timeout_ms:200.0 (fun _server connect socket_path ->
      (* Wait for the server to bind before talking to the socket raw. *)
      Client.close (connect ());
      (* A slowloris client: drip a few bytes of a request line, never the
         newline, and go silent. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket_path);
          ignore (Unix.write_substring fd "{\"mrpa\"" 0 7);
          let buf = Bytes.create 4096 in
          let n = Unix.read fd buf 0 4096 in
          let line = Bytes.sub_string buf 0 n in
          (match Json.parse (String.trim line) with
          | Error m -> Alcotest.failf "farewell is not JSON: %s (%S)" m line
          | Ok j ->
            Alcotest.(check (option string))
              "idle_timeout farewell" (Some "idle_timeout") (error_code_of j));
          (* ...after which the server closes: the connection is freed
             (clean EOF or a reset, depending on timing). *)
          Alcotest.(check bool) "closed after farewell" true
            (match Unix.read fd buf 0 4096 with
            | 0 -> true
            | _ -> false
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true));
      (* The server survived the rude client and counted the event. *)
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let j = expect_ok "stats" (Client.request conn (simple_req Wire.Stats)) in
          Alcotest.(check bool) "idle_timeouts counted" true
            (match stats_counter "server.idle_timeouts" j with
            | Some n -> n >= 1
            | None -> false);
          Alcotest.(check (option int))
            "worker_restarts surfaced" (Some 0)
            (stats_counter "server.worker_restarts" j)))

let test_server_oversized_request () =
  with_server ~max_request_bytes:64 (fun _server connect _path ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let big = String.make 200 'x' in
          (match Client.request_raw conn big with
          | Error m -> Alcotest.failf "no response to oversized line: %s" m
          | Ok line -> (
            match Json.parse line with
            | Error m -> Alcotest.failf "response not JSON: %s" m
            | Ok j ->
              Alcotest.(check (option string))
                "request_too_large" (Some "request_too_large")
                (error_code_of j)));
          (* Framing past an oversized line cannot be trusted: the server
             must have closed the connection (surfacing as an error or a
             reset, depending on timing). *)
          match Client.request_raw conn "{}" with
          | Error _ -> ()
          | exception Unix.Unix_error _ -> ()
          | Ok _ -> Alcotest.fail "connection survived an oversized request");
      (* A fresh, well-behaved connection still works. *)
      let conn2 = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn2)
        (fun () ->
          let j = expect_ok "stats" (Client.request conn2 (simple_req Wire.Stats)) in
          Alcotest.(check bool) "oversized counted" true
            (match stats_counter "server.oversized_requests" j with
            | Some n -> n >= 1
            | None -> false)))

(* --- Lru ------------------------------------------------------------------ *)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* touching "a" makes "b" the least-recently-used victim *)
  Alcotest.(check (option int)) "a hits" (Some 1) (Lru.find c "a");
  Lru.add c "c" 3;
  Alcotest.(check int) "bounded" 2 (Lru.length c);
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a survived" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c);
  (* replacing a key is not an eviction and does not grow the cache *)
  Lru.add c "c" 30;
  Alcotest.(check (option int)) "replaced" (Some 30) (Lru.find c "c");
  Alcotest.(check int) "still bounded" 2 (Lru.length c);
  Alcotest.(check int) "still one eviction" 1 (Lru.evictions c)

let test_lru_capacity_zero_disabled () =
  let c = Lru.create ~capacity:0 in
  Lru.add c "a" 1;
  Alcotest.(check int) "stores nothing" 0 (Lru.length c);
  Alcotest.(check (option int)) "always misses" None (Lru.find c "a");
  Alcotest.(check int) "no evictions" 0 (Lru.evictions c)

(* --- Compiled-plan cache --------------------------------------------------- *)

let test_compile_parses_once () =
  let snap = Snapshot.of_graph (H.paper_graph ()) in
  let compile ?(max_length = 6) q =
    Snapshot.compile snap ~max_length ~simple:false q
  in
  (match compile "[i,alpha,_]" with
  | Error m -> Alcotest.failf "compile failed: %s" m
  | Ok c ->
    Alcotest.(check bool) "plan targets the requested bound" true
      (c.Snapshot.plan.Plan.max_length = 6));
  ignore (compile "[i,alpha,_]");
  ignore (compile "[i,alpha,_]");
  Alcotest.(check int) "three compiles, one parse" 1
    (Snapshot.parse_count snap);
  let hits, misses = Snapshot.plan_cache_stats snap in
  Alcotest.(check int) "two hits" 2 hits;
  Alcotest.(check int) "one miss" 1 misses;
  (* a different max_length is a different plan: fresh parse *)
  ignore (compile ~max_length:4 "[i,alpha,_]");
  Alcotest.(check int) "new key, new parse" 2 (Snapshot.parse_count snap);
  (* parse errors are cached too *)
  let e1 = compile "[[[" and e2 = compile "[[[" in
  Alcotest.(check bool) "error result" true (Result.is_error e1);
  Alcotest.(check bool) "identical cached error" true (e1 = e2);
  Alcotest.(check int) "typo parsed once" 3 (Snapshot.parse_count snap)

let test_strategy_override_outside_cache_key () =
  let snap = Snapshot.of_graph (H.paper_graph ()) in
  match Snapshot.compile snap ~max_length:6 ~simple:false "[i,alpha,_]" with
  | Error m -> Alcotest.failf "compile failed: %s" m
  | Ok c ->
    let p = c.Snapshot.plan in
    let other =
      if p.Plan.strategy = Plan.Reference then Plan.Stack_machine
      else Plan.Reference
    in
    let forced = Plan.with_strategy p other in
    Alcotest.(check bool) "strategy forced" true (forced.Plan.strategy = other);
    Alcotest.(check string) "reason recorded" "forced by caller"
      forced.Plan.strategy_reason;
    Alcotest.(check bool) "same strategy is the identity" true
      (Plan.with_strategy p p.Plan.strategy == p);
    (* the override happened after the cache: no second parse *)
    Alcotest.(check int) "still one parse" 1 (Snapshot.parse_count snap)

let test_server_single_parse_per_request () =
  (* The triple-parse regression: admission control, the lint verb and the
     worker used to each parse the query text. A generous admission ceiling
     keeps the cost analysis in the request path without rejecting. *)
  let snap = Snapshot.of_graph (H.paper_graph ()) in
  with_server ~snapshot:snap ~max_predicted_cost:1_000_000
    (fun _server connect _path ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let q = "[i,alpha,_] . [_,beta,_]" in
          ignore
            (expect_ok "lint" (Client.request conn (simple_req ~query:q Wire.Lint)));
          ignore
            (expect_ok "query"
               (Client.request conn (simple_req ~query:q Wire.Query)));
          ignore
            (expect_ok "count"
               (Client.request conn (simple_req ~query:q Wire.Count)));
          ignore
            (expect_ok "query again"
               (Client.request conn (simple_req ~query:q Wire.Query)));
          Alcotest.(check int) "four requests, one parse" 1
            (Snapshot.parse_count snap);
          let hits, misses = Snapshot.plan_cache_stats snap in
          Alcotest.(check int) "one plan-cache miss" 1 misses;
          (* lint missed, then query and count hit; the repeat query is
             absorbed by the result cache before it ever compiles *)
          Alcotest.(check int) "query and count hit the plan cache" 2 hits;
          let j =
            expect_ok "stats" (Client.request conn (simple_req Wire.Stats))
          in
          Alcotest.(check (option int)) "server.parses" (Some 1)
            (stats_counter "server.parses" j);
          Alcotest.(check (option int)) "server.plan_cache_misses" (Some 1)
            (stats_counter "server.plan_cache_misses" j);
          Alcotest.(check (option int)) "server.plan_cache_hits" (Some 2)
            (stats_counter "server.plan_cache_hits" j);
          Alcotest.(check (option int)) "repeat query was a result hit"
            (Some 1)
            (stats_counter "server.result_cache_hits" j)))

(* --- Result cache ---------------------------------------------------------- *)

let test_server_write_then_read_not_stale () =
  (* End-to-end: a snapshot is a frozen copy, so a write to the graph it
     was taken from is invisible to it — neither its answers nor its
     result cache change. A write becomes visible only by publishing a new
     snapshot (see test_replication's read-your-writes case). *)
  let g = H.paper_graph () in
  let snap = Snapshot.of_graph g in
  with_server ~snapshot:snap (fun _server connect _path ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let req = simple_req ~query:"[i,alpha,_]" Wire.Query in
          let first = expect_ok "first" (Client.request conn req) in
          let second = expect_ok "second" (Client.request conn req) in
          let hits, _ = Snapshot.result_cache_stats snap in
          Alcotest.(check int) "repeat served from cache" 1 hits;
          ignore (Digraph.add g "i" "alpha" "post_write");
          Alcotest.(check bool) "write invisible to the snapshot" true
            (Digraph.find_vertex (Snapshot.graph snap) "post_write" = None);
          let third = expect_ok "third" (Client.request conn req) in
          let hits_after, _ = Snapshot.result_cache_stats snap in
          Alcotest.(check int) "post-write repeat still a hit" (hits + 1)
            hits_after;
          (* Compare the denotation, not the envelope: elapsed_ms varies. *)
          let strip j =
            let f name = Option.bind (Json.member "result" j) (Json.member name) in
            ( f "paths",
              Option.bind (f "count") Json.to_int_opt,
              Option.bind (f "verdict") Json.to_string_opt )
          in
          Alcotest.(check bool) "answers agree" true
            (strip first = strip second && strip second = strip third)))

(* --- Pipelining ------------------------------------------------------------ *)

let test_pipelined_out_of_order () =
  (* Two tagged requests down one connection: a heavy query (dispatched to a
     worker) then a ping (answered inline by the session thread). The ping
     almost always overtakes; the ids match each response back regardless.
     The overtake is a race by nature, so an in-order round is retried a
     bounded number of times — correctness is asserted on every round. *)
  with_server (fun _server connect _path ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let heavy =
            "([_,alpha,_] | [_,beta,_])* . ([_,alpha,_] | [_,beta,_])*"
          in
          let send req =
            match Client.send conn req with
            | Ok () -> ()
            | Error m -> Alcotest.failf "send: %s" m
          in
          let receive () =
            match Client.receive conn with
            | Ok j -> j
            | Error m -> Alcotest.failf "receive: %s" m
          in
          let rec round attempts n =
            let qid = Json.Number (float_of_int n) in
            let pid = Json.Number (float_of_int (n + 1)) in
            send (simple_req ~id:qid ~query:heavy Wire.Query);
            send (simple_req ~id:pid Wire.Ping);
            let first = receive () in
            let second = receive () in
            let find id =
              if Client.response_id first = id then first
              else if Client.response_id second = id then second
              else Alcotest.failf "no response carries the expected id"
            in
            let p = find pid and q = find qid in
            Alcotest.(check (option bool)) "ping answered" (Some true)
              (Option.bind (Json.member "pong" p) Json.to_bool_opt);
            Alcotest.(check bool) "query answered" true
              (Json.member "result" q <> None);
            if Client.response_id first = pid then ()
            else if attempts = 0 then
              Alcotest.fail "ping never overtook the heavy query"
            else round (attempts - 1) (n + 2)
          in
          round 9 1))

(* --- Blank-line hardening --------------------------------------------------- *)

let test_blank_lines_do_not_reset_idle_deadline () =
  (* The blank-line slowloris: each blank used to complete a "request
     cycle" and re-arm the idle clock. Dripping blanks faster than the
     timeout must still hit the deadline. *)
  with_server ~idle_timeout_ms:300.0 (fun _server connect socket_path ->
      Client.close (connect ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket_path);
          let stop = Atomic.make false in
          let writer =
            Thread.create
              (fun () ->
                let i = ref 0 in
                while (not (Atomic.get stop)) && !i < 100 do
                  incr i;
                  (try ignore (Unix.write_substring fd "\n" 0 1)
                   with Unix.Unix_error _ -> Atomic.set stop true);
                  Thread.delay 0.05
                done)
              ()
          in
          let t0 = Unix.gettimeofday () in
          let buf = Bytes.create 4096 in
          let n = Unix.read fd buf 0 4096 in
          let elapsed = Unix.gettimeofday () -. t0 in
          Atomic.set stop true;
          Thread.join writer;
          (match Json.parse (String.trim (Bytes.sub_string buf 0 n)) with
          | Error m -> Alcotest.failf "farewell is not JSON: %s" m
          | Ok j ->
            Alcotest.(check (option string))
              "idle_timeout farewell" (Some "idle_timeout") (error_code_of j));
          Alcotest.(check bool)
            (Printf.sprintf "deadline held under blank drip (%.2fs)" elapsed)
            true (elapsed < 2.0)))

let test_blank_flood_cap () =
  with_server (fun _server connect socket_path ->
      Client.close (connect ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket_path);
          (* far past the consecutive-blank cap, in one burst *)
          let flood = String.make 80 '\n' in
          ignore (Unix.write_substring fd flood 0 (String.length flood));
          let buf = Bytes.create 4096 in
          let n = Unix.read fd buf 0 4096 in
          (match Json.parse (String.trim (Bytes.sub_string buf 0 n)) with
          | Error m -> Alcotest.failf "farewell is not JSON: %s" m
          | Ok j ->
            Alcotest.(check (option string))
              "bad_request farewell" (Some "bad_request") (error_code_of j));
          (* ...and the connection is gone *)
          Alcotest.(check bool) "closed after farewell" true
            (match Unix.read fd buf 0 4096 with
            | 0 -> true
            | _ -> false
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true));
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let j =
            expect_ok "stats" (Client.request conn (simple_req Wire.Stats))
          in
          Alcotest.(check bool) "flood counted" true
            (match stats_counter "server.blank_floods" j with
            | Some n -> n >= 1
            | None -> false)))

(* An integer literal past [max_int] is a query error at its offset; the
   session survives it. *)
let test_overlong_integer () =
  with_server (fun _server connect _path ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          (match
             Client.request conn
               (simple_req ~query:"[99999999999999999999,_,_]" Wire.Query)
           with
          | Error m -> Alcotest.failf "session dropped: %s" m
          | Ok j ->
            Alcotest.(check (option string))
              "query_error" (Some "query_error") (error_code_of j));
          ignore
            (expect_ok "ping after"
               (Client.request conn (simple_req Wire.Ping)))))

(* --- Shutdown gating --------------------------------------------------------- *)

let test_tcp_shutdown_unauthorized () =
  with_tcp_server (fun _server connect ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          (match Client.request conn (simple_req Wire.Shutdown) with
          | Error m -> Alcotest.failf "refusal killed connection: %s" m
          | Ok j ->
            Alcotest.(check (option bool)) "not ok" (Some false)
              (Option.bind (Json.member "ok" j) Json.to_bool_opt);
            Alcotest.(check (option string)) "code" (Some "unauthorized")
              (error_code_of j));
          (* the refused server keeps serving, on the same connection *)
          ignore
            (expect_ok "ping after refusal"
               (Client.request conn (simple_req Wire.Ping)));
          let j =
            expect_ok "stats" (Client.request conn (simple_req Wire.Stats))
          in
          Alcotest.(check (option int)) "refusal counted" (Some 1)
            (stats_counter "server.unauthorized" j)))

let test_tcp_shutdown_allowed () =
  with_tcp_server ~allow_remote_shutdown:true (fun _server connect ->
      let conn = connect () in
      let j =
        expect_ok "remote shutdown"
          (Client.request conn (simple_req Wire.Shutdown))
      in
      Alcotest.(check (option bool)) "stopping" (Some true)
        (Option.bind (Json.member "stopping" j) Json.to_bool_opt);
      Client.close conn
      (* with_tcp_server's finally joins the serve thread: a shutdown verb
         that did not actually stop the server hangs the test. *))

(* --- Degenerate options, every strategy -------------------------------------- *)

let all_strategies = [ Plan.Reference; Plan.Stack_machine; Plan.Product_bfs ]

let result_field j name =
  Option.bind (Json.member "result" j) (Json.member name)

let run_with_options conn options query =
  let j =
    expect_ok query (Client.request conn (simple_req ~query ~options Wire.Query))
  in
  ( Option.bind (result_field j "count") Json.to_int_opt,
    Option.bind (result_field j "verdict") Json.to_string_opt )

let test_limit_zero_all_strategies () =
  with_server (fun _server connect _path ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let outcomes =
            List.map
              (fun s ->
                run_with_options conn
                  {
                    Wire.default_options with
                    strategy = Some s;
                    limit = Some 0;
                  }
                  "[i,alpha,_]")
              all_strategies
          in
          match outcomes with
          | [] -> assert false
          | ((c0, v0) as first) :: rest ->
            Alcotest.(check (option int)) "limit 0 yields no paths" (Some 0)
              c0;
            Alcotest.(check bool) "verdict present" true (v0 <> None);
            List.iteri
              (fun i o ->
                Alcotest.(check bool)
                  (Printf.sprintf "strategy %d agrees with the reference" (i + 1))
                  true (o = first))
              rest))

(* One count rule at every front door: over the wire, the count verb
   answers each table row's count and verdict, as the engine does. *)
let test_count_contract () =
  let int_at j = Option.bind j Json.to_int_opt in
  let str_at j = Option.bind j Json.to_string_opt in
  let answer j = (int_at (Json.member "count" j), str_at (Json.member "verdict" j)) in
  let over_wire ?limits f =
    with_server ?limits ~snapshot:(Snapshot.of_graph (H.count_graph ()))
      (fun _server connect _path ->
        let conn = connect () in
        Fun.protect
          ~finally:(fun () -> Client.close conn)
          (fun () ->
            f (fun verb options query ->
                expect_ok query
                  (Client.request conn (simple_req ~query ~options verb)))))
  in
  let expect = Alcotest.(check (pair (option int) (option string))) in
  over_wire (fun ask ->
      List.iter
        (fun (row : H.count_row) ->
          let j =
            ask Wire.Count
              {
                Wire.default_options with
                max_length = Some row.H.c_max_length;
                simple = row.H.c_simple;
                limit = row.H.c_limit;
              }
              row.H.c_query
          in
          expect (H.count_row_name row)
            (Some row.H.c_count, Some row.H.c_verdict)
            (answer j))
        H.count_rows;
      (* A plain count keeps the Counting DP: a live-path budget far below
         the answer cannot trip it, while materialising the same request
         stops at the budget. *)
      let options =
        { Wire.default_options with max_length = Some 3; max_paths = Some 3 }
      in
      expect "plain count" (Some 17, Some "complete")
        (answer (ask Wire.Count options "[_,k,_]*"));
      let r = Json.member "result" (ask Wire.Query options "[_,k,_]*") in
      expect "materialised" (Some 3, Some "partial:memory")
        ( int_at (Option.bind r (Json.member "count")),
          str_at (Option.bind r (Json.member "verdict")) ));
  (* The server's returned-paths ceiling binds a query and a count the
     client limited, but not a plain count: it returns no paths. *)
  let limits = { Wire.default_limits with max_limit = Some 2 } in
  over_wire ~limits (fun ask ->
      let options = { Wire.default_options with max_length = Some 3 } in
      expect "plain count under max_limit" (Some 17, Some "complete")
        (answer (ask Wire.Count options "[_,k,_]*"));
      expect "limited count under max_limit" (Some 2, Some "partial:limit")
        (answer
           (ask Wire.Count { options with limit = Some 5 } "[_,k,_]*"));
      let r = Json.member "result" (ask Wire.Query options "[_,k,_]*") in
      expect "query under max_limit" (Some 2, Some "partial:limit")
        ( int_at (Option.bind r (Json.member "count")),
          str_at (Option.bind r (Json.member "verdict")) ))

(* A count past max_int is a query_error over the wire, never a wrapped
   number; the largest count below it travels exactly. *)
let test_count_overflow () =
  let g = Generate.complete ~n:20 ~n_labels:1 in
  with_server ~snapshot:(Snapshot.of_graph g) (fun _server connect _path ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let count max_length =
            let options =
              { Wire.default_options with max_length = Some max_length }
            in
            match
              Client.request_raw conn
                (Wire.encode_request
                   (simple_req ~query:"[_,_,_]*" ~options Wire.Count))
            with
            | Error m -> Alcotest.failf "transport error: %s" m
            | Ok line -> line
          in
          let contains line sub =
            let n = String.length sub in
            let rec at i =
              i + n <= String.length line
              && (String.sub line i n = sub || at (i + 1))
            in
            at 0
          in
          let line = count 13 in
          Alcotest.(check bool) ("exact count: " ^ line) true
            (contains line {|"count":887785206425426781,|});
          let line = count 14 in
          Alcotest.(check bool) ("query_error: " ^ line) true
            (contains line {|"code":"query_error"|});
          Alcotest.(check bool) ("no count: " ^ line) false
            (contains line {|"count"|})))

let test_max_length_zero_all_strategies () =
  with_server (fun _server connect _path ->
      let conn = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let outcomes =
            List.map
              (fun s ->
                run_with_options conn
                  {
                    Wire.default_options with
                    strategy = Some s;
                    max_length = Some 0;
                  }
                  "[i,alpha,_]")
              all_strategies
          in
          List.iteri
            (fun i (count, verdict) ->
              Alcotest.(check (option int))
                (Printf.sprintf "strategy %d: empty bound, empty answer" i)
                (Some 0) count;
              Alcotest.(check (option string))
                (Printf.sprintf "strategy %d: trivially complete" i)
                (Some "complete") verdict)
            outcomes))

(* --- Client retry --------------------------------------------------------- *)

let test_backoff_bounds () =
  let p = { Client.retries = 5; backoff_ms = 100.0 } in
  let lower = Client.backoff_delay_ms ~rand:(fun _ -> 0.0) p in
  let upper = Client.backoff_delay_ms ~rand:(fun x -> x) p in
  Alcotest.(check (float 1e-6)) "attempt 0 lower edge" 50.0 (lower ~attempt:0);
  Alcotest.(check (float 1e-6)) "attempt 0 upper edge" 100.0 (upper ~attempt:0);
  Alcotest.(check (float 1e-6)) "attempt 3 lower edge" 400.0 (lower ~attempt:3);
  Alcotest.(check (float 1e-6)) "attempt 3 upper edge" 800.0 (upper ~attempt:3);
  (* The window doubles per attempt until the 10 s cap. *)
  Alcotest.(check (float 1e-6)) "capped" 10_000.0 (upper ~attempt:30);
  Alcotest.(check (float 1e-6)) "cap lower edge" 5_000.0 (lower ~attempt:30)

(* A canned single-threaded wire peer: for each canned response, accept one
   connection, read one request line, answer, close. Lets the retry tests
   script exact server behaviour (overloaded, then recovered) without
   touching the real server's load machinery. *)
let canned_server socket_path responses =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket_path);
  Unix.listen fd 8;
  Thread.create
    (fun () ->
      List.iter
        (fun resp ->
          let c, _ = Unix.accept fd in
          let buf = Bytes.create 4096 in
          let rec read_line acc =
            if String.contains acc '\n' then ()
            else
              match Unix.read c buf 0 4096 with
              | 0 -> ()
              | n -> read_line (acc ^ Bytes.sub_string buf 0 n)
          in
          read_line "";
          ignore
            (Unix.write_substring c (resp ^ "\n") 0 (String.length resp + 1));
          Unix.close c)
        responses;
      Unix.close fd)
    ()

let with_retry_dir f =
  let dir = Filename.temp_file "mrpa_retry" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "s.sock" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists socket_path then Sys.remove socket_path;
      Unix.rmdir dir)
    (fun () -> f socket_path)

let overloaded_line =
  Wire.response_error ~id:Json.Null ~code:Wire.Overloaded "queue full"

let pong_line = Wire.response_ok ~id:Json.Null [ ("pong", "true") ]

let test_retry_on_overloaded_then_success () =
  with_retry_dir (fun socket_path ->
      let th = canned_server socket_path [ overloaded_line; pong_line ] in
      let sleeps = ref [] in
      let result =
        Client.request_retry
          ~policy:{ Client.retries = 3; backoff_ms = 1.0 }
          ~sleep:(fun s -> sleeps := s :: !sleeps)
          (Wire.Unix_socket socket_path)
          (simple_req Wire.Ping)
      in
      Thread.join th;
      (match result with
      | Error m -> Alcotest.failf "retry failed: %s" m
      | Ok line -> Alcotest.(check string) "second answer wins" pong_line line);
      Alcotest.(check int) "exactly one backoff sleep" 1 (List.length !sleeps))

let test_retry_exhausts_on_persistent_overload () =
  with_retry_dir (fun socket_path ->
      let th =
        canned_server socket_path
          [ overloaded_line; overloaded_line; overloaded_line ]
      in
      let sleeps = ref 0 in
      let result =
        Client.request_retry
          ~policy:{ Client.retries = 2; backoff_ms = 1.0 }
          ~sleep:(fun _ -> incr sleeps)
          (Wire.Unix_socket socket_path)
          (simple_req Wire.Ping)
      in
      Thread.join th;
      (* The last overloaded answer is a well-formed wire response and is
         handed back as Ok — the caller keeps the protocol-level taxonomy. *)
      (match result with
      | Error m -> Alcotest.failf "expected the overloaded answer: %s" m
      | Ok line ->
        Alcotest.(check string) "last overloaded response" overloaded_line line);
      Alcotest.(check int) "bounded attempts" 2 !sleeps)

let test_retry_until_server_appears () =
  with_retry_dir (fun socket_path ->
      (* Nothing listens yet; the endpoint materialises only inside the
         first backoff sleep — exactly the mrpa call --retries use case of
         racing a server that is still starting up. *)
      let th = ref None in
      let sleeps = ref 0 in
      let result =
        Client.request_retry
          ~policy:{ Client.retries = 3; backoff_ms = 1.0 }
          ~sleep:(fun _ ->
            incr sleeps;
            if !th = None then
              th := Some (canned_server socket_path [ pong_line ]))
          (Wire.Unix_socket socket_path)
          (simple_req Wire.Ping)
      in
      Option.iter Thread.join !th;
      (match result with
      | Error m -> Alcotest.failf "server appeared but retry failed: %s" m
      | Ok line -> Alcotest.(check string) "pong" pong_line line);
      Alcotest.(check int) "one retry sufficed" 1 !sleeps)

let test_retry_bounded_when_server_never_appears () =
  with_retry_dir (fun socket_path ->
      let sleeps = ref 0 in
      match
        Client.request_retry
          ~policy:{ Client.retries = 2; backoff_ms = 1.0 }
          ~sleep:(fun _ -> incr sleeps)
          (Wire.Unix_socket socket_path)
          (simple_req Wire.Ping)
      with
      | Ok _ -> Alcotest.fail "nothing listens; success is impossible"
      | Error m ->
        Alcotest.(check bool) "rendered reason" true (String.length m > 0);
        Alcotest.(check int) "slept between all attempts" 2 !sleeps)

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "wire",
        [
          Alcotest.test_case "decode" `Quick test_wire_decode;
          Alcotest.test_case "decode errors" `Quick test_wire_decode_errors;
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "clamp" `Quick test_wire_clamp;
          Alcotest.test_case "responses" `Quick test_wire_responses;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs jobs" `Quick test_pool_runs_jobs;
          Alcotest.test_case "overload" `Quick test_pool_overload;
          Alcotest.test_case "shutdown drains" `Quick test_pool_shutdown_drains;
          Alcotest.test_case "survives raising job" `Quick
            test_pool_survives_raising_job;
          Alcotest.test_case "rejects bad geometry" `Quick
            test_pool_rejects_bad_geometry;
          Alcotest.test_case "supervisor restarts worker" `Quick
            test_pool_supervisor_restarts_worker;
          Alcotest.test_case "supervisor restarts repeatedly" `Quick
            test_pool_supervisor_restarts_repeatedly;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "freezes a copy" `Quick test_snapshot_freezes_copy;
          Alcotest.test_case "queryable" `Quick test_snapshot_queryable;
          Alcotest.test_case "republish allocation per edge" `Quick
            test_republish_allocation;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "capacity zero disabled" `Quick
            test_lru_capacity_zero_disabled;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "parses once" `Quick test_compile_parses_once;
          Alcotest.test_case "strategy override outside key" `Quick
            test_strategy_override_outside_cache_key;
          Alcotest.test_case "single parse per request" `Quick
            test_server_single_parse_per_request;
        ] );
      ( "result-cache",
        [
          Alcotest.test_case "write then read not stale" `Quick
            test_server_write_then_read_not_stale;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "domains agree" `Quick
            test_concurrent_domains_agree;
          qcheck_concurrent_snapshot_sound;
        ] );
      ( "server",
        [
          Alcotest.test_case "roundtrip" `Quick test_server_roundtrip;
          Alcotest.test_case "clamps options" `Quick test_server_clamps_options;
          Alcotest.test_case "lint verb" `Quick test_server_lint_verb;
          Alcotest.test_case "concurrent first lint" `Quick
            test_server_concurrent_first_lint;
          Alcotest.test_case "admission control" `Quick
            test_server_admission_control;
          Alcotest.test_case "shutdown verb" `Quick test_server_shutdown_verb;
          Alcotest.test_case "bad request line" `Quick
            test_server_bad_request_line;
          Alcotest.test_case "tcp roundtrip" `Quick test_server_tcp_roundtrip;
          Alcotest.test_case "overload" `Quick test_server_overload_response;
          Alcotest.test_case "idle timeout" `Quick test_server_idle_timeout;
          Alcotest.test_case "oversized request" `Quick
            test_server_oversized_request;
          Alcotest.test_case "pipelined out of order" `Quick
            test_pipelined_out_of_order;
          Alcotest.test_case "blank lines keep deadline" `Quick
            test_blank_lines_do_not_reset_idle_deadline;
          Alcotest.test_case "blank flood cap" `Quick test_blank_flood_cap;
          Alcotest.test_case "tcp shutdown unauthorized" `Quick
            test_tcp_shutdown_unauthorized;
          Alcotest.test_case "tcp shutdown allowed" `Quick
            test_tcp_shutdown_allowed;
          Alcotest.test_case "limit zero, all strategies" `Quick
            test_limit_zero_all_strategies;
          Alcotest.test_case "max_length zero, all strategies" `Quick
            test_max_length_zero_all_strategies;
          Alcotest.test_case "overlong integer literal" `Quick
            test_overlong_integer;
          Alcotest.test_case "count contract" `Quick test_count_contract;
          Alcotest.test_case "count overflow is a query error" `Quick
            test_count_overflow;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff bounds" `Quick test_backoff_bounds;
          Alcotest.test_case "overloaded then success" `Quick
            test_retry_on_overloaded_then_success;
          Alcotest.test_case "persistent overload" `Quick
            test_retry_exhausts_on_persistent_overload;
          Alcotest.test_case "server appears mid-retry" `Quick
            test_retry_until_server_appears;
          Alcotest.test_case "bounded attempts" `Quick
            test_retry_bounded_when_server_never_appears;
        ] );
    ]
