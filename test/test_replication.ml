(* Replication tests: the deterministic fault plane, the journal tailer
   (Source), the stream applier (Apply), QCheck prefix-consistency under
   every fault kind, and an end-to-end primary/replica pair with client
   failover across a dying primary. *)

open Mrpa_graph
open Mrpa_server
module H = Helpers
module R = Replication

(* --- Infrastructure ------------------------------------------------------ *)

let with_tmp_dir f =
  let dir = Filename.temp_file "mrpa_repl" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      R.Fault.disarm ();
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

let with_tmp_journal f =
  with_tmp_dir (fun dir -> f (Filename.concat dir "j.log"))

(* Name-level signature of a graph, for equality across distinct graph
   values (interned ids differ between replays). *)
let graph_sig g =
  let name_of e =
    ( Digraph.vertex_name g (Edge.tail e),
      Digraph.label_name g (Edge.label e),
      Digraph.vertex_name g (Edge.head e) )
  in
  ( List.sort compare (List.map (Digraph.vertex_name g) (Digraph.vertices g)),
    List.sort compare (List.map name_of (Digraph.edges g)) )

let check_same_graph msg expected actual =
  Alcotest.(check (pair (list string) (list (triple string string string))))
    msg (graph_sig expected) (graph_sig actual)

let apply_step j g = function
  | `Add (t, l, h) -> ignore (Digraph.add g t l h)
  | `Del (t, l, h) ->
    ignore (Digraph.remove_edge g (H.e g t l h))
  | `Vertex n -> Journal.record_vertex j g n

let script =
  [ `Add ("a", "r", "b"); `Add ("b", "r", "c"); `Del ("a", "r", "b");
    `Vertex ("lone"); `Add ("c", "s", "d"); `Add ("d", "s", "a") ]

(* Write [steps] through an attached journal at [path]; returns the
   writer's graph. *)
let write_script path steps =
  let g = Digraph.create () in
  let j = Journal.attach ~on_warning:ignore g path in
  List.iter (apply_step j g) steps;
  Journal.sync j;
  Journal.close j;
  g

(* --- Fault plane ---------------------------------------------------------- *)

let test_fault_plane () =
  let deliver = List.map (fun l -> R.Fault.Deliver l) in
  (* unarmed: pass-through *)
  R.Fault.disarm ();
  Alcotest.(check bool) "pass-through" true (R.Fault.apply "x" = deliver [ "x" ]);
  (* drop the 2nd record *)
  R.Fault.arm R.Fault.Drop ~at:2;
  Alcotest.(check bool) "before drop" true (R.Fault.apply "r1" = deliver [ "r1" ]);
  Alcotest.(check bool) "dropped" true (R.Fault.apply "r2" = []);
  Alcotest.(check bool) "after drop" true (R.Fault.apply "r3" = deliver [ "r3" ]);
  (* duplicate *)
  R.Fault.arm R.Fault.Duplicate ~at:1;
  Alcotest.(check bool) "duplicated" true
    (R.Fault.apply "r1" = deliver [ "r1"; "r1" ]);
  (* reorder: r1 held, flushed behind r2 *)
  R.Fault.arm R.Fault.Reorder ~at:1;
  Alcotest.(check bool) "held" true (R.Fault.apply "r1" = []);
  Alcotest.(check bool) "swapped" true
    (R.Fault.apply "r2" = deliver [ "r2"; "r1" ]);
  (* tear: half the bytes then the connection dies *)
  R.Fault.arm R.Fault.Tear ~at:1;
  Alcotest.(check bool) "torn" true
    (R.Fault.apply "abcdef" = [ R.Fault.Tear_after "abc" ]);
  R.Fault.disarm ();
  Alcotest.check_raises "at < 1 rejected"
    (Invalid_argument "Replication.Fault.arm: at must be >= 1") (fun () ->
      R.Fault.arm R.Fault.Drop ~at:0)

(* --- Source: tailing the journal ------------------------------------------ *)

let test_source_tail () =
  with_tmp_journal (fun path ->
      let src = R.Source.create path in
      Alcotest.(check (list int)) "missing file: no records" []
        (List.map (fun r -> r.R.seq) (R.Source.poll src));
      let writer = write_script path script in
      let records = R.Source.poll src in
      Alcotest.(check (list int))
        "all records, 1-based, in order"
        (List.init (List.length script) (fun i -> i + 1))
        (List.map (fun r -> r.R.seq) records);
      Alcotest.(check int) "last_seq" (List.length script) (R.Source.last_seq src);
      check_same_graph "tailing replays the writer's state" writer
        (R.Source.graph src);
      Alcotest.(check (list int)) "idle poll: nothing new" []
        (List.map (fun r -> r.R.seq) (R.Source.poll src));
      (* Incremental append: only the new records come back. *)
      let g2 = Digraph.create () in
      let j2 = Journal.attach ~on_warning:ignore g2 path in
      ignore (Digraph.add g2 "x" "r" "y");
      Journal.sync j2;
      Journal.close j2;
      let more = R.Source.poll src in
      Alcotest.(check (list int)) "one new record"
        [ List.length script + 1 ]
        (List.map (fun r -> r.R.seq) more);
      check_same_graph "still in sync" g2 (R.Source.graph src))

let test_source_torn_tail () =
  with_tmp_journal (fun path ->
      ignore (write_script path script);
      let src = R.Source.create path in
      let n = List.length (R.Source.poll src) in
      (* Append half a record, no newline: stays pending, nothing breaks. *)
      let torn = Journal.frame ~seq:(n + 1) "add\tp\tq\tr" in
      let half = String.sub torn 0 (String.length torn / 2) in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc half;
      close_out oc;
      Alcotest.(check (list int)) "torn tail pending" []
        (List.map (fun r -> r.R.seq) (R.Source.poll src));
      Alcotest.(check bool) "not wedged by a torn tail" true
        (R.Source.wedged src = None);
      (* Writer completes the record: it applies on the next poll. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc (String.sub torn (String.length half)
                          (String.length torn - String.length half));
      output_string oc "\n";
      close_out oc;
      Alcotest.(check (list int)) "completed record applies" [ n + 1 ]
        (List.map (fun r -> r.R.seq) (R.Source.poll src)))

let test_source_compaction_epoch () =
  with_tmp_journal (fun path ->
      ignore (write_script path script);
      let src = R.Source.create path in
      ignore (R.Source.poll src);
      let epoch0 = R.Source.epoch src in
      (* Compact: new inode, resequenced from 1 — the tailer must start a
         new epoch rather than mis-read old sequence state. *)
      let g = Digraph.create () in
      let j = Journal.attach ~on_warning:ignore g path in
      Journal.compact j;
      ignore (Digraph.add g "post" "compact" "edge");
      Journal.sync j;
      Journal.close j;
      let records = R.Source.poll src in
      Alcotest.(check bool) "epoch bumped" true (R.Source.epoch src > epoch0);
      Alcotest.(check bool) "records resequenced from 1" true
        (match records with { R.seq = 1; _ } :: _ -> true | _ -> false);
      check_same_graph "compacted state + tail" g (R.Source.graph src))

let test_source_backlog () =
  with_tmp_journal (fun path ->
      ignore (write_script path script);
      let src = R.Source.create path in
      ignore (R.Source.poll src);
      let n = R.Source.last_seq src in
      let epoch = R.Source.epoch src in
      (match R.Source.backlog src ~from_seq:3 ~epoch with
      | R.Source.Tail records ->
        Alcotest.(check (list int)) "tail from 3"
          (List.init (n - 2) (fun i -> i + 3))
          (List.map (fun r -> r.R.seq) records)
      | R.Source.Reset _ -> Alcotest.fail "same epoch should be a Tail");
      (match R.Source.backlog src ~from_seq:(n + 1) ~epoch with
      | R.Source.Tail [] -> ()
      | _ -> Alcotest.fail "caught-up subscriber gets an empty Tail");
      (match R.Source.backlog src ~from_seq:3 ~epoch:(epoch + 1) with
      | R.Source.Reset records ->
        Alcotest.(check int) "reset carries full history" n
          (List.length records)
      | R.Source.Tail _ -> Alcotest.fail "epoch mismatch must Reset");
      match R.Source.backlog src ~from_seq:(n + 5) ~epoch with
      | R.Source.Reset _ -> ()
      | R.Source.Tail _ -> Alcotest.fail "subscriber ahead of us must Reset")

(* --- Apply: the replica's stream discipline ------------------------------- *)

let test_apply_discipline () =
  with_tmp_journal (fun path ->
      let writer = write_script path script in
      let src = R.Source.create path in
      let records = R.Source.poll src in
      let a = R.Apply.create () in
      List.iter
        (fun r ->
          match R.Apply.apply_line a r.R.line with
          | R.Apply.Applied seq ->
            Alcotest.(check int) "applied in order" r.R.seq seq
          | _ -> Alcotest.fail "in-order record must apply")
        records;
      check_same_graph "replica converges" writer (R.Apply.graph a);
      let last = R.Apply.last_applied a in
      (* Duplicates are skipped, not re-applied. *)
      (match R.Apply.apply_line a (List.hd records).R.line with
      | R.Apply.Skipped -> ()
      | _ -> Alcotest.fail "duplicate must be Skipped");
      (* A gap demands a resync. *)
      (match R.Apply.apply_line a (Journal.frame ~seq:(last + 5) "vertex\tz") with
      | R.Apply.Resync _ -> ()
      | _ -> Alcotest.fail "gap must Resync");
      (* Heartbeats: at-or-behind is liveness, ahead means lost records. *)
      (match R.Apply.apply_line a (R.heartbeat ~seq:last) with
      | R.Apply.Heartbeat seq -> Alcotest.(check int) "hb seq" last seq
      | _ -> Alcotest.fail "heartbeat at last_applied is fine");
      (match R.Apply.apply_line a (R.heartbeat ~seq:(last + 1)) with
      | R.Apply.Resync _ -> ()
      | _ -> Alcotest.fail "heartbeat ahead must Resync");
      (* Corrupt frames demand a resync. *)
      let good = Journal.frame ~seq:(last + 1) "vertex\tz" in
      let bad = String.mapi (fun i c -> if i = String.length good - 1 then
          (if c = 'z' then 'y' else 'z') else c) good in
      (match R.Apply.apply_line a bad with
      | R.Apply.Resync _ -> ()
      | _ -> Alcotest.fail "corrupt frame must Resync");
      (* Plain comments and blanks are skipped. *)
      Alcotest.(check bool) "comment skipped" true
        (R.Apply.apply_line a "# a comment" = R.Apply.Skipped);
      Alcotest.(check bool) "blank skipped" true
        (R.Apply.apply_line a "" = R.Apply.Skipped))

(* --- QCheck: prefix consistency under faults ------------------------------ *)

(* Simulate the full channel — backlog handoff, fault plane, applier,
   resubscribe-on-resync — without sockets, and demand convergence: after
   the stream drains (with a trailing heartbeat, the lost-record
   detector), the replica's graph equals the primary's. *)
let run_channel src a ~fault ~fault_at =
  R.Fault.arm fault ~at:fault_at;
  let rounds = ref 0 in
  let finished = ref false in
  while (not !finished) && !rounds < 12 do
    incr rounds;
    let backlog =
      match
        R.Source.backlog src
          ~from_seq:(R.Apply.last_applied a + 1)
          ~epoch:(R.Source.epoch src)
      with
      | R.Source.Tail records -> records
      | R.Source.Reset records ->
        R.Apply.reset a;
        records
    in
    (* The wire: every record line through the fault plane, then a
       heartbeat (bypasses the plane, as in the server). *)
    let lines =
      List.concat_map (fun r -> R.Fault.apply r.R.line) backlog
      @ [ R.Fault.Deliver (R.heartbeat ~seq:(R.Source.last_seq src)) ]
    in
    let broken = ref false in
    (try
       List.iter
         (fun action ->
           if not !broken then
             match action with
             | R.Fault.Tear_after partial ->
               (* The connection died mid-line; the partial bytes never
                  form a line, so the applier never sees them. *)
               ignore partial;
               broken := true
             | R.Fault.Deliver line -> (
               match R.Apply.apply_line a line with
               | R.Apply.Applied _ | R.Apply.Skipped | R.Apply.Heartbeat _ ->
                 ()
               | R.Apply.Resync _ -> broken := true))
         lines
     with Exit -> ());
    if not !broken then finished := true
  done;
  R.Fault.disarm ();
  !finished

let qcheck_prefix_consistency =
  let gen =
    QCheck2.Gen.(
      let* n_steps = int_range 1 12 in
      let* step_codes = list_size (return n_steps) (int_bound 9) in
      let* fault = int_bound 3 in
      let* fault_at = int_range 1 (max 1 n_steps) in
      return (step_codes, fault, fault_at))
  in
  let print (codes, fault, at) =
    Printf.sprintf "steps=[%s] fault=%d at=%d"
      (String.concat ";" (List.map string_of_int codes))
      fault at
  in
  H.qtest ~count:80 "replica converges under every fault" gen print
    (fun (step_codes, fault, fault_at) ->
      let fault =
        match fault with
        | 0 -> R.Fault.Drop
        | 1 -> R.Fault.Duplicate
        | 2 -> R.Fault.Reorder
        | _ -> R.Fault.Tear
      in
      let vertex i = Printf.sprintf "v%d" (i mod 5) in
      let steps =
        List.mapi
          (fun i code ->
            if code < 8 then `Add (vertex i, "r", vertex (code mod 5))
            else `Vertex (Printf.sprintf "solo%d" i))
          step_codes
      in
      let ok = ref false in
      with_tmp_journal (fun path ->
          ignore (write_script path steps);
          let src = R.Source.create path in
          ignore (R.Source.poll src);
          let a = R.Apply.create () in
          let finished = run_channel src a ~fault ~fault_at in
          ok :=
            finished
            && graph_sig (R.Source.graph src) = graph_sig (R.Apply.graph a)
            && R.Apply.last_applied a = R.Source.last_seq src);
      !ok)

(* --- End to end: primary, replica, failover ------------------------------- *)

let base_config endpoint role =
  {
    Server.front = Listener.default_config endpoint;
    workers = 2;
    queue_capacity = 8;
    limits = Wire.default_limits;
    max_predicted_cost = None;
    role;
  }

let await ?(timeout = 10.0) msg cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" msg
    else begin
      Thread.yield ();
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let health_field ep field =
  let req =
    { Wire.id = Json.Null; verb = Wire.Health; query = None;
      options = Wire.default_options }
  in
  match Client.connect ep with
  | Error _ -> None
  | Ok conn ->
    Fun.protect
      ~finally:(fun () -> Client.close conn)
      (fun () ->
        match Client.request conn req with
        | Error _ -> None
        | Ok json ->
          Option.bind (Json.member "health" json) (Json.member field))

let response_error_code line =
  match Json.parse line with
  | Error _ -> None
  | Ok json ->
    Option.bind (Json.member "error" json) (fun e ->
        Option.bind (Json.member "code" e) Json.to_string_opt)

let test_e2e_replication () =
  with_tmp_dir (fun dir ->
      let journal = Filename.concat dir "primary.log" in
      let p_sock = Filename.concat dir "p.sock" in
      let r_sock = Filename.concat dir "r.sock" in
      let p_ep = Wire.Unix_socket p_sock in
      let r_ep = Wire.Unix_socket r_sock in
      (* Seed the journal before the primary starts: a restarted primary
         must serve its data immediately. *)
      let writer = Digraph.create () in
      let j = Journal.attach ~on_warning:ignore writer journal in
      ignore (Digraph.add writer "a" "knows" "b");
      ignore (Digraph.add writer "b" "knows" "c");
      Journal.sync j;
      let primary =
        Server.create (base_config p_ep (Server.Primary { journal }))
      in
      let p_thread = Thread.create (fun () -> Server.serve primary) () in
      let replica =
        Server.create (base_config r_ep (Server.Replica { follow = p_ep }))
      in
      let r_thread = Thread.create (fun () -> Server.serve replica) () in
      let primary_stopped = ref false in
      Fun.protect
        ~finally:(fun () ->
          if not !primary_stopped then Server.stop primary;
          Server.stop replica;
          Thread.join p_thread;
          Thread.join r_thread;
          Journal.close j)
        (fun () ->
          await "primary health" (fun () ->
              health_field p_ep "role" = Some (Json.String "primary"));
          Alcotest.(check (option int))
            "primary replayed the seed journal" (Some 2)
            (Option.bind (health_field p_ep "last_seq") Json.to_int_opt);
          (* Replica catches up to the seed records. *)
          await "replica catch-up" (fun () ->
              Option.bind (health_field r_ep "last_seq") Json.to_int_opt
              = Some 2
              && Option.bind (health_field r_ep "lag") Json.to_int_opt
                 = Some 0);
          Alcotest.(check (option bool))
            "replica connected" (Some true)
            (Option.bind (health_field r_ep "connected") Json.to_bool_opt);
          (* Live write: appended records stream through. *)
          ignore (Digraph.add writer "c" "knows" "d");
          Journal.sync j;
          await "live record replicated" (fun () ->
              Option.bind (health_field r_ep "last_seq") Json.to_int_opt
              = Some 3);
          (* The replica serves the replicated data... *)
          let query ep options =
            let req =
              { Wire.id = Json.Null; verb = Wire.Count;
                query = Some "[c,knows,_]"; options }
            in
            Client.request_retry ep req
          in
          await "replica snapshot includes seq 3" (fun () ->
              match
                query r_ep { Wire.default_options with min_seq = Some 3 }
              with
              | Ok line -> response_error_code line = None
              | Error _ -> false);
          (* ...but honestly refuses a bound it cannot meet. *)
          (match
             query r_ep { Wire.default_options with min_seq = Some 99 }
           with
          | Ok line ->
            Alcotest.(check (option string))
              "unreachable min_seq is a stale error" (Some "stale")
              (response_error_code line)
          | Error m -> Alcotest.failf "stale probe failed: %s" m);
          (* An authority ignores max_staleness (it is never stale). *)
          (match
             query p_ep
               { Wire.default_options with max_staleness_ms = Some 1.0 }
           with
          | Ok line ->
            Alcotest.(check (option string))
              "primary is never stale" None (response_error_code line)
          | Error m -> Alcotest.failf "primary probe failed: %s" m);
          (* Failover: the same endpoint list works before, during and
             after the primary's death. *)
          let failover () =
            Client.request_failover
              ~policy:{ Client.retries = 6; backoff_ms = 20.0 }
              ~sleep:(fun _ -> Unix.sleepf 0.01)
              [ p_ep; r_ep ]
              { Wire.id = Json.Null; verb = Wire.Count;
                query = Some "[c,knows,_]"; options = Wire.default_options }
          in
          (match failover () with
          | Ok line ->
            Alcotest.(check (option string)) "failover before death" None
              (response_error_code line)
          | Error m -> Alcotest.failf "failover before death: %s" m);
          Server.stop primary;
          Thread.join p_thread;
          primary_stopped := true;
          (match failover () with
          | Ok line ->
            Alcotest.(check (option string)) "failover after death" None
              (response_error_code line)
          | Error m -> Alcotest.failf "failover after death: %s" m);
          (* The replica notices the loss and reports it honestly. *)
          await "replica reports disconnect" (fun () ->
              Option.bind (health_field r_ep "connected") Json.to_bool_opt
              = Some false);
          Alcotest.(check (option int))
            "replica still serves its prefix" (Some 3)
            (Option.bind (health_field r_ep "last_seq") Json.to_int_opt)))

(* Standalone servers answer health too, and reject min_seq demands — they
   have no journal to be at any sequence of. *)
let test_standalone_health_and_stale () =
  with_tmp_dir (fun dir ->
      let sock = Filename.concat dir "s.sock" in
      let ep = Wire.Unix_socket sock in
      let snapshot = Snapshot.of_graph (H.paper_graph ()) in
      let server =
        Server.create ~snapshot (base_config ep Server.Standalone)
      in
      let thread = Thread.create (fun () -> Server.serve server) () in
      Fun.protect
        ~finally:(fun () ->
          Server.stop server;
          Thread.join thread)
        (fun () ->
          await "standalone health" (fun () ->
              health_field ep "role" = Some (Json.String "standalone"));
          let req options =
            { Wire.id = Json.Null; verb = Wire.Count;
              query = Some "[i,alpha,_]"; options }
          in
          (match
             Client.request_retry ep
               (req { Wire.default_options with min_seq = Some 1 })
           with
          | Ok line ->
            Alcotest.(check (option string))
              "standalone min_seq is stale" (Some "stale")
              (response_error_code line)
          | Error m -> Alcotest.failf "stale probe failed: %s" m);
          match
            Client.request_retry ep
              (req { Wire.default_options with max_staleness_ms = Some 1.0 })
          with
          | Ok line ->
            Alcotest.(check (option string))
              "standalone never max-stale" None (response_error_code line)
          | Error m -> Alcotest.failf "staleness probe failed: %s" m))

let () =
  Alcotest.run "replication"
    [
      ( "fault-plane",
        [ Alcotest.test_case "actions" `Quick test_fault_plane ] );
      ( "source",
        [
          Alcotest.test_case "tail" `Quick test_source_tail;
          Alcotest.test_case "torn tail" `Quick test_source_torn_tail;
          Alcotest.test_case "compaction epoch" `Quick
            test_source_compaction_epoch;
          Alcotest.test_case "backlog" `Quick test_source_backlog;
        ] );
      ( "apply",
        [ Alcotest.test_case "stream discipline" `Quick test_apply_discipline ]
      );
      ("property", [ qcheck_prefix_consistency ]);
      ( "end-to-end",
        [
          Alcotest.test_case "primary/replica/failover" `Quick
            test_e2e_replication;
          Alcotest.test_case "standalone health" `Quick
            test_standalone_health_and_stale;
        ] );
    ]
