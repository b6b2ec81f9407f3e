(* Materialized-view tests: registry unit behaviour (register / drop /
   self-binding word views / the expression staleness protocol / epoch
   rebind), the Digraph observer-ordering guarantee the registry layers
   on, and QCheck consistency of every registered view against
   recompute-from-scratch under random interleavings of graph mutations,
   journal-record replays and compaction-epoch resets — standalone and on
   a replica applier — and a live primary whose word and expression views
   of one relation must agree when read over the socket. *)

open Mrpa_graph
open Mrpa_server
module A = Mrpa_analysis
module V = Views
module R = Replication

(* --- Infrastructure ------------------------------------------------------ *)

(* Name-level signature of a derived graph, read against the
   multi-relational graph its vertex ids index into — comparable across
   distinct graph values (interning order differs between replays). *)
let sg_sig g sg =
  List.sort compare
    (List.map
       (fun (i, j) ->
         ( Digraph.vertex_name g (Vertex.of_int i),
           Digraph.vertex_name g (Vertex.of_int j) ))
       (A.Simple_graph.edges sg))

let pairs = Alcotest.(list (pair string string))

(* Word views never go stale, so a word-view read must never re-project. *)
let no_reproject ~query:_ ~max_length:_ = Error "unexpected reprojection"

let local_reproject g seq ~query ~max_length =
  match Mrpa_engine.Parser.parse g query with
  | Error _ -> Error "parse failed"
  | Ok expr -> Ok (A.Projection.path_derived_expr g expr ~max_length, false, seq)

let read_word reg g name =
  match V.simple_graph reg ~name ~snap_seq:0 ~reproject:no_reproject with
  | Ok (sg, _) -> sg_sig g sg
  | Error _ -> Alcotest.failf "word view %S read failed" name

let recompute_word g labels =
  let rec resolve acc = function
    | [] -> Some (List.rev acc)
    | n :: rest -> (
      match Digraph.find_label g n with
      | Some l -> resolve (l :: acc) rest
      | None -> None)
  in
  match resolve [] labels with
  | None -> []
  | Some word -> sg_sig g (A.Projection.path_derived g word)

(* --- Registry basics ------------------------------------------------------ *)

let test_registry_basics () =
  let g = Digraph.create () in
  ignore (Digraph.add g "a" "r" "b");
  let reg = V.create () in
  V.attach reg g;
  Alcotest.(check bool)
    "register word" true
    (V.register reg ~name:"w" ~graph:g (V.Word [ "r" ]) = Ok ());
  Alcotest.(check bool)
    "duplicate rejected" true
    (Result.is_error (V.register reg ~name:"w" ~graph:g (V.Word [ "r" ])));
  Alcotest.(check bool)
    "empty word rejected" true
    (Result.is_error (V.register reg ~name:"x" ~graph:g (V.Word [])));
  Alcotest.(check bool)
    "empty name rejected" true
    (Result.is_error (V.register reg ~name:"" ~graph:g (V.Word [ "r" ])));
  Alcotest.(check bool)
    "register expr" true
    (V.register reg ~name:"e" ~graph:g
       (V.Expr { query = "[_,r,_]"; max_length = 4 })
    = Ok ());
  Alcotest.(check int) "count" 2 (V.count reg);
  Alcotest.(check bool) "drop" true (V.drop reg "w");
  Alcotest.(check bool) "drop unknown" false (V.drop reg "w");
  Alcotest.(check bool)
    "unknown read" true
    (V.simple_graph reg ~name:"w" ~snap_seq:0 ~reproject:no_reproject
    = Error V.Unknown_view);
  let infos = V.list reg ~snap_seq:0 in
  Alcotest.(check (list string)) "list names" [ "e" ]
    (List.map (fun i -> i.V.i_name) infos)

(* --- Word views: incremental maintenance ---------------------------------- *)

let test_word_incremental () =
  let g = Digraph.create () in
  ignore (Digraph.add g "a" "r" "b");
  ignore (Digraph.add g "b" "s" "c");
  let reg = V.create () in
  V.attach reg g;
  Alcotest.(check bool)
    "registered" true
    (V.register reg ~name:"rs" ~graph:g (V.Word [ "r"; "s" ]) = Ok ());
  let check_consistent msg =
    Alcotest.check pairs msg
      (recompute_word g [ "r"; "s" ])
      (read_word reg g "rs")
  in
  check_consistent "initial";
  (* Rank-1 update: an edge between known vertices. *)
  ignore (Digraph.add g "c" "r" "a");
  check_consistent "after in-dimension insert";
  (* Dimension growth: a brand-new vertex forces a full rebuild. *)
  ignore (Digraph.add g "c" "s" "d");
  check_consistent "after growth insert";
  (* Removal. *)
  ignore (Digraph.remove_edge g (Helpers.e g "a" "r" "b"));
  check_consistent "after removal";
  let info =
    List.find (fun i -> i.V.i_name = "rs") (V.list reg ~snap_seq:0)
  in
  Alcotest.(check bool) "updates counted" true (info.V.i_updates > 0);
  Alcotest.(check bool) "rebuild counted" true (info.V.i_rebuilds > 0)

let test_word_self_bind () =
  let g = Digraph.create () in
  let reg = V.create () in
  V.attach reg g;
  Alcotest.(check bool)
    "registered unbound" true
    (V.register reg ~name:"w" ~graph:g (V.Word [ "z" ]) = Ok ());
  let info = List.hd (V.list reg ~snap_seq:0) in
  Alcotest.(check bool) "starts unbound" false info.V.i_bound;
  Alcotest.check pairs "unbound reads empty" [] (read_word reg g "w");
  (* The insertion that makes the word resolvable binds the view, and the
     build includes that edge exactly once. *)
  ignore (Digraph.add g "a" "z" "b");
  let info = List.hd (V.list reg ~snap_seq:0) in
  Alcotest.(check bool) "bound now" true info.V.i_bound;
  Alcotest.check pairs "includes the binding edge" [ ("a", "b") ]
    (read_word reg g "w")

(* --- Expression views: the staleness protocol ------------------------------ *)

let test_expr_staleness () =
  let g = Digraph.create () in
  ignore (Digraph.add g "a" "r" "b");
  let reg = V.create () in
  V.attach reg g;
  Alcotest.(check bool)
    "registered" true
    (V.register reg ~name:"e" ~graph:g
       (V.Expr { query = "[_,r,_]"; max_length = 4 })
    = Ok ());
  let runs = ref 0 in
  let reproject seq ~query ~max_length =
    incr runs;
    local_reproject g seq ~query ~max_length
  in
  let read seq =
    match V.simple_graph reg ~name:"e" ~snap_seq:seq ~reproject:(reproject seq) with
    | Ok (sg, _) -> sg_sig g sg
    | Error _ -> Alcotest.fail "expr read failed"
  in
  Alcotest.check pairs "first read projects" [ ("a", "b") ] (read 0);
  Alcotest.(check int) "one projection" 1 !runs;
  ignore (read 0);
  Alcotest.(check int) "cached while fresh" 1 !runs;
  ignore (Digraph.add g "b" "r" "c");
  Alcotest.check pairs "stale read re-projects"
    [ ("a", "b"); ("b", "c") ]
    (read 1);
  Alcotest.(check int) "second projection" 2 !runs;
  let info = List.hd (V.list reg ~snap_seq:1) in
  Alcotest.(check int) "reprojections surfaced" 2 info.V.i_reprojections;
  Alcotest.(check bool) "fresh after read" false info.V.i_dirty

(* --- Rebind: epoch resets --------------------------------------------------- *)

let test_rebind () =
  let g1 = Digraph.create () in
  ignore (Digraph.add g1 "a" "r" "b");
  ignore (Digraph.add g1 "b" "r" "c");
  let reg = V.create () in
  V.attach reg g1;
  ignore (V.register reg ~name:"w" ~graph:g1 (V.Word [ "r" ]));
  ignore
    (V.register reg ~name:"e" ~graph:g1
       (V.Expr { query = "[_,r,_]"; max_length = 4 }));
  ignore
    (V.simple_graph reg ~name:"e" ~snap_seq:5
       ~reproject:(local_reproject g1 5));
  (* Replacement graph with a different interning order and one fewer
     edge — label ids shift, so rebuilding by id would be wrong. *)
  let g2 = Digraph.create () in
  ignore (Digraph.add g2 "x" "s" "y");
  ignore (Digraph.add g2 "b" "r" "c");
  V.rebind reg g2;
  Alcotest.check pairs "word rebuilt by name" [ ("b", "c") ]
    (read_word reg g2 "w");
  let info = List.find (fun i -> i.V.i_name = "e") (V.list reg ~snap_seq:0) in
  Alcotest.(check int) "expr invalidated" (-1) info.V.i_as_of_seq;
  Alcotest.(check bool) "expr dirty" true info.V.i_dirty;
  (* Old observers are detached: mutating the dead epoch's graph must not
     leak into the rebound views. *)
  ignore (Digraph.add g1 "c" "r" "d");
  Alcotest.check pairs "dead epoch ignored" [ ("b", "c") ]
    (read_word reg g2 "w");
  (* The new epoch's stream is live. *)
  ignore (Digraph.add g2 "c" "r" "d");
  Alcotest.check pairs "new epoch streams" [ ("b", "c"); ("c", "d") ]
    (read_word reg g2 "w")

(* --- The observer-ordering guarantee --------------------------------------- *)

(* Pins the contract documented on [Digraph.on_edge_added]: fan-out is
   registration order, deregistration preserves the survivors' relative
   order, re-registration moves a callback to the back. *)
let test_observer_order () =
  let g = Digraph.create () in
  let log = ref [] in
  let f1 _ = log := 1 :: !log in
  let f2 _ = log := 2 :: !log in
  let f3 _ = log := 3 :: !log in
  Digraph.on_edge_added g f1;
  Digraph.on_edge_added g f2;
  Digraph.on_edge_added g f3;
  ignore (Digraph.add g "a" "r" "b");
  Alcotest.(check (list int)) "registration order" [ 1; 2; 3 ] (List.rev !log);
  log := [];
  Digraph.off_edge_added g f2;
  ignore (Digraph.add g "a" "r" "c");
  Alcotest.(check (list int)) "off preserves order" [ 1; 3 ] (List.rev !log);
  log := [];
  Digraph.off_edge_added g f1;
  Digraph.on_edge_added g f1;
  ignore (Digraph.add g "a" "r" "d");
  Alcotest.(check (list int)) "re-register moves to back" [ 3; 1 ]
    (List.rev !log)

(* --- QCheck: views equal recompute under random interleavings --------------- *)

type op = Add of string * string * string | Del of int | Reset

let pp_op = function
  | Add (t, l, h) -> Printf.sprintf "Add(%s,%s,%s)" t l h
  | Del k -> Printf.sprintf "Del(%d)" k
  | Reset -> "Reset"

let ops_arb =
  let open QCheck.Gen in
  let v = oneofl [ "a"; "b"; "c"; "d" ] in
  let l = frequency [ (4, return "r"); (3, return "s"); (1, return "u") ] in
  let op =
    frequency
      [
        (6, map (fun ((t, lab), h) -> Add (t, lab, h)) (pair (pair v l) v));
        (3, map (fun k -> Del k) (int_bound 30));
        (1, return Reset);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    (list_size (int_range 1 40) op)

(* Seeds guarantee the expression view's labels are interned from the
   start; the [u] word view starts unbound and binds mid-run. *)
let seeded ops = Add ("a", "r", "b") :: Add ("b", "s", "c") :: ops

let word_specs = [ ("vr", [ "r" ]); ("vrs", [ "r"; "s" ]); ("vu", [ "u" ]) ]
let expr_name, expr_query, expr_ml = ("ve", "[_,r,_] . [_,s,_]*", 4)

let register_all reg g =
  List.iter
    (fun (name, labels) ->
      match V.register reg ~name ~graph:g (V.Word labels) with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    word_specs;
  match
    V.register reg ~name:expr_name ~graph:g
      (V.Expr { query = expr_query; max_length = expr_ml })
  with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* Every view equals recompute-from-scratch against the current graph. *)
let check_all reg g seq =
  List.iter
    (fun (name, labels) ->
      Alcotest.check pairs name (recompute_word g labels) (read_word reg g name))
    word_specs;
  match
    V.simple_graph reg ~name:expr_name ~snap_seq:seq
      ~reproject:(local_reproject g seq)
  with
  | Ok (sg, _) -> (
    match Mrpa_engine.Parser.parse g expr_query with
    | Error _ -> Alcotest.fail "view projected an unparseable query"
    | Ok expr ->
      Alcotest.check pairs expr_name
        (sg_sig g (A.Projection.path_derived_expr g expr ~max_length:expr_ml))
        (sg_sig g sg))
  | Error (V.Projection_failed _) ->
    (* Legal only when the query really does not resolve against this
       epoch's graph (a label vanished across the reset). *)
    Alcotest.(check bool)
      "projection failed but query parses" true
      (Result.is_error (Mrpa_engine.Parser.parse g expr_query))
  | Error V.Unknown_view -> Alcotest.fail "expr view vanished"

let prop_standalone ops =
  let g = ref (Digraph.create ()) in
  let seq = ref 0 in
  let reg = V.create () in
  V.attach reg !g;
  register_all reg !g;
  List.iter
    (fun op ->
      (match op with
      | Add (t, l, h) ->
        ignore (Digraph.add !g t l h);
        incr seq
      | Del k -> (
        match Digraph.edges !g with
        | [] -> ()
        | es ->
          ignore (Digraph.remove_edge !g (List.nth es (k mod List.length es)));
          incr seq)
      | Reset ->
        (* Compaction-style epoch replacement: a fresh graph replaying the
           surviving state in reverse edge order (interning order shifts),
           then a rebind; sequence numbers restart. *)
        let g2 = Digraph.create () in
        List.iter
          (fun v -> ignore (Digraph.vertex g2 (Digraph.vertex_name !g v)))
          (Digraph.vertices !g);
        List.iter
          (fun e ->
            ignore
              (Digraph.add g2
                 (Digraph.vertex_name !g (Edge.tail e))
                 (Digraph.label_name !g (Edge.label e))
                 (Digraph.vertex_name !g (Edge.head e))))
          (List.rev (Digraph.edges !g));
        g := g2;
        seq := 0;
        V.rebind reg g2);
      check_all reg !g !seq)
    (seeded ops);
  true

let prop_replica ops =
  let a = R.Apply.create () in
  let reg = V.create () in
  V.attach reg (R.Apply.graph a);
  register_all reg (R.Apply.graph a);
  let seq = ref 0 in
  let apply payload =
    incr seq;
    match R.Apply.apply_line a (Journal.frame ~seq:!seq payload) with
    | R.Apply.Applied _ -> ()
    | _ -> Alcotest.failf "record %S rejected" payload
  in
  List.iter
    (fun op ->
      (match op with
      | Add (t, l, h) -> apply (Printf.sprintf "add\t%s\t%s\t%s" t l h)
      | Del k -> (
        let g = R.Apply.graph a in
        match Digraph.edges g with
        | [] -> ()
        | es ->
          let e = List.nth es (k mod List.length es) in
          apply
            (Printf.sprintf "del\t%s\t%s\t%s"
               (Digraph.vertex_name g (Edge.tail e))
               (Digraph.label_name g (Edge.label e))
               (Digraph.vertex_name g (Edge.head e))))
      | Reset ->
        (* The reset handoff: the applier discards everything (fresh empty
           graph, sequence space restarts) and the registry rebinds. *)
        R.Apply.reset a;
        seq := 0;
        V.rebind reg (R.Apply.graph a));
      check_all reg (R.Apply.graph a) !seq)
    (seeded ops);
  true

let qcheck_cases =
  List.map
    (QCheck_alcotest.to_alcotest ~verbose:false)
    [
      QCheck.Test.make ~count:60 ~name:"standalone views equal recompute"
        ops_arb prop_standalone;
      QCheck.Test.make ~count:60 ~name:"replica views equal recompute" ops_arb
        prop_replica;
    ]

(* --- Served views: word and expression forms agree over the wire ---------- *)

(* A primary tailing a journal serves E_{knows.works_for} twice: as a word
   view (maintained incrementally from the live stream) and as an
   expression view (re-projected from the snapshot when stale). After each
   journaled write, both read over the socket must hold the same pairs. *)
let test_served_views_agree () =
  let dir = Filename.temp_file "mrpa_views" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let journal = Filename.concat dir "primary.log" in
  let ep = Wire.Unix_socket (Filename.concat dir "p.sock") in
  let writer = Digraph.create () in
  let j = Journal.attach ~on_warning:ignore writer journal in
  let seq = ref 0 in
  let write f =
    f ();
    incr seq;
    Journal.sync j
  in
  let add t l h = write (fun () -> ignore (Digraph.add writer t l h)) in
  for i = 0 to 5 do
    add (Printf.sprintf "p%d" i) "knows" (Printf.sprintf "p%d" ((i + 1) mod 6));
    add (Printf.sprintf "p%d" i) "works_for" (Printf.sprintf "o%d" (i mod 2))
  done;
  let server =
    Server.create
      {
        Server.front = Listener.default_config ep;
        workers = 2;
        queue_capacity = 8;
        limits = Wire.default_limits;
        max_predicted_cost = None;
        role = Server.Primary { journal };
      }
  in
  let thread = Thread.create (fun () -> Server.serve server) () in
  (* Retries ride out the server's start-up and [stale] answers from a
     snapshot that has not yet reached the requested [min_seq]. *)
  let request verb options =
    Client.request_retry
      ~policy:{ Client.retries = 8; backoff_ms = 20.0 }
      ep
      { Wire.id = Json.Null; verb; query = None; options }
    |> Result.map Json.parse
  in
  let views action ?(options = Wire.default_options) ?word ?view_query name =
    request
      (Wire.Views
         { Wire.action; view_name = name; word; view_query; measure = None;
           top = None })
      options
  in
  let ok what = function
    | Ok (Ok json) when Json.member "ok" json = Some (Json.Bool true) -> json
    | Ok (Ok json) -> Alcotest.failf "%s: %s" what (Json.to_string json)
    | Ok (Error m) | Error m -> Alcotest.failf "%s: %s" what m
  in
  (* Read a view pinned at the latest write. *)
  let read name =
    let options = { Wire.default_options with min_seq = Some !seq } in
    let json = ok ("read " ^ name) (views Wire.V_edges ~options (Some name)) in
    let view = Option.get (Json.member "view" json) in
    Alcotest.(check (option bool))
      (name ^ " complete") (Some false)
      (Option.bind (Json.member "partial" view) Json.to_bool_opt);
    match Json.member "pairs" view with
    | Some (Json.List ps) ->
      List.sort compare
        (List.map
           (function
             | Json.List [ Json.String a; Json.String b ] -> (a, b)
             | p -> Alcotest.failf "bad pair %s" (Json.to_string p))
           ps)
    | _ -> Alcotest.failf "%s: no pairs" name
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join thread;
      Journal.close j;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      ignore
        (ok "register word"
           (views Wire.V_register ~word:[ "knows"; "works_for" ] (Some "kw")));
      ignore
        (ok "register expr"
           (views Wire.V_register
              ~options:{ Wire.default_options with max_length = Some 4 }
              ~view_query:"[_,knows,_] . [_,works_for,_]" (Some "ke")));
      let rounds =
        [
          ("in-dimension insert", fun () -> add "p0" "knows" "p3");
          ("second employer", fun () -> add "p2" "works_for" "o1");
          ("new vertex", fun () -> add "p5" "knows" "n0");
          ("new vertex employed", fun () -> add "n0" "works_for" "o0");
          ( "removal",
            fun () ->
              write (fun () ->
                  ignore
                    (Digraph.remove_edge writer
                       (Helpers.e writer "p1" "knows" "p2"))) );
        ]
      in
      List.iter
        (fun (what, round) ->
          round ();
          let word = read "kw" in
          Alcotest.(check bool) (what ^ ": non-empty") true (word <> []);
          Alcotest.check pairs (what ^ ": word = expr") word (read "ke"))
        (("seed", ignore) :: rounds);
      let listed = ok "list" (views Wire.V_list None) in
      let updates =
        match Json.member "views" listed with
        | Some (Json.List vs) ->
          List.find_map
            (fun v ->
              if Json.member "name" v = Some (Json.String "kw") then
                Option.bind (Json.member "updates" v) Json.to_int_opt
              else None)
            vs
        | _ -> None
      in
      Alcotest.(check bool)
        "word view maintained incrementally" true
        (Option.value ~default:0 updates > 0))

let () =
  Alcotest.run "views"
    [
      ( "registry",
        [
          Alcotest.test_case "basics" `Quick test_registry_basics;
          Alcotest.test_case "word incremental" `Quick test_word_incremental;
          Alcotest.test_case "word self-bind" `Quick test_word_self_bind;
          Alcotest.test_case "expr staleness" `Quick test_expr_staleness;
          Alcotest.test_case "rebind" `Quick test_rebind;
        ] );
      ( "digraph",
        [ Alcotest.test_case "observer order" `Quick test_observer_order ] );
      ("property", qcheck_cases);
      ( "served",
        [
          Alcotest.test_case "word and expr views agree" `Quick
            test_served_views_agree;
        ] );
    ]
