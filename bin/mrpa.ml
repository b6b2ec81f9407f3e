(* mrpa — command-line front end for the multi-relational path algebra.

   Subcommands, by what they work on:
     graphs         generate, stats, dot, graphml, partition, project,
                    communities, fig1
     queries        query, lint, explain, shell, crpq, equiv, recognize,
                    sample, cheapest, automaton
     servers        serve, route, call, views
     journals       append, fsck

   `query`, `lint` and `shell` answer through an in-process server
   ([open_front]), so they give the answers `serve` gives; `explain`
   plans over the same snapshot. *)

open Mrpa_graph
open Mrpa_core
open Cmdliner

(* --- Shared helpers ------------------------------------------------------ *)

(* [load path] with the file's errors as messages; [load] is [Io.load] or
   a loader built on it. *)
let loading load path =
  try Ok (load path) with
  | Sys_error msg -> Error msg
  | Io.Malformed (line, text) ->
    Error (Printf.sprintf "%s: malformed line %d: %s" path line text)

let load_graph = loading Io.load

(* Exit-code policy (documented in Mrpa_engine.Err): 0 ok, 1 user/input
   error, 2 internal error, 3 partial result under a budget or limit. *)
let or_die = function
  | Ok v -> v
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit Mrpa_engine.Err.exit_user_error

(* Parse with the source in hand so errors come out caret-rendered. *)
let parse_or_die g query =
  match Mrpa_engine.Parser.parse g query with
  | Ok e -> e
  | Error e ->
    or_die (Error (Mrpa_engine.Parser.render_error ~source:query e))

(* A name the graph must know, or a user error naming it. *)
let resolve what find name =
  match find name with
  | Some x -> x
  | None -> or_die (Error (Printf.sprintf "unknown %s %S" what name))

let graph_arg =
  let doc = "Graph file (TSV edge list: tail<TAB>label<TAB>head)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc)

let seed_arg =
  let doc = "PRNG seed (workloads are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let output_arg =
  let doc = "Output file; \"-\" for standard output." in
  Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let write_output output text =
  if output = "-" then print_string text
  else
    match open_out output with
    | exception Sys_error msg -> or_die (Error msg)
    | oc ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc text)

(* --- Budgets -------------------------------------------------------------- *)

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget in milliseconds (monotonic clock). When it \
           expires the run stops at the next checkpoint and returns the \
           sound partial result found so far, exiting 3.")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"STEPS"
        ~doc:
          "Work budget: total evaluator transition steps the run may spend \
           before stopping with a partial result (exit 3).")

let max_paths_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-paths" ] ~docv:"N"
        ~doc:
          "Memory budget: maximum live/banked paths the run may hold at \
           once before stopping with a partial result (exit 3).")

let inject_fault_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject-fault" ] ~docv:"REASON@N"
        ~doc:
          "Testing aid: deterministically trip the budget with REASON \
           (deadline, fuel, memory or cancelled) at the N-th checkpoint \
           (1-based), regardless of the real clock or counters. Makes \
           budget behaviour reproducible in tests without sleeping.")

let guard_reason_of_name = function
  | "deadline" -> Some Guard.Deadline
  | "fuel" -> Some Guard.Fuel
  | "memory" -> Some Guard.Memory
  | "cancelled" -> Some Guard.Cancelled
  | _ -> None

let parse_fault spec =
  let fail () =
    Error
      (Printf.sprintf
         "bad --inject-fault %S (expected REASON@N with REASON one of \
          deadline, fuel, memory, cancelled and N >= 1)"
         spec)
  in
  match String.index_opt spec '@' with
  | None -> fail ()
  | Some i -> (
    let name = String.sub spec 0 i in
    let pos = String.sub spec (i + 1) (String.length spec - i - 1) in
    match (guard_reason_of_name name, int_of_string_opt pos) with
    | Some reason, Some at when at >= 1 -> Ok (reason, at)
    | _ -> fail ())

(* --inject-fault as a budget wrapper; the identity when unset. *)
let fault_of_flag = function
  | None -> Fun.id
  | Some spec ->
    let reason, at = or_die (parse_fault spec) in
    Mrpa_engine.Budget.with_fault_injection ~at reason

let pp_partial_note fmt verdict =
  match verdict with
  | Mrpa_engine.Err.Complete -> ()
  | Mrpa_engine.Err.Partial reason ->
    Format.fprintf fmt "-- partial result (%s): some paths may be missing@."
      (Mrpa_engine.Err.reason_name reason)

(* --- Wire requests ----------------------------------------------------------- *)

(* The one flags -> options rule of every client: only send a max_length
   the user chose, so the server's own bound applies to unset requests. *)
let wire_options ?strategy ?limit ?(simple = false) ~max_length ?deadline_ms
    ?fuel ?max_paths ?min_seq ?max_staleness_ms () =
  {
    Mrpa_server.Wire.default_options with
    strategy;
    limit;
    max_length =
      (if max_length = Mrpa_engine.Engine.default_max_length then None
       else Some max_length);
    simple;
    deadline_ms;
    fuel;
    max_paths;
    min_seq;
    max_staleness_ms;
  }

module J = Mrpa_server.Json

(* A response's place in the exit-code policy: an error response wins over
   a partial answer (a "partial:REASON" verdict, or a view re-projection
   that tripped its budget, which names no reason) over a complete one. *)
let response_status json =
  match J.member "ok" json with
  | Some (J.Bool true) -> (
    let verdict =
      match J.member "result" json with
      | Some result -> J.member "verdict" result
      | None -> J.member "verdict" json
    in
    match Option.bind verdict J.to_string_opt with
    | Some v when String.starts_with ~prefix:"partial" v ->
      `Partial
        (Option.bind
           (List.nth_opt (String.split_on_char ':' v) 1)
           Mrpa_engine.Err.reason_of_name)
    | _ ->
      if
        Option.bind (J.member "view" json) (J.member "partial")
        = Some (J.Bool true)
      then `Partial None
      else `Complete)
  | _ -> `Error

let exit_code_of_status = function
  | `Error -> Mrpa_engine.Err.exit_user_error
  | `Partial _ -> Mrpa_engine.Err.exit_partial
  | `Complete -> Mrpa_engine.Err.exit_ok

(* --- generate ------------------------------------------------------------- *)

let generate_cmd =
  let kind_arg =
    let doc =
      "Workload kind: uniform, preferential, ring, lattice, star, complete, \
       layered, social, kb, fig1."
    in
    Arg.(value & opt string "uniform" & info [ "kind" ] ~doc)
  in
  let n_arg =
    Arg.(value & opt int 50 & info [ "n" ] ~doc:"Primary size (vertices/people).")
  in
  let m_arg =
    Arg.(value & opt int 200 & info [ "m" ] ~doc:"Edge count (where applicable).")
  in
  let k_arg =
    Arg.(value & opt int 3 & info [ "k" ] ~doc:"Number of edge labels |Omega|.")
  in
  let run kind n m k seed output =
    let rng = Prng.create seed in
    let g =
      match kind with
      | "uniform" -> Generate.uniform ~rng ~n_vertices:n ~n_edges:m ~n_labels:k
      | "preferential" ->
        Generate.preferential ~rng ~n_vertices:n ~out_degree:(max 1 (m / n)) ~n_labels:k
      | "ring" -> Generate.ring ~n ~n_labels:k
      | "lattice" ->
        let side = max 2 (int_of_float (sqrt (float_of_int n))) in
        Generate.lattice ~rows:side ~cols:side
      | "star" -> Generate.star ~n_leaves:n
      | "complete" -> Generate.complete ~n ~n_labels:k
      | "layered" ->
        Generate.layered ~rng ~layers:(max 2 (n / 10)) ~width:10 ~fanout:3 ~n_labels:k
      | "social" ->
        Generate.social ~rng ~n_people:n ~n_orgs:(max 2 (n / 20))
          ~n_projects:(max 3 (n / 10))
      | "kb" -> Generate.knowledge_base ~rng ~n_entities:(max 6 n)
      | "fig1" -> Generate.fig1 ~rng ~n_noise_vertices:n ~n_noise_edges:m
      | other ->
        Printf.eprintf "unknown workload kind %S\n" other;
        exit Mrpa_engine.Err.exit_user_error
    in
    write_output output (Io.to_string g);
    Printf.eprintf "generated %s: %s\n" kind
      (Format.asprintf "%a" Digraph.pp_stats g)
  in
  let term = Term.(const run $ kind_arg $ n_arg $ m_arg $ k_arg $ seed_arg $ output_arg) in
  Cmd.v (Cmd.info "generate" ~doc:"Synthesise a workload graph") term

(* --- stats ------------------------------------------------------------------ *)

let stats_cmd =
  let run path =
    let g = or_die (load_graph path) in
    Format.printf "%a@." Stat.pp_report g
  in
  let term = Term.(const run $ graph_arg) in
  Cmd.v (Cmd.info "stats" ~doc:"Print graph statistics") term

(* --- query / explain ---------------------------------------------------------- *)

let query_pos =
  let doc =
    "Regular path query, e.g. '[i,alpha,_] . [_,beta,_]* . [_,alpha,k]'."
  in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc)

let max_length_arg =
  Arg.(
    value
    & opt int Mrpa_engine.Engine.default_max_length
    & info [ "max-length" ] ~doc:"Bound on path length (star unrolling).")

let limit_arg =
  Arg.(value & opt (some int) None & info [ "limit" ] ~doc:"Stop after this many paths.")

let strategy_arg =
  let conv_strategy s =
    match Mrpa_engine.Plan.strategy_of_string s with
    | Some strategy -> Ok strategy
    | None ->
      Error (Printf.sprintf "unknown strategy %S (reference|stack|bfs)" s)
  in
  let parse s = Result.map_error (fun m -> `Msg m) (conv_strategy s) in
  let print fmt s =
    Format.pp_print_string fmt (Mrpa_engine.Plan.strategy_name s)
  in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "strategy" ] ~doc:"Force evaluation strategy: reference, stack, bfs.")

let count_arg =
  Arg.(
    value & flag
    & info [ "count" ]
        ~doc:
          "Print only the number of paths (with --json, the count and its \
           verdict). Without --limit, --simple or a forced strategy this \
           uses the counting engine (no path set is materialised); with \
           any of them, or with --profile or --profile-json, the answer is \
           evaluated and the count is its size.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of text.")

let simple_arg =
  Arg.(
    value & flag
    & info [ "simple" ] ~doc:"Restrict to simple paths (no repeated vertex).")

let lint_flag =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Statically analyse the query before running it; findings go to \
           standard error, and an error-severity finding (statically empty \
           query) aborts the run.")

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "EXPLAIN ANALYZE: run the query and print the plan, per-stage \
           timings (parse/lint/optimize/execute, monotonic clock) and \
           backend counters instead of the path rows.")

let profile_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-json" ] ~docv:"FILE"
        ~doc:
          "Write the execution profile as JSON (schema mrpa.profile/1) to \
           $(docv); \"-\" for standard output. Implies profiling the run.")

(* --- The in-process server ------------------------------------------------ *)

(* `query`, `lint` and `shell` answer through one standalone server
   over the graph file, in process and without a socket. Its
   limits are the command's flags, so every request runs at the
   command's --max-length and under its budget flags, and [Server.answer]
   runs it on the calling thread. Only profiling and EXPLAIN, which have
   no wire verb, run locally, over the same snapshot. *)
type front = {
  server : Mrpa_server.Server.t;
  snapshot : Mrpa_server.Snapshot.t;
  max_length : int;
  wrap_budget : Mrpa_engine.Budget.t -> Mrpa_engine.Budget.t;
      (* --inject-fault, applied to each request's budget *)
  local_budget : unit -> Mrpa_engine.Budget.t;
      (* the flags as a fresh budget for a local run, which Ctrl-C cancels *)
}

let open_front ?deadline_ms ?fuel ?max_paths ?inject_fault ~max_length path =
  let module S = Mrpa_server in
  let snapshot = or_die (loading S.Snapshot.load path) in
  (* Without flags a local run's budget is unlimited but still
     cancellable, so Ctrl-C always stops it cooperatively. *)
  let budget () =
    fault_of_flag inject_fault
      (try Mrpa_engine.Budget.create ?deadline_ms ?fuel ?max_live:max_paths ()
       with Invalid_argument msg -> or_die (Error msg))
  in
  (* Bad budget flags stop the command before it answers anything. *)
  let local = ref (budget ()) in
  (* The endpoint is never bound. *)
  let server =
    S.Server.create ~snapshot
      {
        S.Server.front = S.Listener.default_config (S.Wire.Unix_socket "");
        workers = 1;
        queue_capacity = 1;
        limits =
          {
            S.Wire.default_limits with
            S.Wire.max_deadline_ms = deadline_ms;
            max_fuel = fuel;
            max_live_paths = max_paths;
            max_length_cap = max_length;
          };
        max_predicted_cost = None;
        role = S.Server.Standalone;
      }
  in
  at_exit (fun () -> S.Server.close server);
  (* Ctrl-C cancels what is running, a request or the last local run: it
     stops at its next checkpoint and its sound partial result is printed
     like any answer (exit 3 from `query`, the next prompt in the shell).
     A run that has finished ignores it. *)
  if Sys.os_type <> "Win32" then
    ignore
      (Sys.signal Sys.sigint
         (Sys.Signal_handle
            (fun _ ->
              S.Server.cancel_inflight server;
              Mrpa_engine.Budget.cancel !local)));
  {
    server;
    snapshot;
    max_length;
    wrap_budget = fault_of_flag inject_fault;
    local_budget =
      (fun () ->
        local := budget ();
        !local);
  }

let graph front = Mrpa_server.Snapshot.graph front.snapshot

(* One request to the front's server: its response line. *)
let ask front ?strategy ?limit ?simple ?query verb =
  let module S = Mrpa_server in
  S.Server.answer ~wrap_budget:front.wrap_budget front.server
    {
      S.Wire.id = S.Json.Null;
      verb;
      query;
      options =
        wire_options ?strategy ?limit ?simple ~max_length:front.max_length ();
    }

let profile_locally ?strategy ?simple ?limit front source =
  Mrpa_engine.Engine.query_profiled ?strategy ?simple ?limit
    ~stats:(Mrpa_server.Snapshot.profile front.snapshot)
    ~max_length:front.max_length ~budget:(front.local_budget ()) (graph front)
    source

let explain front source =
  Mrpa_engine.Engine.explain
    ~stats:(Mrpa_server.Snapshot.profile front.snapshot)
    ~max_length:front.max_length (graph front) source

(* --- Printing responses ----------------------------------------------------- *)

(* The head of every ok response to a request without an id. *)
let ok_head =
  Printf.sprintf {|{"mrpa":%s,"id":null,"ok":true,|}
    (Mrpa_engine.Render.escape_string Mrpa_server.Wire.version)

(* Calls [f start stop] on the span of each element of the compact JSON
   array whose '[' is at [s.[i]]; returns the offset past its ']'. *)
let scan_array s i f =
  let rec go j depth start quoted =
    match s.[j] with
    | '\\' when quoted -> go (j + 2) depth start quoted
    | '"' -> go (j + 1) depth start (not quoted)
    | _ when quoted -> go (j + 1) depth start quoted
    | '{' | '[' -> go (j + 1) (depth + 1) start quoted
    | ']' when depth = 0 ->
      if j > start then f start j;
      j + 1
    | '}' | ']' -> go (j + 1) (depth - 1) start quoted
    | ',' when depth = 0 ->
      f start j;
      go (j + 1) depth (j + 1) quoted
    | _ -> go (j + 1) depth start quoted
  in
  go (i + 1) 0 (i + 1) false

(* A response line read for printing. A query's paths are most of a
   large answer, so [json] is the response with its path array emptied
   and [paths] is where that array starts in [line]: each path is parsed
   as it is printed, never held in one JSON tree with the others. *)
type response = { line : string; json : J.t; paths : int option }

let read_response line =
  let parse s = or_die (J.parse s) in
  let prefix = ok_head ^ {|"result":{"paths":|} in
  if String.starts_with ~prefix line then begin
    let i = String.length prefix in
    let stop = scan_array line i (fun _ _ -> ()) in
    let rest = String.sub line stop (String.length line - stop) in
    { line; json = parse (String.sub line 0 i ^ "[]" ^ rest); paths = Some i }
  end
  else { line; json = parse line; paths = None }

let line_status line =
  match J.parse line with Ok json -> response_status json | Error _ -> `Error

(* Readers over a response; a missing member reads as empty. *)
let member k j = Option.value ~default:J.Null (J.member k j)
let member_string k j = Option.value ~default:"" (J.to_string_opt (member k j))
let member_int k j = Option.value ~default:0 (J.to_int_opt (member k j))
let member_list k j = match member k j with J.List l -> l | _ -> []

let lint_findings response =
  let module D = Mrpa_lint.Diagnostic in
  List.map
    (fun d ->
      {
        D.code = member_string "code" d;
        severity =
          List.find
            (fun s -> D.severity_label s = member_string "severity" d)
            D.[ Hint; Warning; Error ];
        span = { Span.start = member_int "start" d; stop = member_int "stop" d };
        message = member_string "message" d;
      })
    (member_list "findings" (member "lint" response.json))

(* What `query --json` prints of an ok response: its payload byte for
   byte as the server rendered it, without the envelope. That is a
   query's [result] member, or a count's fields as one object. *)
let print_payload line =
  let n = String.length ok_head and m = String.length {|"result":|} in
  if String.sub line n m = {|"result":|} then
    output_substring stdout line (n + m) (String.length line - n - m - 1)
  else print_string ("{" ^ String.sub line n (String.length line - n));
  print_newline ()

(* Where a response's lines go. [Prompt] is the shell's: everything on
   standard output, and a query footer without its timing, so a session
   reads the same on every run. [Batch] is `query`'s and `lint`'s: errors
   and a count's partial note go to standard error, which keeps standard
   output to the answer, and a query footer gives its time and strategy.
   [Preflight] is `query --lint`'s check before the run: the findings,
   without a summary, and errors, all on standard error. *)
type layout = Prompt | Batch | Preflight

(* The one human rendering of a response: paths, counts, lint findings,
   views or an error, then the partial note. [source] is the query text
   the request carried, for lint carets. *)
let print_response layout g ~source response =
  let out =
    if layout = Preflight then Format.err_formatter else Format.std_formatter
  in
  let diag =
    if layout = Prompt then Format.std_formatter else Format.err_formatter
  in
  let json = response.json in
  let view = member "view" json in
  (match J.member "error" json with
  | Some e -> Format.fprintf diag "error: %s@." (member_string "message" e)
  | None when J.member "result" json <> None ->
    let vertex name = Option.get (Digraph.find_vertex g name) in
    let edge e =
      Edge.v
        (vertex (member_string "tail" e))
        (Option.get (Digraph.find_label g (member_string "label" e)))
        (vertex (member_string "head" e))
    in
    let print_path start stop =
      let p = or_die (J.parse (String.sub response.line start (stop - start))) in
      Format.fprintf out "%a@." (Digraph.pp_path g)
        (Path.of_edges (List.map edge (member_list "edges" p)))
    in
    Option.iter (fun i -> ignore (scan_array response.line i print_path))
      response.paths;
    let result = member "result" json in
    let n = member_int "count" result in
    if layout = Prompt then Format.fprintf out "-- %d path(s)@." n
    else
      Format.fprintf out "-- %d path(s) in %.3f ms via %s@." n
        (Option.value ~default:0.0
           (J.to_float_opt (member "elapsed_ms" result)))
        (member_string "strategy" result)
  | None when J.member "count" json <> None ->
    Format.fprintf out "%d@." (member_int "count" json)
  | None when J.member "lint" json <> None ->
    let diags = lint_findings response in
    List.iter
      (fun d ->
        Format.fprintf out "%s@." (Mrpa_lint.Diagnostic.render ~source d))
      diags;
    if layout <> Preflight then
      Format.fprintf out "%s@." (Mrpa_lint.Diagnostic.summary diags)
  | None when J.member "views" json <> None ->
    let infos = member_list "views" json in
    if infos = [] then Format.fprintf out "no views@.";
    List.iter
      (fun i ->
        Format.fprintf out "%s\t%s %s\t%d vertex(es), %d edge(s)@."
          (member_string "name" i) (member_string "kind" i)
          (member_string "spec" i) (member_int "vertices" i)
          (member_int "edges" i))
      infos
  | None when J.member "registered" view <> None ->
    Format.fprintf out "registered %s@." (member_string "registered" view)
  | None when J.member "dropped" view <> None ->
    Format.fprintf out "dropped %s@." (member_string "dropped" view)
  | None when J.member "pairs" view <> None ->
    List.iter
      (function
        | J.List (J.String i :: J.String j :: _) ->
          Format.fprintf out "%s -> %s@." i j
        | _ -> ())
      (member_list "pairs" view);
    Format.fprintf out "-- %d edge(s)@." (member_int "edges" view)
  | None -> (
    match member_string "measure" view with
    | ("components" | "communities") as measure ->
      Format.fprintf out "%d %s, largest %d@." (member_int "count" view)
        (if measure = "components" then "component(s)" else measure)
        (member_int "largest" view)
    | _ ->
      List.iter
        (fun r ->
          Format.fprintf out "%-20s %.6g@." (member_string "vertex" r)
            (Option.value ~default:0.0 (J.to_float_opt (member "score" r))))
        (member_list "top" view)));
  let note = if J.member "count" json <> None then diag else out in
  match response_status json with
  | `Partial (Some reason) ->
    pp_partial_note note (Mrpa_engine.Err.Partial reason)
  | `Partial None ->
    Format.fprintf note "-- partial result: some pairs may be missing@."
  | `Error | `Complete -> ()

(* The metrics, path count and partial note of a profiled run. *)
let print_profile ((r : Mrpa_engine.Engine.result), m) =
  let open Mrpa_engine in
  Format.printf "%a@." Metrics.pp m;
  Format.printf "-- %d path(s) via %s@."
    (Path_set.cardinal r.Engine.paths)
    (Plan.strategy_name r.Engine.plan.Plan.strategy);
  pp_partial_note Format.std_formatter r.Engine.verdict

(* --- query / lint / explain ---------------------------------------------------- *)

let query_cmd =
  let run path query max_length limit strategy simple count json lint profile
      profile_json deadline_ms fuel max_paths inject_fault =
    let module S = Mrpa_server in
    let front =
      open_front ?deadline_ms ?fuel ?max_paths ?inject_fault ~max_length path
    in
    let g = graph front in
    (* Every answer ends here, and a partial one exits 3 so scripts can
       tell "complete answer" from "sound subset". *)
    let respond line =
      let response = read_response line in
      let status = response_status response.json in
      if json && status <> `Error then print_payload line
      else print_response Batch g ~source:query response;
      exit (exit_code_of_status status)
    in
    if lint then begin
      let response = read_response (ask front ~simple ~query S.Wire.Lint) in
      print_response Preflight g ~source:query response;
      if response_status response.json = `Error then
        exit Mrpa_engine.Err.exit_user_error;
      if Mrpa_lint.Diagnostic.has_errors (lint_findings response) then begin
        Printf.eprintf "error: the query is statically empty; not running it\n";
        exit Mrpa_engine.Err.exit_user_error
      end
    end;
    if profile || profile_json <> None then begin
      let open Mrpa_engine in
      let r, m =
        or_die (profile_locally ?strategy ~simple ?limit front query)
      in
      Option.iter
        (fun file -> write_output file (Metrics.to_json m ^ "\n"))
        profile_json;
      if profile then begin
        Format.printf "%a@." (Plan.pp_named g) r.Engine.plan;
        print_profile (r, m);
        exit (Err.exit_code r.Engine.verdict)
      end;
      (* The profiled answer, as the response the server would send. *)
      let verdict = Render.escape_string (Err.verdict_name r.Engine.verdict) in
      respond
        (S.Wire.response_ok ~id:S.Json.Null
           (if count then
              [
                ("count", string_of_int (Path_set.cardinal r.Engine.paths));
                ("verdict", verdict);
              ]
            else [ ("result", Render.result_json g r) ]))
    end;
    respond
      (ask front ?strategy ?limit ~simple ~query
         (if count then S.Wire.Count else S.Wire.Query))
  in
  let term =
    Term.(
      const run $ graph_arg $ query_pos $ max_length_arg $ limit_arg
      $ strategy_arg $ simple_arg $ count_arg $ json_arg $ lint_flag
      $ profile_flag $ profile_json_arg $ deadline_arg $ fuel_arg
      $ max_paths_arg $ inject_fault_arg)
  in
  Cmd.v (Cmd.info "query" ~doc:"Run a regular path query") term

let error_on_warning_flag =
  Arg.(
    value & flag
    & info [ "error-on-warning" ]
        ~doc:
          "Exit 1 when any warning-severity finding is reported, not only \
           on errors — for CI gates over query corpora.")

let lint_cmd =
  let run path query max_length deadline_ms fuel error_on_warning =
    let module D = Mrpa_lint.Diagnostic in
    let front = open_front ?deadline_ms ?fuel ~max_length path in
    let response = read_response (ask front ~query Mrpa_server.Wire.Lint) in
    print_response Batch (graph front) ~source:query response;
    let diags = lint_findings response in
    exit
      (if
         response_status response.json = `Error
         || D.has_errors diags
         || error_on_warning
            && List.exists (fun d -> d.D.severity = D.Warning) diags
       then Mrpa_engine.Err.exit_user_error
       else Mrpa_engine.Err.exit_ok)
  in
  let term =
    Term.(
      const run $ graph_arg $ query_pos $ max_length_arg $ deadline_arg
      $ fuel_arg $ error_on_warning_flag)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse a query against a graph without running it: \
          dead union arms, never-adjacent joins, stars that cannot iterate, \
          selectors matching no edge, unreachable automaton positions, plus \
          the cost analyzer's cardinality-blowup (L010/L011), \
          budget-feasibility (L012, with --fuel / --deadline-ms) and \
          zero-selectivity (L013) findings at the --max-length bound. \
          Exits 1 when an error-severity finding (statically empty query) \
          is reported, or — under --error-on-warning — when any warning \
          is.")
    term

let explain_cmd =
  let run path query max_length =
    print_endline (or_die (explain (open_front ~max_length path) query))
  in
  let term = Term.(const run $ graph_arg $ query_pos $ max_length_arg) in
  Cmd.v (Cmd.info "explain" ~doc:"Show the query plan without running it") term

(* --- shell --------------------------------------------------------------------- *)

(* The shell is a prompt over the same front: each line becomes a wire
   request, and its response is printed for people. *)
let shell_cmd =
  let run path max_length deadline_ms fuel max_paths inject_fault =
    let module S = Mrpa_server in
    let front =
      open_front ?deadline_ms ?fuel ?max_paths ?inject_fault ~max_length path
    in
    let g = graph front in
    Format.printf
      "mrpa shell — %a@.Type a query per line; :explain QUERY, :count QUERY, \
       :lint QUERY, :profile QUERY, :view (word|expr|drop|edges|analytics) \
       and :views for materialized views, :quit to exit.@."
      Digraph.pp_stats g;
    let show ?query verb =
      print_response Prompt g
        ~source:(Option.value ~default:"" query)
        (read_response (ask front ?query verb))
    in
    let view ?word ?view_query ?measure ?top action name =
      show
        (S.Wire.Views
           { action; view_name = Some name; word; view_query; measure; top })
    in
    let next_token s =
      let s = String.trim s in
      match String.index_opt s ' ' with
      | None -> (s, "")
      | Some i ->
        (String.sub s 0 i, String.trim (String.sub s i (String.length s - i)))
    in
    let command line =
      match next_token line with
      | ":explain", source -> (
        match explain front source with
        | Ok text -> Format.printf "%s@." text
        | Error msg -> Format.printf "error: %s@." msg)
      | ":profile", source -> (
        match profile_locally front source with
        | Ok profiled -> print_profile profiled
        | Error msg -> Format.printf "error: %s@." msg)
      | ":count", query -> show ~query S.Wire.Count
      | ":lint", query -> show ~query S.Wire.Lint
      | ":views", "" -> view S.Wire.V_list ""
      | ":view", args -> (
        let sub, args = next_token args in
        let name, spec = next_token args in
        match sub with
        | ("word" | "expr") when name = "" || spec = "" ->
          Format.printf "usage: :view %s NAME %s@." sub
            (if sub = "word" then "A.B.C" else "QUERY")
        | "word" ->
          view S.Wire.V_register name
            ~word:
              (String.split_on_char '.' spec |> List.filter (fun l -> l <> ""))
        | "expr" -> view S.Wire.V_register name ~view_query:spec
        | "drop" -> view S.Wire.V_drop name
        | "edges" -> view S.Wire.V_edges name
        | "analytics" ->
          let measure, top = next_token spec in
          view S.Wire.V_analytics name
            ?measure:(if measure = "" then None else Some measure)
            ?top:(int_of_string_opt (fst (next_token top)))
        | _ -> Format.printf "usage: :view (word|expr|drop|edges|analytics) ...@.")
      | _ -> show ~query:line S.Wire.Query
    in
    let rec loop () =
      Format.printf "mrpa> @?";
      match String.trim (input_line stdin) with
      | exception End_of_file -> ()
      | ":quit" | ":q" -> ()
      | line ->
        (* The REPL must survive whatever a request does: errors come back
           as responses, and this catches anything that still escapes (a
           bug, Stack_overflow, ...). *)
        (if line <> "" then
           try command line
           with e -> Format.printf "error: internal: %s@." (Printexc.to_string e));
        loop ()
    in
    loop ()
  in
  let term =
    Term.(
      const run $ graph_arg $ max_length_arg $ deadline_arg $ fuel_arg
      $ max_paths_arg $ inject_fault_arg)
  in
  Cmd.v (Cmd.info "shell" ~doc:"Interactive query shell") term

(* --- equiv ------------------------------------------------------------------------ *)

let equiv_cmd =
  let query2_pos =
    Arg.(
      required
      & pos 2 (some string) None
      & info [] ~docv:"QUERY2" ~doc:"Second query.")
  in
  let run path q1 q2 =
    let g = or_die (load_graph path) in
    match Mrpa_engine.Engine.equivalent g q1 q2 with
    | Error msg -> or_die (Error msg)
    | Ok equal ->
      Format.printf "%s@." (if equal then "EQUIVALENT" else "DIFFERENT");
      exit (if equal then 0 else 1)
  in
  let term = Term.(const run $ graph_arg $ query_pos $ query2_pos) in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:
         "Decide whether two queries are equivalent over the graph's edge \
          universe at every length")
    term

(* --- recognize ------------------------------------------------------------------ *)

let recognize_cmd =
  let path_arg =
    let doc =
      "The path to test, as whitespace-separated triples \
       'tail,label,head tail,label,head ...'; an empty string means the \
       empty path."
    in
    Arg.(required & pos 2 (some string) None & info [] ~docv:"PATH" ~doc)
  in
  let run graph_path query path_text =
    let g = or_die (load_graph graph_path) in
    let expr = parse_or_die g query in
    let parse_triple t =
      match String.split_on_char ',' t with
      | [ tail; label; head ] ->
        Edge.make
          ~tail:(resolve "vertex" (Digraph.find_vertex g) (String.trim tail))
          ~label:(resolve "label" (Digraph.find_label g) (String.trim label))
          ~head:(resolve "vertex" (Digraph.find_vertex g) (String.trim head))
      | _ -> or_die (Error (Printf.sprintf "malformed triple %S" t))
    in
    let pieces =
      List.filter (fun s -> s <> "") (String.split_on_char ' ' path_text)
    in
    let path = Path.of_edges (List.map parse_triple pieces) in
    let accepted = Mrpa_automata.Recognizer.nfa expr path in
    Format.printf "%a : %s@." (Digraph.pp_path g) path
      (if accepted then "ACCEPTED" else "REJECTED");
    exit (if accepted then 0 else 1)
  in
  let term = Term.(const run $ graph_arg $ query_pos $ path_arg) in
  Cmd.v
    (Cmd.info "recognize" ~doc:"Test whether a concrete path matches a query")
    term

(* --- project ---------------------------------------------------------------------- *)

let project_cmd =
  let labels_arg =
    let doc = "Comma-separated label word, e.g. 'knows,works_for'." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"LABELS" ~doc)
  in
  let measure_arg =
    let doc =
      "Centrality to run on the derived graph: pagerank, eigenvector, \
       closeness, harmonic, betweenness, out-degree, in-degree."
    in
    Arg.(value & opt string "pagerank" & info [ "measure" ] ~doc)
  in
  let top_arg = Arg.(value & opt int 10 & info [ "top" ] ~doc:"Rows to print.") in
  let run path labels_text measure top =
    let g = or_die (load_graph path) in
    let labels =
      List.map
        (fun name -> resolve "label" (Digraph.find_label g) (String.trim name))
        (String.split_on_char ',' labels_text)
    in
    let derived = Mrpa_analysis.Projection.path_derived g labels in
    Format.printf "derived graph: %a@." Mrpa_analysis.Simple_graph.pp derived;
    let scores =
      match measure with
      | "pagerank" -> Mrpa_analysis.Centrality.pagerank derived
      | "eigenvector" -> Mrpa_analysis.Centrality.eigenvector derived
      | "closeness" -> Mrpa_analysis.Centrality.closeness derived
      | "harmonic" -> Mrpa_analysis.Centrality.harmonic_closeness derived
      | "betweenness" -> Mrpa_analysis.Centrality.betweenness derived
      | "out-degree" -> Mrpa_analysis.Centrality.out_degree derived
      | "in-degree" -> Mrpa_analysis.Centrality.in_degree derived
      | other -> or_die (Error (Printf.sprintf "unknown measure %S" other))
    in
    Format.printf "%a@."
      (Mrpa_analysis.Centrality.pp_ranking ~k:top ~vertex_name:(fun v ->
           Digraph.vertex_name g (Vertex.of_int v)))
      scores
  in
  let term = Term.(const run $ graph_arg $ labels_arg $ measure_arg $ top_arg) in
  Cmd.v
    (Cmd.info "project"
       ~doc:"Derive a single-relational graph from a label word and rank it")
    term

(* --- communities ------------------------------------------------------------------------ *)

let communities_cmd =
  let labels_arg =
    let doc = "Restrict to one relation type (default: label-blind projection)." in
    Arg.(value & opt (some string) None & info [ "label" ] ~doc)
  in
  let run path label_opt seed =
    let g = or_die (load_graph path) in
    let projected =
      match label_opt with
      | None -> Mrpa_analysis.Projection.label_blind g
      | Some name ->
        Mrpa_analysis.Projection.single_label g
          (resolve "label" (Digraph.find_label g) name)
    in
    let t = Mrpa_analysis.Communities.label_propagation ~seed projected in
    Format.printf "%d communities, modularity %.3f@."
      t.Mrpa_analysis.Communities.n_communities
      (Mrpa_analysis.Communities.modularity projected t);
    let sizes = Mrpa_analysis.Communities.sizes t in
    let ranked =
      List.sort
        (fun (_, a) (_, b) -> Int.compare b a)
        (Array.to_list (Array.mapi (fun c s -> (c, s)) sizes))
    in
    List.iteri
      (fun i (c, size) ->
        if i < 10 then begin
          let members = Mrpa_analysis.Communities.members t c in
          let preview =
            List.filteri (fun i _ -> i < 6) members
            |> List.map (fun v -> Digraph.vertex_name g (Vertex.of_int v))
            |> String.concat ", "
          in
          Format.printf "  #%d: %d member(s): %s%s@." c size preview
            (if size > 6 then ", ..." else "")
        end)
      ranked
  in
  let term = Term.(const run $ graph_arg $ labels_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "communities"
       ~doc:"Detect communities (label propagation) on a projection")
    term

(* --- dot ---------------------------------------------------------------------------- *)

let dot_cmd =
  let run path output =
    let g = or_die (load_graph path) in
    write_output output (Dot.to_string g)
  in
  let term = Term.(const run $ graph_arg $ output_arg) in
  Cmd.v (Cmd.info "dot" ~doc:"Export the graph as Graphviz DOT") term

let graphml_cmd =
  let run path output =
    let g = or_die (load_graph path) in
    write_output output (Graphml.to_string g)
  in
  let term = Term.(const run $ graph_arg $ output_arg) in
  Cmd.v (Cmd.info "graphml" ~doc:"Export the graph as GraphML") term

(* --- cheapest --------------------------------------------------------------------------- *)

let cheapest_cmd =
  let weights_arg =
    let doc = "Weights file (see Mrpa_graph.Weights for the format)." in
    Arg.(value & opt (some file) None & info [ "weights" ] ~docv:"FILE" ~doc)
  in
  let cost_arg =
    let doc =
      "Per-label edge costs, e.g. 'truck=40,rail=25,ship=15'. Labels not \
       listed cost --default-cost."
    in
    Arg.(value & opt string "" & info [ "cost" ] ~doc)
  in
  let default_cost_arg =
    Arg.(value & opt float 1.0 & info [ "default-cost" ] ~doc:"Cost for unlisted labels.")
  in
  let from_arg =
    Arg.(value & opt (some string) None & info [ "from" ] ~doc:"Source vertex name.")
  in
  let to_arg =
    Arg.(value & opt (some string) None & info [ "to" ] ~doc:"Target vertex name.")
  in
  let top_arg = Arg.(value & opt int 10 & info [ "top" ] ~doc:"Pairs to print.") in
  let run path query weights_file cost default_cost from_ to_ max_length top =
    let g = or_die (load_graph path) in
    let table =
      match weights_file with
      | None -> Weights.create ~default:default_cost ()
      | Some file -> (
        try Weights.load g file
        with Weights.Malformed (line, text) ->
          or_die
            (Error (Printf.sprintf "%s: malformed line %d: %s" file line text)))
    in
    let costs = Hashtbl.create 8 in
    if cost <> "" then
      List.iter
        (fun piece ->
          match String.split_on_char '=' piece with
          | [ name; value ] -> (
            let l = resolve "label" (Digraph.find_label g) (String.trim name) in
            match float_of_string_opt value with
            | Some v -> Hashtbl.replace costs l v
            | None -> or_die (Error (Printf.sprintf "bad cost value %S" value)))
          | _ -> or_die (Error (Printf.sprintf "bad cost binding %S" piece)))
        (String.split_on_char ',' cost);
    Hashtbl.iter (fun l v -> Weights.set_label table l v) costs;
    let weight = Weights.to_fun table in
    let expr = fst (Mrpa_engine.Optimizer.simplify (parse_or_die g query)) in
    let pairs = Mrpa_semiring.Eval.cheapest_paths ~weight g expr ~max_length in
    let resolve = resolve "vertex" (Digraph.find_vertex g) in
    let pairs =
      List.filter
        (fun ((s, d), _) ->
          (match from_ with None -> true | Some n -> Vertex.equal s (resolve n))
          && match to_ with None -> true | Some n -> Vertex.equal d (resolve n))
        pairs
    in
    let pairs =
      List.sort (fun (_, c1) (_, c2) -> Float.compare c1 c2) pairs
    in
    List.iteri
      (fun i ((s, d), c) ->
        if i < top then
          Format.printf "%-14s -> %-14s %.2f@." (Digraph.vertex_name g s)
            (Digraph.vertex_name g d) c)
      pairs;
    if pairs = [] then Format.printf "(no admissible route)@.";
    (* with both endpoints pinned, also reconstruct the optimal route *)
    (match (from_, to_) with
    | Some src, Some dst ->
      let w = Mrpa_semiring.Witness.prepare ~weight g expr ~max_length in
      (match
         Mrpa_semiring.Witness.cheapest w ~source:(resolve src)
           ~target:(resolve dst)
       with
      | Some (route, cost) ->
        Format.printf "route: %a (%.2f)@." (Digraph.pp_path g) route cost
      | None -> ())
    | _ -> ())
  in
  let term =
    Term.(
      const run $ graph_arg $ query_pos $ weights_arg $ cost_arg
      $ default_cost_arg $ from_arg $ to_arg $ max_length_arg $ top_arg)
  in
  Cmd.v
    (Cmd.info "cheapest"
       ~doc:"Cheapest paths per endpoint pair under a regular policy (tropical semiring)")
    term

(* --- sample ----------------------------------------------------------------------------- *)

let sample_cmd =
  let n_arg =
    Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of uniform draws.")
  in
  let run path query max_length n seed =
    let g = or_die (load_graph path) in
    let expr = parse_or_die g query in
    let optimized, _ = Mrpa_engine.Optimizer.simplify expr in
    let sampler = Mrpa_automata.Sampler.prepare g optimized ~max_length in
    match Mrpa_automata.Sampler.population sampler with
    | exception Mrpa_automata.Counting.Overflow ->
      or_die (Error Mrpa_engine.Engine.overflow_error)
    | population ->
      Format.printf "population: %d path(s)@." population;
      List.iter
        (fun p -> Format.printf "%a@." (Digraph.pp_path g) p)
        (Mrpa_automata.Sampler.sample sampler (Prng.create seed) n)
  in
  let term =
    Term.(const run $ graph_arg $ query_pos $ max_length_arg $ n_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:"Draw uniform random paths from a query's denoted set")
    term

(* --- crpq ------------------------------------------------------------------------------ *)

let crpq_cmd =
  let crpq_pos =
    let doc =
      "Conjunctive query, e.g. 'select x, y where (x, [_,knows,_], y), \
       (y, [_,works_for,_], x)'."
    in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CRPQ" ~doc)
  in
  let run path text max_length count json =
    let g = or_die (load_graph path) in
    match Mrpa_engine.Crpq.parse g text with
    | Error e ->
      or_die (Error (Mrpa_engine.Parser.render_error ~source:text e))
    | Ok q ->
      let answers = Mrpa_engine.Crpq.eval ~max_length g q in
      if json then
        print_endline
          (Mrpa_engine.Render.tuples_json g
             ~head:(Mrpa_engine.Crpq.variables q
                    |> List.filteri (fun i _ ->
                           i < List.length q.Mrpa_engine.Crpq.head))
             answers)
      else if count then Format.printf "%d@." (List.length answers)
      else begin
        List.iter
          (fun tuple ->
            Format.printf "%s@."
              (String.concat "\t"
                 (List.map (Digraph.vertex_name g) tuple)))
          answers;
        Format.printf "-- %d tuple(s)@." (List.length answers)
      end
  in
  let term =
    Term.(const run $ graph_arg $ crpq_pos $ max_length_arg $ count_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "crpq" ~doc:"Run a conjunctive regular path query")
    term

(* --- automaton ------------------------------------------------------------------------ *)

let automaton_cmd =
  let run path query output =
    let g = or_die (load_graph path) in
    let expr = parse_or_die g query in
    let optimized, _ = Mrpa_engine.Optimizer.simplify expr in
    write_output output
        (Mrpa_automata.Viz.expr_to_dot ~name:"mrpa_automaton" ~graph:g optimized)
  in
  let term = Term.(const run $ graph_arg $ query_pos $ output_arg) in
  Cmd.v
    (Cmd.info "automaton"
       ~doc:
         "Export the compiled (Figure-1-style) automaton of a query as \
          Graphviz DOT")
    term

(* --- serve / call ------------------------------------------------------------------- *)

(* Endpoint flags shared by every serving and client command: exactly one of
   a Unix-domain socket path or a TCP port (with optional host). *)
let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"N" ~doc:"TCP port (see also --host).")

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host for --port.")

let endpoint_of_flags ~socket ~port ~host =
  match (socket, port) with
  | Some path, None -> Mrpa_server.Wire.Unix_socket path
  | None, Some port -> Mrpa_server.Wire.Tcp (host, port)
  | _ -> or_die (Error "exactly one of --socket PATH or --port N is required")

(* Front-door flags shared by `serve` and `route`: where to listen, the
   session bounds, the remote-shutdown gate and the per-request ceilings.
   The ceilings `route` has no use for (fuel, staleness) stay unset. *)
let front_door_term =
  let idle_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Close a connection that fails to deliver a complete request \
             line within $(docv) (answered with an idle_timeout wire \
             error). Covers both silent idle connections and slow-drip \
             clients. Unset: wait forever.")
  in
  let max_request_bytes_arg =
    Arg.(
      value
      & opt int Mrpa_server.Listener.default_max_request_bytes
      & info [ "max-request-bytes" ] ~docv:"BYTES"
          ~doc:
            "Reject request lines longer than $(docv) with a \
             request_too_large wire error and close the connection.")
  in
  let allow_remote_shutdown_arg =
    Arg.(
      value & flag
      & info [ "allow-remote-shutdown" ]
          ~doc:
            "Honour the shutdown verb on TCP sessions. Without this flag \
             only Unix-domain clients may stop the process; a TCP shutdown \
             request is refused with an unauthorized wire error.")
  in
  let max_deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Ceiling on (and default for) every request's wall-clock \
             budget: clients may ask for less, never more.")
  in
  let max_paths_cap_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-paths" ] ~docv:"N"
          ~doc:
            "Ceiling on (and default for) every request's path-memory \
             budget: the live and banked paths of an evaluation, or the \
             paths `route` materialises while stitching shard results \
             (crossing it there truncates to a sound subset, \
             partial:memory).")
  in
  let max_limit_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-limit" ] ~docv:"N"
          ~doc:"Ceiling on (and default for) returned paths per query.")
  in
  let max_length_cap_arg =
    Arg.(
      value & opt int 16
      & info [ "max-length" ] ~docv:"N"
          ~doc:"Ceiling on the star-unrolling bound clients may request.")
  in
  let make socket port host idle_timeout_ms max_request_bytes
      allow_remote_shutdown max_deadline_ms max_live_paths max_limit
      max_length_cap =
    ( {
        Mrpa_server.Listener.endpoint = endpoint_of_flags ~socket ~port ~host;
        idle_timeout_ms;
        max_request_bytes;
        allow_remote_shutdown;
      },
      {
        Mrpa_server.Wire.max_deadline_ms;
        max_fuel = None;
        max_live_paths;
        max_limit;
        max_length_cap;
        min_staleness_ms = None;
      } )
  in
  Term.(
    const make $ socket_arg $ port_arg $ host_arg $ idle_timeout_arg
    $ max_request_bytes_arg $ allow_remote_shutdown_arg $ max_deadline_arg
    $ max_paths_cap_arg $ max_limit_arg $ max_length_cap_arg)

(* Run a front door until it drains. SIGINT/SIGTERM request a graceful
   drain: the handler only sets a flag that the accept loop notices.
   (SIGPIPE is ignored by the library itself — Mrpa_server.Net — so a
   vanished peer cannot kill the process.) Once listening, the endpoint
   actually bound is announced: with `--port 0` the kernel picks the port,
   and scripts (and the cram tests) grep this line to find it. *)
let run_front_door name endpoint ~stop ~bound_endpoint serve =
  if Sys.os_type <> "Win32" then begin
    let graceful = Sys.Signal_handle (fun _ -> stop ()) in
    ignore (Sys.signal Sys.sigint graceful);
    ignore (Sys.signal Sys.sigterm graceful)
  end;
  ignore
    (Thread.create
       (fun () ->
         let rec wait n =
           if n > 0 then
             match bound_endpoint () with
             | Some ep ->
               Printf.eprintf "mrpa %s: listening on %s\n%!" name
                 (Mrpa_server.Wire.endpoint_to_string ep)
             | None ->
               Thread.delay 0.01;
               wait (n - 1)
         in
         wait 1_000)
       ());
  (match serve () with
  | () -> ()
  | exception Unix.Unix_error (err, _, arg) ->
    or_die
      (Error
         (Printf.sprintf "cannot listen on %s: %s%s"
            (Mrpa_server.Wire.endpoint_to_string endpoint)
            (Unix.error_message err)
            (if arg = "" then "" else " (" ^ arg ^ ")"))));
  Printf.eprintf "mrpa %s: drained, exiting\n%!" name

(* Client flags shared by `call` and `views`: where to send the request,
   its staleness bounds and the retry policy. *)
type client_flags = {
  endpoints : Mrpa_server.Wire.endpoint list;
  min_seq : int option;
  max_staleness_ms : float option;
  policy : Mrpa_server.Client.retry_policy;
}

let client_term =
  let endpoints_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "endpoints" ] ~docv:"A,B,C"
          ~doc:
            "Failover endpoint list (comma-separated unix:PATH / \
             tcp:HOST:PORT / HOST:PORT), tried round-robin: attempts \
             rotate across the list and the backoff sleep is paid only \
             after a full cycle has failed. Exclusive with \
             --socket/--port; combine with --retries to survive an \
             endpoint dying mid-conversation.")
  in
  let min_seq_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "min-seq" ] ~docv:"SEQ"
          ~doc:
            "Bounded staleness: require the serving snapshot to include \
             journal record $(docv); a server that cannot satisfy it \
             within a short wait answers with a stale error (which \
             --retries will re-try, possibly elsewhere).")
  in
  let max_staleness_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-staleness-ms" ] ~docv:"MS"
          ~doc:
            "Bounded staleness: require a replica to have heard from its \
             primary within the last $(docv) milliseconds, else answer \
             with a stale error. Authoritative servers (standalone, \
             primary) always satisfy this bound.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry up to $(docv) extra times on a refused/absent endpoint \
             or an overloaded or stale response, with exponential backoff \
             and full jitter between attempts. After a mid-stream failure \
             only requests that cannot change server state are replayed \
             (never shutdown, views register or views drop). 0 (the \
             default) tries exactly once. Ignored by `call --pipeline`.")
  in
  let backoff_arg =
    Arg.(
      value & opt float 100.0
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:
            "Base of the backoff window: retry $(i,k) sleeps between \
             $(docv)*2^k/2 and $(docv)*2^k milliseconds (capped at 10s).")
  in
  let make socket port host endpoints min_seq max_staleness_ms retries
      backoff_ms =
    let endpoints =
      match endpoints with
      | None -> [ endpoint_of_flags ~socket ~port ~host ]
      | Some list ->
        if socket <> None || port <> None then
          or_die (Error "--endpoints is exclusive with --socket/--port");
        let eps =
          List.filter_map
            (fun s ->
              let s = String.trim s in
              if s = "" then None
              else Some (or_die (Mrpa_server.Wire.endpoint_of_string s)))
            (String.split_on_char ',' list)
        in
        if eps = [] then or_die (Error "--endpoints: no endpoints given");
        eps
    in
    {
      endpoints;
      min_seq;
      max_staleness_ms;
      policy = { Mrpa_server.Client.retries = max 0 retries; backoff_ms };
    }
  in
  Term.(
    const make $ socket_arg $ port_arg $ host_arg $ endpoints_arg
    $ min_seq_arg $ max_staleness_arg $ retries_arg $ backoff_arg)

let serve_cmd =
  let graph_flag =
    Arg.(
      value
      & opt (some file) None
      & info [ "graph" ] ~docv:"FILE"
          ~doc:
            "Graph to serve (TSV edge list); loaded once, then frozen. \
             Required for --role standalone; unused by primary/replica \
             roles, which build their graphs from the journal stream.")
  in
  let role_arg =
    Arg.(
      value
      & opt (enum [ ("standalone", `Standalone); ("primary", `Primary); ("replica", `Replica) ]) `Standalone
      & info [ "role" ] ~docv:"ROLE"
          ~doc:
            "Replication role: $(b,standalone) serves one frozen --graph; \
             $(b,primary) tails the v2 journal at --journal, serves its \
             replay and streams records to subscribers; $(b,replica) \
             follows the primary at --follow and serves bounded-staleness \
             reads.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "For --role primary: the v2 journal to tail (created by a \
             writer via `mrpa append`; may not exist yet).")
  in
  let follow_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "follow" ] ~docv:"ENDPOINT"
          ~doc:
            "For --role replica: the primary's endpoint (unix:PATH, \
             tcp:HOST:PORT, or HOST:PORT).")
  in
  let min_staleness_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-staleness-ms" ] ~docv:"MS"
          ~doc:
            "Floor on the max_staleness_ms clients may request: a request \
             demanding fresher data than $(docv) is clamped up to it, so \
             an over-eager client cannot turn every replica read into a \
             stale error. Unset: honour any requested bound.")
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"K"
          ~doc:
            "Worker threads executing queries, spread over up to nproc \
             domains.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded job-queue capacity; a request arriving when the queue \
             is full is answered with an overloaded error instead of being \
             buffered.")
  in
  let max_fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-fuel" ] ~docv:"STEPS"
          ~doc:"Ceiling on (and default for) every request's work budget.")
  in
  let max_predicted_cost_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-predicted-cost" ] ~docv:"UNITS"
          ~doc:
            "Static admission ceiling: cost-analyse every query/count \
             against the snapshot's cached statistics and refuse — with an \
             infeasible wire error, before a worker is occupied — any whose \
             predicted cost (same units as --max-fuel) exceeds $(docv). \
             Unset: admit everything.")
  in
  let plan_cache_arg =
    Arg.(
      value & opt int 1024
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:
            "Capacity of the compiled-plan LRU cache (entries). Admission \
             control, the lint verb and worker evaluation share one parse \
             + cost analysis per cached query text. 0 disables the cache.")
  in
  let result_cache_arg =
    Arg.(
      value & opt int 256
      & info [ "result-cache" ] ~docv:"N"
          ~doc:
            "Capacity of the result cache (entries) holding \
             Complete-verdict responses. Each served snapshot has its own; \
             entries are answers over that snapshot's immutable graph, so \
             they are evicted but never invalidated. 0 disables the cache.")
  in
  let run graph (front, limits) role journal follow min_staleness_ms workers
      queue max_fuel max_predicted_cost plan_cache result_cache =
    let endpoint = front.Mrpa_server.Listener.endpoint in
    let role, snapshot, origin =
      match role with
      | `Standalone ->
        let graph =
          match graph with
          | Some g -> g
          | None -> or_die (Error "--role standalone requires --graph FILE")
        in
        let snapshot =
          or_die
            (loading
               (Mrpa_server.Snapshot.load ~plan_cache_capacity:plan_cache
                  ~result_cache_capacity:result_cache)
               graph)
        in
        (Mrpa_server.Server.Standalone, Some snapshot, "graph=" ^ graph)
      | `Primary ->
        let journal =
          match journal with
          | Some j -> j
          | None -> or_die (Error "--role primary requires --journal FILE")
        in
        (Mrpa_server.Server.Primary { journal }, None, "journal=" ^ journal)
      | `Replica ->
        let follow =
          match follow with
          | Some f -> or_die (Mrpa_server.Wire.endpoint_of_string f)
          | None -> or_die (Error "--role replica requires --follow ENDPOINT")
        in
        ( Mrpa_server.Server.Replica { follow },
          None,
          "follow=" ^ Mrpa_server.Wire.endpoint_to_string follow )
    in
    let config =
      {
        Mrpa_server.Server.front;
        workers;
        queue_capacity = queue;
        limits = { limits with Mrpa_server.Wire.max_fuel; min_staleness_ms };
        max_predicted_cost;
        role;
      }
    in
    let server =
      try Mrpa_server.Server.create ?snapshot config
      with Invalid_argument msg -> or_die (Error msg)
    in
    Printf.eprintf "mrpa serve: %s workers=%d queue=%d %s (%s)\n%!"
      (Mrpa_server.Wire.endpoint_to_string endpoint)
      workers queue origin
      (Format.asprintf "%a" Mrpa_server.Snapshot.pp_stats
         (Mrpa_server.Server.snapshot server));
    run_front_door "serve" endpoint
      ~stop:(fun () -> Mrpa_server.Server.stop server)
      ~bound_endpoint:(fun () -> Mrpa_server.Server.bound_endpoint server)
      (fun () -> Mrpa_server.Server.serve server)
  in
  let term =
    Term.(
      const run $ graph_flag $ front_door_term $ role_arg $ journal_arg
      $ follow_arg $ min_staleness_arg $ workers_arg $ queue_arg
      $ max_fuel_arg $ max_predicted_cost_arg $ plan_cache_arg
      $ result_cache_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a graph over a Unix-domain socket or TCP: a worker pool \
          runs mrpa.wire/1 query/count requests against one frozen \
          snapshot, with server-side budget ceilings, explicit overload \
          backpressure, and graceful drain on SIGINT/SIGTERM.")
    term

let call_cmd =
  let query_pos_opt =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:"Query text (required unless --ping, --stats or --shutdown).")
  in
  let ping_flag =
    Arg.(value & flag & info [ "ping" ] ~doc:"Liveness probe.")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ] ~doc:"Fetch server-wide metrics.")
  in
  let health_flag =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Health probe: role, last-applied sequence number, lag behind \
             the primary, connectivity, plus the load picture — \
             $(b,queue_depth) (requests waiting for a worker) and \
             $(b,inflight) (requests a worker is executing right now). \
             Against `mrpa route`, reports the router's per-shard breaker \
             states and each shard's own health object.")
  in
  let shutdown_flag =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the server to drain and exit.")
  in
  let call_count_flag =
    Arg.(
      value & flag
      & info [ "count" ]
          ~doc:
            "Ask for the number of paths. Without --limit, --simple or \
             --strategy the server uses the counting engine (no path set \
             is materialised); with any of them the answer is evaluated \
             and the count is its size.")
  in
  let call_lint_flag =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Statically analyse the query on the server (findings plus \
             predicted cost/cardinality) without running it; answered \
             inline, never occupying a worker.")
  in
  let pipeline_flag =
    Arg.(
      value & flag
      & info [ "pipeline" ]
          ~doc:
            "Pipelined mode: read one query per line from standard input, \
             send them all on one connection tagged with ids 1..N, and \
             print each response line as it arrives — possibly out of \
             order; match responses to queries by their id field. \
             Combines with --count and the per-request option flags \
             (applied to every query); exclusive with --ping, --stats, \
             --shutdown and --lint.")
  in
  let run { endpoints; min_seq; max_staleness_ms; policy } query_opt ping
      stats shutdown health count lint pipeline strategy limit max_length
      simple deadline_ms fuel max_paths =
    let module S = Mrpa_server in
    let endpoint = List.hd endpoints in
    let options =
      wire_options ?strategy ?limit ~simple ~max_length ?deadline_ms ?fuel
        ?max_paths ?min_seq ?max_staleness_ms ()
    in
    if pipeline then begin
      if ping || stats || shutdown || lint || health then
        or_die
          (Error
             "--pipeline is exclusive with --ping, --stats, --shutdown, \
              --lint and --health");
      let verb = if count then S.Wire.Count else S.Wire.Query in
      let queries =
        let rec read acc =
          match input_line stdin with
          | line ->
            read (if String.trim line = "" then acc else line :: acc)
          | exception End_of_file -> List.rev acc
        in
        read []
      in
      if queries = [] then exit Mrpa_engine.Err.exit_ok;
      let conn = or_die (S.Client.connect endpoint) in
      let n = List.length queries in
      let any_error = ref false in
      let any_partial = ref false in
      (* One receiver thread drains responses while the main thread is
         still sending — without it, a server blocked writing responses
         into a full socket buffer would deadlock against a client blocked
         writing requests. *)
      let receiver =
        Thread.create
          (fun () ->
            let rec drain remaining =
              if remaining > 0 then
                match S.Client.receive_raw conn with
                | Error msg ->
                  Printf.eprintf "error: %s\n%!" msg;
                  any_error := true
                | Ok line ->
                  print_endline line;
                  (match line_status line with
                  | `Error -> any_error := true
                  | `Partial _ -> any_partial := true
                  | `Complete -> ());
                  drain (remaining - 1)
            in
            drain n)
          ()
      in
      List.iteri
        (fun i q ->
          let req =
            {
              S.Wire.id = S.Json.Number (float_of_int (i + 1));
              verb;
              query = Some q;
              options;
            }
          in
          match S.Client.send conn req with
          | Ok () -> ()
          | Error msg ->
            Printf.eprintf "error: %s\n%!" msg;
            any_error := true)
        queries;
      Thread.join receiver;
      S.Client.close conn;
      exit
        (if !any_error then Mrpa_engine.Err.exit_user_error
         else if !any_partial then Mrpa_engine.Err.exit_partial
         else Mrpa_engine.Err.exit_ok)
    end;
    let verb =
      match (ping, stats, shutdown, health, count, lint) with
      | true, false, false, false, false, false -> S.Wire.Ping
      | false, true, false, false, false, false -> S.Wire.Stats
      | false, false, true, false, false, false -> S.Wire.Shutdown
      | false, false, false, true, false, false -> S.Wire.Health
      | false, false, false, false, false, true -> S.Wire.Lint
      | false, false, false, false, count, false ->
        if count then S.Wire.Count else S.Wire.Query
      | _ ->
        or_die
          (Error
             "--ping, --stats, --shutdown, --health, --count and --lint \
              are exclusive")
    in
    let query =
      match (verb, query_opt) with
      | (S.Wire.Query | S.Wire.Count | S.Wire.Lint), None ->
        or_die (Error "a QUERY argument is required")
      | (S.Wire.Query | S.Wire.Count | S.Wire.Lint), some -> some
      | _, _ -> None
    in
    let request = { S.Wire.id = S.Json.Null; verb; query; options } in
    let line = or_die (S.Client.request_failover ~policy endpoints request) in
    (* Print the response verbatim (it is already one JSON line), then turn
       its verdict into the standard exit-code policy. *)
    print_endline line;
    exit (exit_code_of_status (line_status line))
  in
  let term =
    Term.(
      const run $ client_term $ query_pos_opt $ ping_flag $ stats_flag
      $ shutdown_flag $ health_flag $ call_count_flag $ call_lint_flag
      $ pipeline_flag $ strategy_arg $ limit_arg $ max_length_arg
      $ simple_arg $ deadline_arg $ fuel_arg $ max_paths_arg)
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Send one mrpa.wire/1 request to a running `mrpa serve` and print \
          the response line (or, with --pipeline, many requests on one \
          connection). Exits 0 on a complete result, 3 on a partial one \
          (budget or limit), 1 on any error response.")
    term

(* --- route / partition -------------------------------------------------------------- *)

(* The sharded serving tier: `mrpa partition` splits a graph by the shard
   map's hash placement; `mrpa route` fronts the resulting fleet with the
   scatter-gather router (Mrpa_server.Router) — same wire protocol in and
   out, so `mrpa call` needs no changes to talk to a sharded deployment. *)

let shard_map_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "shard-map" ] ~docv:"FILE"
        ~doc:
          "The mrpa.shardmap/1 file naming each shard and its failover \
           endpoint list (primary first, replicas after).")

let route_cmd =
  let shard_timeout_arg =
    Arg.(
      value
      & opt float Mrpa_server.Router.default_shard_timeout_ms
      & info [ "shard-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Transport guard per shard dispatch: connect plus response \
             within $(docv), even when the request carries no deadline. A \
             request's own deadline, when tighter, wins.")
  in
  let probe_timeout_arg =
    Arg.(
      value
      & opt float Mrpa_server.Router.default_probe_timeout_ms
      & info [ "probe-timeout-ms" ] ~docv:"MS"
          ~doc:"Budget of the half-open breaker's health probe.")
  in
  let breaker_failures_arg =
    Arg.(
      value
      & opt int Mrpa_server.Router.default_breaker_failures
      & info [ "breaker-failures" ] ~docv:"N"
          ~doc:
            "Consecutive fully-failed dispatches (every endpoint dead or \
             stale) that open a shard's circuit breaker.")
  in
  let breaker_cooldown_arg =
    Arg.(
      value
      & opt float Mrpa_server.Router.default_breaker_cooldown_ms
      & info [ "breaker-cooldown-ms" ] ~docv:"MS"
          ~doc:
            "How long an open breaker fails fast (no I/O to the shard) \
             before the next dispatch half-opens it with a health probe.")
  in
  let frontier_cap_arg =
    Arg.(
      value
      & opt int Mrpa_server.Router.default_frontier_cap
      & info [ "frontier-cap" ] ~docv:"N"
          ~doc:
            "Widest frontier inlined into a narrowed selector's \
             source position; wider frontiers still narrow the dispatch \
             targets but leave the selector text unrewritten.")
  in
  let run (front, limits) shard_map shard_timeout_ms probe_timeout_ms
      breaker_failures breaker_cooldown_ms frontier_cap =
    let module S = Mrpa_server in
    let endpoint = front.S.Listener.endpoint in
    let map = or_die (S.Shardmap.load shard_map) in
    let config =
      {
        S.Router.front;
        map;
        limits;
        shard_timeout_ms;
        probe_timeout_ms;
        breaker_failures;
        breaker_cooldown_ms;
        frontier_cap;
      }
    in
    let router =
      try S.Router.create config
      with Invalid_argument msg -> or_die (Error msg)
    in
    Printf.eprintf "mrpa route: %s shards=%d (%s)\n%!"
      (S.Wire.endpoint_to_string endpoint)
      (S.Shardmap.n_shards map)
      (String.concat ", "
         (List.map (fun s -> s.S.Shardmap.name) (S.Shardmap.shards map)));
    run_front_door "route" endpoint
      ~stop:(fun () -> S.Router.stop router)
      ~bound_endpoint:(fun () -> S.Router.bound_endpoint router)
      (fun () -> S.Router.serve router)
  in
  let term =
    Term.(
      const run $ front_door_term $ shard_map_arg $ shard_timeout_arg
      $ probe_timeout_arg $ breaker_failures_arg $ breaker_cooldown_arg
      $ frontier_cap_arg)
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Front a sharded fleet of `mrpa serve` processes with one \
          mrpa.wire/1 endpoint: each query gathers the subgraph it can \
          reach from the shards that own its edges (hash of the tail \
          vertex, per --shard-map) and runs the engine's plan on it. \
          Per-shard deadlines, \
          failover across each shard's replica endpoints, and a per-shard \
          circuit breaker keep one dead shard from taking the fleet down: \
          the answer degrades to a sound subset (partial:shard_unavailable, \
          exit 3 at `mrpa call`, missing shards named in the response) and \
          recovers within one breaker probe of the shard's return.")
    term

let partition_cmd =
  let graph_pos =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"GRAPH" ~doc:"TSV edge list to split.")
  in
  let out_dir_arg =
    Arg.(
      value & opt string "."
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:"Directory for the per-shard TSV files (created if missing).")
  in
  let run graph shard_map out_dir =
    let module S = Mrpa_server in
    let map = or_die (S.Shardmap.load shard_map) in
    let g = or_die (load_graph graph) in
    let parts = S.Shardmap.write_partition map g ~dir:out_dir in
    List.iter
      (fun (path, n_edges) ->
        Printf.printf "mrpa partition: %s (%d edge(s))\n" path n_edges)
      parts
  in
  let term = Term.(const run $ graph_pos $ shard_map_arg $ out_dir_arg) in
  Cmd.v
    (Cmd.info "partition"
       ~doc:
         "Split a graph into per-shard TSV files by the shard map's hash \
          placement (owner = crc32(tail) mod shards). Every shard receives \
          the full vertex universe (isolated-vertex directives) so names \
          resolve everywhere; edge sets are disjoint and their union is \
          the input. The same map drives `mrpa route`, so partitioner and \
          router agree on placement by construction.")
    term

(* --- views ------------------------------------------------------------------------- *)

(* Client for the server's materialized-view family: register / drop /
   list / read / analytics over mrpa.wire/1, with the same failover,
   bounded-staleness and budget surface as `mrpa call`. *)
let views_cmd =
  let action_pos =
    let actions =
      [
        ("register", `Register);
        ("drop", `Drop);
        ("list", `List);
        ("read", `Read);
        ("analytics", `Analytics);
      ]
    in
    Arg.(
      required
      & pos 0 (some (enum actions)) None
      & info [] ~docv:"ACTION"
          ~doc:
            "One of $(b,register) (add a named view from --word or \
             --query), $(b,drop), $(b,list), $(b,read) (the view's \
             derived edges; --counts adds per-pair path counts) or \
             $(b,analytics) (--measure over the view's derived graph).")
  in
  let name_pos =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"NAME" ~doc:"View name (required except for list).")
  in
  let word_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "word" ] ~docv:"A.B.C"
          ~doc:
            "register: a fixed label word, dot-separated — the view is \
             maintained incrementally (rank-1 updates) as writes stream \
             in.")
  in
  let vquery_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "query" ] ~docv:"QUERY"
          ~doc:
            "register: a regular path expression — the view is re-projected \
             on demand when stale, bounded by --max-length (clamped by the \
             server).")
  in
  let counts_flag =
    Arg.(
      value & flag
      & info [ "counts" ] ~doc:"read: include per-pair path counts.")
  in
  let measure_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "measure" ] ~docv:"MEASURE"
          ~doc:
            "analytics: degree, pagerank, components or communities \
             (default degree).")
  in
  let vtop_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "top" ] ~docv:"K"
          ~doc:"analytics: ranking size (default 10).")
  in
  let run { endpoints; min_seq; max_staleness_ms; policy } action name word
      vquery counts measure top limit max_length deadline_ms fuel max_paths =
    let module S = Mrpa_server in
    if name = None && action <> `List then
      or_die (Error "a NAME argument is required");
    let wire_word =
      Option.map
        (fun w ->
          let labels =
            String.split_on_char '.' w |> List.filter (fun l -> l <> "")
          in
          if labels = [] then or_die (Error "--word: no label names given");
          labels)
        word
    in
    let vreq =
      let named ?word ?view_query ?measure ?top action =
        { S.Wire.action; view_name = name; word; view_query; measure; top }
      in
      match action with
      | `Register ->
        if (word = None) = (vquery = None) then
          or_die (Error "register needs exactly one of --word or --query");
        named ?word:wire_word ?view_query:vquery S.Wire.V_register
      | `Drop -> named S.Wire.V_drop
      | `List -> named S.Wire.V_list
      | `Read -> named (if counts then S.Wire.V_counts else S.Wire.V_edges)
      | `Analytics -> named ?measure ?top S.Wire.V_analytics
    in
    let options =
      wire_options ?limit ~max_length ?deadline_ms ?fuel ?max_paths ?min_seq
        ?max_staleness_ms ()
    in
    let request =
      { S.Wire.id = S.Json.Null; verb = S.Wire.Views vreq; query = None; options }
    in
    let line = or_die (S.Client.request_failover ~policy endpoints request) in
    print_endline line;
    exit (exit_code_of_status (line_status line))
  in
  let term =
    Term.(
      const run $ client_term $ action_pos $ name_pos $ word_arg
      $ vquery_arg $ counts_flag $ measure_arg $ vtop_arg $ limit_arg
      $ max_length_arg $ deadline_arg $ fuel_arg $ max_paths_arg)
  in
  Cmd.v
    (Cmd.info "views"
       ~doc:
         "Manage and read a running server's materialized views: register \
          a label-word or path-expression view, drop it, list every view \
          with its maintenance accounting, read its derived edges, or run \
          degree/pagerank/components/communities analytics over it. Exits \
          0 on a complete answer, 3 on a partial one, 1 on any error \
          response.")
    term

(* --- append ------------------------------------------------------------------------- *)

(* The write side of a replicated deployment: mutations enter the system
   as journal appends (`mrpa append`), the primary tails the file and
   streams them to replicas. *)
let append_cmd =
  let journal_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL"
          ~doc:
            "Path of the change journal to append to (created as v2 if \
             missing) — the same file a `mrpa serve --role primary \
             --journal` tails.")
  in
  let add_arg =
    Arg.(
      value & opt_all string []
      & info [ "add" ] ~docv:"TAIL,LABEL,HEAD"
          ~doc:"Append an edge-insertion record. Repeatable.")
  in
  let del_arg =
    Arg.(
      value & opt_all string []
      & info [ "del" ] ~docv:"TAIL,LABEL,HEAD"
          ~doc:
            "Append an edge-deletion record; the edge must exist in the \
             journal's replay. Repeatable.")
  in
  let vertex_arg =
    Arg.(
      value & opt_all string []
      & info [ "vertex" ] ~docv:"NAME"
          ~doc:"Append an isolated-vertex record. Repeatable.")
  in
  let run path vertices adds dels =
    let triple what s =
      match String.split_on_char ',' s with
      | [ t; l; h ] when t <> "" && l <> "" && h <> "" -> (t, l, h)
      | _ ->
        or_die
          (Error (Printf.sprintf "--%s %S: want TAIL,LABEL,HEAD" what s))
    in
    let g = Digraph.create () in
    let j =
      try Journal.attach g path
      with Failure msg -> or_die (Error msg)
    in
    List.iter (fun name -> Journal.record_vertex j g name) vertices;
    List.iter
      (fun s ->
        let t, l, h = triple "add" s in
        ignore (Digraph.add g t l h))
      adds;
    List.iter
      (fun s ->
        let t, l, h = triple "del" s in
        let resolve what find name =
          match find name with
          | Some x -> x
          | None ->
            or_die
              (Error
                 (Printf.sprintf "--del %s: unknown %s %S" s what name))
        in
        let e =
          Edge.make
            ~tail:(resolve "vertex" (Digraph.find_vertex g) t)
            ~label:(resolve "label" (Digraph.find_label g) l)
            ~head:(resolve "vertex" (Digraph.find_vertex g) h)
        in
        if not (Digraph.remove_edge g e) then
          or_die (Error (Printf.sprintf "--del %s: no such edge" s)))
      dels;
    Journal.sync j;
    let written = Journal.entries_written j in
    Journal.close j;
    Printf.printf "%s: %d record%s appended (graph now %d vertices, %d edges)\n"
      path written
      (if written = 1 then "" else "s")
      (Digraph.n_vertices g) (Digraph.n_edges g)
  in
  let term =
    Term.(const run $ journal_pos $ vertex_arg $ add_arg $ del_arg)
  in
  Cmd.v
    (Cmd.info "append"
       ~doc:
         "Append mutation records (--vertex, then --add, then --del, in \
          that order) to a change journal, replaying its existing records \
          first so deletions resolve and duplicates are detected. The \
          write path of a replicated deployment: a primary server tails \
          the journal and streams the records to its replicas.")
    term

(* --- fsck --------------------------------------------------------------------------- *)

let fsck_cmd =
  let journal_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL" ~doc:"Path of the change journal to check.")
  in
  let repair_flag =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Rewrite the journal from the salvageable records (atomically, \
             always as v2) instead of only reporting. Clean journals are \
             left untouched.")
  in
  let run path repair =
    match Journal.recover path with
    | Error msg ->
      (* Unreadable file or unsupported format: nothing to salvage. *)
      Printf.eprintf "mrpa fsck: %s: %s\n" path msg;
      exit Mrpa_engine.Err.exit_user_error
    | Ok r ->
      let fmt =
        match r.Journal.format with Journal.V1 -> "v1" | Journal.V2 -> "v2"
      in
      List.iter
        (fun c ->
          Printf.printf "mrpa fsck: %s: %s\n" path
            (Journal.describe_corruption c))
        r.Journal.corruptions;
      (match r.Journal.stale_tmp with
      | Some tmp ->
        Printf.printf "mrpa fsck: %s: stale compaction tmp %s\n" path tmp
      | None -> ());
      if Journal.is_clean r then begin
        Printf.printf "mrpa fsck: %s: clean (%s, %d record(s))\n" path fmt
          r.Journal.applied;
        exit Mrpa_engine.Err.exit_ok
      end
      else if repair then begin
        Journal.repair r;
        Printf.printf "mrpa fsck: %s: repaired (%d record(s) kept, now v2)\n"
          path r.Journal.applied;
        exit Mrpa_engine.Err.exit_partial
      end
      else begin
        Printf.printf
          "mrpa fsck: %s: %d problem(s), %d record(s) salvageable (%s); run \
           with --repair to rewrite\n"
          path
          (List.length r.Journal.corruptions
          + if r.Journal.stale_tmp = None then 0 else 1)
          r.Journal.applied fmt;
        exit Mrpa_engine.Err.exit_user_error
      end
  in
  let term = Term.(const run $ journal_pos $ repair_flag) in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify (and with --repair, rewrite) a change journal: checksum \
          every record, report torn tails, sequence jumps and malformed or \
          unappliable records. Exits 0 when clean, 3 after a successful \
          repair, 1 when problems remain.")
    term

(* --- fig1 --------------------------------------------------------------------------- *)

let fig1_cmd =
  let run seed =
    let g = Generate.fig1 ~rng:(Prng.create seed) ~n_noise_vertices:6 ~n_noise_edges:12 in
    Format.printf "Graph: %a@." Digraph.pp_stats g;
    let text =
      "[i,alpha,_] . [_,beta,_]* . (([_,alpha,j] . {(j,alpha,i)}) | [_,alpha,k])"
    in
    Format.printf "Expression: %s@.@." text;
    let r = Mrpa_engine.Engine.query_exn ~max_length:6 g text in
    Format.printf "%d path(s) generated by the Figure 1 automaton:@."
      (Path_set.cardinal r.Mrpa_engine.Engine.paths);
    Path_set.iter
      (fun p -> Format.printf "  %a@." (Digraph.pp_path g) p)
      r.Mrpa_engine.Engine.paths
  in
  let term = Term.(const run $ seed_arg) in
  Cmd.v (Cmd.info "fig1" ~doc:"Run the paper's Figure 1 end to end") term

(* --- main --------------------------------------------------------------------------- *)

let () =
  let info =
    Cmd.info "mrpa" ~version:"1.0.0"
      ~doc:"A path algebra for multi-relational graphs (Rodriguez & Neubauer)"
  in
  let group =
    Cmd.group info
      [
        generate_cmd;
        stats_cmd;
        query_cmd;
        lint_cmd;
        crpq_cmd;
        shell_cmd;
        serve_cmd;
        route_cmd;
        partition_cmd;
        call_cmd;
        views_cmd;
        append_cmd;
        fsck_cmd;
        explain_cmd;
        equiv_cmd;
        recognize_cmd;
        project_cmd;
        communities_cmd;
        dot_cmd;
        graphml_cmd;
        cheapest_cmd;
        sample_cmd;
        automaton_cmd;
        fig1_cmd;
      ]
  in
  (* Anything that escapes a subcommand is by definition a bug; report it
     under the internal-error exit code, distinct from user errors (1) and
     partial results (3). *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception e ->
    Printf.eprintf "internal error: %s\n" (Printexc.to_string e);
    exit Mrpa_engine.Err.exit_internal_error
