(* perfbench: the serving benchmark's entry point.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Builds the workload's seeded input, starts the system under test as
   child processes of the built [mrpa] binary, drives it in a closed loop,
   checks every answer against the in-process engine and prints one JSON
   result line last: the end-to-end metrics with [--trace 0], the
   per-layer metrics of a traced run with [--trace 1]. Run it from the
   repository root after [dune build]; [perfbench/run.py] does both. *)

let setup_reps = 5
let warmup_s = 2.0

(* Start the fleet [setup_reps] times, keeping the last one running; the
   set-up time is the median. *)
let start_fleet (w : Workload.t) =
  let rec go i times =
    let t0 = Proc.now () in
    let fleet = w.Workload.start () in
    let times = (Proc.now () -. t0) :: times in
    if i < setup_reps then begin
      Fleet.stop fleet;
      go (i + 1) times
    end
    else (fleet, Stats.median times)
  in
  go 1 []

let prime (w : Workload.t) (fleet : Fleet.t) =
  List.iteri
    (fun id r ->
      match Proc.call fleet.Fleet.front (String.trim (Inputs.line ~id r)) with
      | Some l when Proc.is_ok l -> ()
      | _ -> failwith ("priming request failed: " ^ r.Inputs.query))
    w.Workload.prime

let drive (w : Workload.t) (fleet : Fleet.t) ~seconds =
  Loadgen.run ~socket:fleet.Fleet.front ~conns:(Proc.nproc ())
    ~warmup_s ~seconds ~server_pids:(Fleet.pids fleet) ?writes:w.Workload.writes
    (w.Workload.stream ())

let end_to_end (r : Loadgen.result) ~mismatches ~setup_s ~rss_mb =
  let f = Loadgen.figures r in
  let attempted = max 1 r.Loadgen.attempted in
  let good = max 0 (r.Loadgen.attempted - r.Loadgen.failed - mismatches) in
  let correct_share = float_of_int good /. float_of_int attempted in
  [
    ("setup_s", setup_s, "s");
    ("qps", f.Loadgen.qps *. correct_share, "1/s");
    ("p50_ms", Stats.percentile f.Loadgen.latencies 0.50, "ms");
    ("p90_ms", Stats.percentile f.Loadgen.latencies 0.90, "ms");
    ("ok_rate", correct_share, "fraction");
    ("server_cpu_ms_per_req", f.Loadgen.server_ms_per_req, "ms");
    ("server_rss_mb", rss_mb, "MiB");
  ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "1e300"

let emit ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} name (json_number v) unit)
      metrics
  in
  Printf.printf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|}
    correct attempted failed (String.concat "," fields);
  print_newline ()

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let usage () =
  prerr_endline
    "usage: perfbench --workload hot-eval|cold-plan|routed|write-mix --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec go = function
    | "--workload" :: w :: rest ->
      (match List.assoc_opt w Inputs.workloads with
      | Some w -> workload := Some w
      | None -> usage ());
      go rest
    | "--seed" :: n :: rest ->
      seed := (match int_of_string_opt n with Some n -> n | None -> usage ());
      go rest
    | "--seconds" :: s :: rest ->
      seconds := (match float_of_string_opt s with Some s when s > 0. -> s | _ -> usage ());
      go rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> false | "1" -> true | _ -> usage ());
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some w -> (w, !seed, !seconds, !trace)

let () =
  let workload, seed, seconds, trace = parse_args () in
  Mrpa_server.Net.ignore_sigpipe ();
  at_exit Proc.stop_all;
  (* A run must end within three minutes whatever happens to a child. *)
  let give_up why = Sys.Signal_handle (fun _ -> prerr_endline ("perfbench: " ^ why); exit 3) in
  Sys.set_signal Sys.sigalrm (give_up "run exceeded its time limit");
  Sys.set_signal Sys.sigterm (give_up "terminated");
  Sys.set_signal Sys.sigint (give_up "interrupted");
  ignore (Unix.alarm 170);
  let started = Proc.now () in
  let phase name = Printf.eprintf "perfbench: %s at %.1f s\n%!" name (Proc.now () -. started) in
  let root = ".perfbench" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir =
    Filename.concat root
      (Printf.sprintf "%s-%d" (Inputs.workload_name workload) (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let w = Workload.prepare workload ~dir ~seed in
  phase "inputs built";
  let fleet, setup_s = start_fleet w in
  phase "fleet up";
  prime w fleet;
  let before = if trace then Some (Trace.counters fleet) else None in
  let result = drive w fleet ~seconds in
  let rss_mb = Fleet.peak_rss_mb fleet in
  let traced =
    Option.map
      (fun before ->
        let after = Trace.counters fleet in
        Trace.run w fleet ~dir ~seed ~seconds ~before ~after ~live:result)
      before
  in
  Fleet.stop fleet;
  phase "window done";
  let mismatches =
    Oracle.mismatches ~at_seq:w.Workload.at_seq w.Workload.oracle
      result.Loadgen.answers
  in
  phase
    (Printf.sprintf "%d distinct answers checked"
       (Hashtbl.fold (fun _ l n -> n + List.length l) result.Loadgen.answers 0));
  let share = Loadgen.core_share result in
  let valid = share < 0.8 in
  if not valid then
    Printf.eprintf
      "perfbench: INVALID run: the generator used %.2f of a core\n%!" share;
  let failed = result.Loadgen.failed + mismatches in
  let correct = failed = 0 && result.Loadgen.errors = 0 && valid in
  let f = Loadgen.figures result in
  Printf.eprintf
    "perfbench: %s seed %d: %d requests, %d failed, %d wrong answers, \
     in-flight %d, generator %.3f ms/request (%.0f%% of a core), \
     %.1f%% of CPU ticks stolen by the host, %.1f%% used by other processes, \
     %.0f%% of the window measured\n%!"
    (Inputs.workload_name workload) seed result.Loadgen.attempted
    result.Loadgen.failed mismatches
    (Loadgen.depth * Proc.nproc ())
    (result.Loadgen.loadgen_cpu_ms /. float_of_int (max 1 result.Loadgen.completed_after_t0))
    (100. *. share) (100. *. f.Loadgen.steal) (100. *. f.Loadgen.foreign) (100. *. f.Loadgen.used);
  if correct then remove_tree dir;
  let metrics =
    match traced with
    | None -> end_to_end result ~mismatches ~setup_s ~rss_mb
    | Some per_layer -> per_layer ~mismatches
  in
  emit ~correct ~attempted:(max 1 result.Loadgen.attempted) ~failed metrics
