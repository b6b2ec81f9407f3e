(* Child processes of the built [mrpa] binary, and what /proc says about
   them. Every child is registered so an early exit still stops it. *)

let mrpa = Filename.concat "_build" (Filename.concat "default" "bin/mrpa.exe")

type child = { pid : int; name : string; log : string }

let live : child list ref = ref []

let now () = Unix.gettimeofday ()

let nproc () = Domain.recommended_domain_count ()

let spawn ~dir name args =
  let log = Filename.concat dir (name ^ ".log") in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process mrpa (Array.of_list (mrpa :: args)) devnull fd fd
  in
  Unix.close fd;
  Unix.close devnull;
  let c = { pid; name; log } in
  live := c :: !live;
  c

let log_tail c =
  try
    let ic = open_in c.log in
    let n = in_channel_length ic in
    let k = min n 2000 in
    seek_in ic (n - k);
    let s = really_input_string ic k in
    close_in ic;
    s
  with Sys_error _ -> ""

let exited c =
  match Unix.waitpid [ Unix.WNOHANG ] c.pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 0)

(* Wait up to [timeout] seconds for the child to exit. *)
let reap ?(timeout = 10.) c =
  let deadline = now () +. timeout in
  let rec go () =
    match exited c with
    | Some _ -> true
    | None when now () > deadline -> false
    | None ->
      Unix.sleepf 0.005;
      go ()
  in
  go ()

(* SIGTERM asks [mrpa serve]/[route] to drain; SIGKILL if it does not. *)
let stop c =
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (reap c) then begin
    (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (reap ~timeout:5. c)
  end;
  live := List.filter (fun c' -> c'.pid <> c.pid) !live

let stop_all () = List.iter stop !live

(* Run a child to completion (a one-shot command such as [partition]). *)
let run ~dir name args =
  let c = spawn ~dir name args in
  if not (reap ~timeout:120. c) then failwith (name ^ ": timed out");
  live := List.filter (fun c' -> c'.pid <> c.pid) !live

(* --- /proc -------------------------------------------------------------- *)

(* utime + stime of the whole thread group, in milliseconds (USER_HZ is 100
   on every Linux ABI this runs on). *)
let cpu_ms pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = input_line ic in
  close_in ic;
  (* the command name may contain spaces; fields resume after its ')' *)
  let rest =
    let i = String.rindex line ')' in
    String.sub line (i + 2) (String.length line - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields 14 and 15 of stat, counted from the state field (3) *)
  10. *. (float_of_string fields.(11) +. float_of_string fields.(12))

let self_cpu_ms () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1000.

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec find () =
    match input_line ic with
    | line
      when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.
  in
  let v = find () in
  close_in ic;
  v

(* --- One-shot wire calls ------------------------------------------------ *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
    ->
    Unix.close fd;
    None

(* One request line, one response line; [None] if the endpoint is not
   accepting connections (yet). *)
let call path line =
  match Mrpa_server.Client.connect (Mrpa_server.Wire.Unix_socket path) with
  | Error _ -> None
  | Ok conn ->
    let r = Mrpa_server.Client.request_raw conn line in
    Mrpa_server.Client.close conn;
    Result.to_option r

let is_ok line =
  match Mrpa_server.Json.parse line with
  | Ok j -> Mrpa_server.Json.member "ok" j = Some (Mrpa_server.Json.Bool true)
  | Error _ -> false

let verb_line verb = Printf.sprintf {|{"mrpa":"mrpa.wire/1","id":0,"verb":"%s"}|} verb

(* Poll until [path] answers an ok ping; raises if [c] dies first or the
   deadline passes. Polls every 2 ms so set-up time resolves finely. *)
let await_ping ?(timeout = 120.) c path =
  let deadline = now () +. timeout in
  let rec go () =
    (match exited c with
    | Some _ ->
      failwith
        (Printf.sprintf "%s exited during set-up:\n%s" c.name (log_tail c))
    | None -> ());
    match call path (verb_line "ping") with
    | Some line when is_ok line -> ()
    | _ when now () > deadline -> failwith (c.name ^ ": no ping answer")
    | _ ->
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* The [stats] counters of a server or router, by name. *)
let stats path =
  match call path (verb_line "stats") with
  | None -> []
  | Some line -> (
    match Mrpa_server.Json.parse line with
    | Error _ -> []
    | Ok j -> (
      match Mrpa_server.Json.member "stats" j with
      | None -> []
      | Some s ->
        let fields =
          match Mrpa_server.Json.member "counters" s with
          | Some (Mrpa_server.Json.Obj f) -> f
          | _ -> ( match s with Mrpa_server.Json.Obj f -> f | _ -> [])
        in
        List.filter_map
          (fun (k, v) ->
            Option.map (fun f -> (k, f)) (Mrpa_server.Json.to_float_opt v))
          fields))
