(* The closed-loop load generator: one thread, [conns] Unix-socket
   connections, each holding [depth] pipelined [mrpa.wire/1] requests.

   The generator never parses a response. It reads the echoed id and the
   ok flag at fixed offsets, blanks the two fields that legitimately vary
   (the id and the server-side [elapsed_ms]) and files the rest under the
   request's answer key; {!Oracle} later checks each distinct answer once,
   and a mismatch counts against every response that carried it. *)

(* --- Growable receive buffer -------------------------------------------- *)

type rbuf = { mutable data : Bytes.t; mutable len : int; mutable scan : int }

let rbuf () = { data = Bytes.create 65536; len = 0; scan = 0 }

let append rb chunk n =
  if rb.len + n > Bytes.length rb.data then begin
    let bigger = Bytes.create (max (2 * Bytes.length rb.data) (rb.len + n)) in
    Bytes.blit rb.data 0 bigger 0 rb.len;
    rb.data <- bigger
  end;
  Bytes.blit chunk 0 rb.data rb.len n;
  rb.len <- rb.len + n

(* Pop every complete line, in order. *)
let lines rb f =
  let start = ref 0 in
  let rec go () =
    match Bytes.index_from_opt rb.data rb.scan '\n' with
    | Some i when i < rb.len ->
      f (Bytes.sub_string rb.data !start (i - !start));
      start := i + 1;
      rb.scan <- i + 1;
      go ()
    | _ -> ()
  in
  go ();
  if !start > 0 then begin
    Bytes.blit rb.data !start rb.data 0 (rb.len - !start);
    rb.len <- rb.len - !start
  end;
  rb.scan <- rb.len

(* --- Response fields ---------------------------------------------------- *)

let prefix = {|{"mrpa":"mrpa.wire/1","id":|}

let matches_at s i pat =
  let k = String.length pat in
  i >= 0
  && i + k <= String.length s
  &&
  let rec go j = j = k || (s.[i + j] = pat.[j] && go (j + 1)) in
  go 0

let rfind s pat =
  let rec go i = if i < 0 then None else if matches_at s i pat then Some i else go (i - 1) in
  go (String.length s - String.length pat)

let number_end s i =
  let n = String.length s in
  let rec go j =
    if j < n && match s.[j] with '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true | _ -> false
    then go (j + 1)
    else j
  in
  go i

(* The echoed id and where it ends; [None] for a line that is not a
   response envelope. *)
let response_id line =
  let p = String.length prefix in
  if not (matches_at line 0 prefix) then None
  else
    let e = number_end line p in
    match int_of_string_opt (String.sub line p (e - p)) with
    | Some id -> Some (id, e)
    | None -> None

let is_ok line id_end = matches_at line id_end {|,"ok":true|}

(* The response with its id and [elapsed_ms] value zeroed: still valid
   JSON, and equal for equal answers. *)
let normalize line id_end =
  let n = String.length line and p = String.length prefix in
  let b = Buffer.create n in
  Buffer.add_substring b line 0 p;
  Buffer.add_char b '0';
  (match rfind line {|"elapsed_ms":|} with
  | Some e when e > id_end ->
    let v = e + 13 in
    let w = number_end line v in
    Buffer.add_substring b line id_end (v - id_end);
    Buffer.add_char b '0';
    Buffer.add_substring b line w (n - w)
  | _ -> Buffer.add_substring b line id_end (n - id_end));
  Buffer.contents b

(* --- Answers, filed for the oracle -------------------------------------- *)

type answer = {
  req : Inputs.req;
  min_seq : int option;
  body : string;
  mutable seen : int;
}

type answers = (string, answer list) Hashtbl.t

let file (tbl : answers) req min_seq body =
  let key = Inputs.key ?min_seq req in
  let known = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  match List.find_opt (fun a -> String.equal a.body body) known with
  | Some a -> a.seen <- a.seen + 1
  | None -> Hashtbl.replace tbl key ({ req; min_seq; body; seen = 1 } :: known)

(* --- The closed loop ---------------------------------------------------- *)

(* Requests each connection keeps in flight: enough that the server's
   queue never runs dry between responses (one in flight measures thread
   wake-ups instead), few enough to stay a closed loop of waiting callers. *)
let depth = 2

type conn = { fd : Unix.file_descr; rb : rbuf; mutable inflight : int }

type pending = {
  sent : float;
  preq : Inputs.req;
  pseq : int option;
  conn : conn;
  timed : bool;
}

(* Journaled writes between reads (write-mix): every [every]-th operation
   waits for the in-flight reads to land, then calls [append], which
   returns the sequence number later reads must reflect. *)
type writes = { every : int; append : unit -> int }

(* One second of the window: its bounds, the VM's stolen and total CPU
   ticks (all CPUs, /proc/stat), the CPU time the VM's other processes
   used (busy ticks minus the servers' and the generator's CPU) and the
   servers' CPU time over it. *)
type slice = {
  s0 : float;
  s1 : float;
  steal : int;
  ticks : int;
  foreign_ms : float;
  server_ms : float;
}

type result = {
  samples : (float * float) array;
      (** timed requests: send time and latency in ms, [infinity] for a
          failure. *)
  completions : float array;  (** completion times of ok responses. *)
  slices : slice array;
  attempted : int;
  failed : int;  (** timed requests answered with an error. *)
  errors : int;  (** every error answer, warm-up and drain included. *)
  t0 : float;
  t1 : float;
  drained : float;  (** when the last timed request landed. *)
  completed_after_t0 : int;
  response_bytes : int;
  loadgen_cpu_ms : float;
  server_cpu_by_pid : (int * float) list;
  answers : answers;
  visible_ms : float array;  (** append return to first ok read after it. *)
  append_us : float array;
}

(* The generator's own CPU as a share of one core over the window: it is a
   valid load source only while this stays well below 1. *)
let core_share r = r.loadgen_cpu_ms /. 1000. /. (r.drained -. r.t0)

let cpu pids = List.map (fun pid -> (pid, Proc.cpu_ms pid)) pids

(* Total, stolen and busy (user, nice, system, irq, softirq) ticks of all
   CPUs since boot. *)
let host_ticks () =
  let ic = open_in "/proc/stat" in
  let line = input_line ic in
  close_in ic;
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: fields ->
    let v = Array.of_list (List.map int_of_string fields) in
    (Array.fold_left ( + ) 0 (Array.sub v 0 8), v.(7), v.(0) + v.(1) + v.(2) + v.(5) + v.(6))
  | _ -> failwith "unexpected /proc/stat"

let run ~socket ~conns ~warmup_s ~seconds ~server_pids ?writes next =
  let conns =
    List.init conns (fun _ ->
        match Proc.connect socket with
        | Some fd -> { fd; rb = rbuf (); inflight = 0 }
        | None -> failwith ("cannot connect to " ^ socket))
  in
  let by_fd = List.map (fun c -> (c.fd, c)) conns in
  let pending : (int, pending) Hashtbl.t = Hashtbl.create 64 in
  let answers : answers = Hashtbl.create 64 in
  let samples = ref [] and completions = ref [] and slices = ref [] in
  let visible = ref [] and appends = ref [] in
  let attempted = ref 0 and failed = ref 0 and errors = ref 0 and bytes = ref 0 in
  let after_t0 = ref 0 in
  let next_id = ref 1 and ops = ref 0 and min_seq = ref None in
  let awaiting_visible = ref None in
  let start = Proc.now () in
  let t0 = start +. warmup_s in
  let t1 = t0 +. seconds in
  let cpu0 = ref (0., []) and in_window = ref false in
  (* the open slice: its start, the host's ticks, the servers' and the
     generator's CPU at its start *)
  let cut = ref None in
  let close_slice now =
    let ticks, steal, busy = host_ticks () in
    let server = List.fold_left (fun acc (_, ms) -> acc +. ms) 0. (cpu server_pids) in
    let own = Proc.self_cpu_ms () in
    (match !cut with
    | Some (s0, (ticks0, steal0, busy0), server0, own0) ->
      let server_ms = server -. server0 in
      (* USER_HZ is 100: a tick is 10 ms *)
      let foreign_ms = (10. *. float_of_int (busy - busy0)) -. server_ms -. (own -. own0) in
      slices :=
        { s0; s1 = now; steal = steal - steal0; ticks = ticks - ticks0; foreign_ms; server_ms }
        :: !slices
    | None -> ());
    cut := if now < t1 then Some (now, (ticks, steal, busy), server, own) else None
  in
  let drained = ref t1 in
  let chunk = Bytes.create 262144 in
  let total_inflight () = Hashtbl.length pending in
  let write_due () =
    match writes with Some w -> !ops mod w.every = w.every - 1 | None -> false
  in
  let send c now =
    let req = next () in
    let id = !next_id in
    incr next_id;
    let line = Inputs.line ~id ?min_seq:!min_seq req in
    Mrpa_server.Net.write_all c.fd line;
    c.inflight <- c.inflight + 1;
    let timed = now >= t0 && now < t1 in
    if timed then incr attempted;
    Hashtbl.replace pending id
      { sent = now; preq = req; pseq = !min_seq; conn = c; timed };
    incr ops
  in
  let on_line line =
    let now = Proc.now () in
    match response_id line with
    | None -> failwith ("unexpected line from server: " ^ line)
    | Some (id, id_end) -> (
      match Hashtbl.find_opt pending id with
      | None -> failwith (Printf.sprintf "response to unknown id %d" id)
      | Some p ->
        Hashtbl.remove pending id;
        p.conn.inflight <- p.conn.inflight - 1;
        let ok = is_ok line id_end in
        if now >= t0 then incr after_t0;
        if ok && now >= t0 && now < t1 then completions := now :: !completions;
        if p.timed then begin
          bytes := !bytes + String.length line + 1;
          samples := (p.sent, if ok then (now -. p.sent) *. 1000. else infinity) :: !samples;
          if not ok then incr failed;
          drained := now
        end;
        if ok then begin
          file answers p.preq p.pseq (normalize line id_end);
          match (!awaiting_visible, p.pseq) with
          | Some (t_w, seq), Some s when s >= seq ->
            visible := ((now -. t_w) *. 1000.) :: !visible;
            awaiting_visible := None
          | _ -> ()
        end
        else begin
          incr errors;
          if !errors <= 3 then prerr_endline ("perfbench: error response: " ^ line)
        end)
  in
  let rec loop () =
    let now = Proc.now () in
    if (not !in_window) && now >= t0 then begin
      in_window := true;
      cpu0 := (Proc.self_cpu_ms (), cpu server_pids);
      close_slice now
    end;
    (match !cut with
    | Some (s0, _, _, _) when now >= t1 || now >= s0 +. 1. -> close_slice now
    | _ -> ());
    let sending = now < t1 in
    if (not sending) && total_inflight () = 0 then ()
    else if (not sending) && now > t1 +. 60. then failwith "requests did not drain"
    else begin
      if sending then begin
        match writes with
        | Some w when write_due () ->
          if total_inflight () = 0 then begin
            let a0 = Proc.now () in
            let seq = w.append () in
            let a1 = Proc.now () in
            appends := ((a1 -. a0) *. 1e6) :: !appends;
            min_seq := Some seq;
            awaiting_visible := Some (a1, seq);
            incr ops
          end
        | _ ->
          List.iter
            (fun c ->
              while c.inflight < depth && not (write_due ()) do
                send c (Proc.now ())
              done)
            conns
      end;
      let timeout = if sending then max 0.0005 (min 0.02 (t1 -. now)) else 0.05 in
      (match Unix.select (List.map (fun c -> c.fd) conns) [] [] timeout with
      | readable, _, _ ->
        List.iter
          (fun fd ->
            let c = List.assq fd by_fd in
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> failwith "server closed the connection"
            | n ->
              append c.rb chunk n;
              lines c.rb on_line)
          readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  let loadgen1 = Proc.self_cpu_ms () and server1 = cpu server_pids in
  List.iter (fun c -> Unix.close c.fd) conns;
  let l0, s0 = !cpu0 in
  let by_pid = List.map2 (fun (pid, a) (_, b) -> (pid, b -. a)) s0 server1 in
  {
    samples = Array.of_list !samples;
    completions = Array.of_list !completions;
    slices = Array.of_list (List.rev !slices);
    attempted = !attempted;
    failed = !failed;
    errors = !errors;
    t0;
    t1;
    drained = max !drained t1;
    completed_after_t0 = !after_t0;
    response_bytes = !bytes;
    loadgen_cpu_ms = loadgen1 -. l0;
    server_cpu_by_pid = by_pid;
    answers;
    visible_ms = Array.of_list !visible;
    append_us = Array.of_list !appends;
  }

(* --- Measuring the program, not the hypervisor --------------------------- *)

(* On a shared host the hypervisor takes whole stretches of CPU time from
   this VM (steal in /proc/stat), and other processes in the VM take CPU
   time from the fleet: throughput then drops by a third for seconds at a
   time while the program does the same work. A slice is clean when at
   most 5% of the VM's CPU time in it was stolen or went to processes
   outside the benchmark (the kernel's own share is about 1.5%). The figures use the clean slices, or, when fewer
   than a third of the window is clean, the third with the least time
   lost. *)
let lost s =
  ((10. *. float_of_int s.steal) +. Float.max 0. s.foreign_ms)
  /. (10. *. float_of_int (max 1 s.ticks))

let measured r =
  let n = Array.length r.slices in
  let share = lost in
  let ranked = List.sort (fun a b -> compare (share a) (share b)) (Array.to_list r.slices) in
  let clean = List.filter (fun s -> share s <= 0.05) ranked in
  let third = (n + 2) / 3 in
  if List.length clean >= third then clean else List.filteri (fun i _ -> i < third) ranked

let inside slices t = List.exists (fun s -> t >= s.s0 && t < s.s1) slices

type figures = {
  qps : float;  (** ok answers per second. *)
  latencies : float array;  (** sorted, ms. *)
  server_ms_per_req : float;
  used : float;  (** share of the window's slices used. *)
  steal : float;  (** share of the window's CPU ticks stolen. *)
  foreign : float;
      (** share of the window's CPU time used outside the benchmark. *)
}

let figures r =
  let used = measured r in
  let time = List.fold_left (fun acc s -> acc +. (s.s1 -. s.s0)) 0. used in
  let done_ = Array.fold_left (fun n t -> if inside used t then n + 1 else n) 0 r.completions in
  let latencies =
    Array.of_list
      (List.filter_map (fun (sent, ms) -> if inside used sent then Some ms else None)
         (Array.to_list r.samples))
  in
  Array.sort compare latencies;
  let total f = Array.fold_left (fun acc s -> acc + f s) 0 r.slices in
  {
    qps = float_of_int done_ /. time;
    latencies;
    server_ms_per_req =
      List.fold_left (fun acc s -> acc +. s.server_ms) 0. used /. float_of_int (max 1 done_);
    used = float_of_int (List.length used) /. float_of_int (max 1 (Array.length r.slices));
    steal = float_of_int (total (fun s -> s.steal)) /. float_of_int (max 1 (total (fun s -> s.ticks)));
    foreign =
      Array.fold_left (fun acc s -> acc +. Float.max 0. s.foreign_ms) 0. r.slices
      /. (10. *. float_of_int (max 1 (total (fun s -> s.ticks))));
  }
