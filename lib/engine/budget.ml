open Mrpa_core

type t = {
  deadline : int64 option;  (* absolute, on the monotonic clock *)
  fuel : int option;
  max_live : int option;
  (* Set from another thread or domain (shutdown, Ctrl-C) while the run
     polls it: an atomic makes the store visible to the polling domain. *)
  cancelled : bool Atomic.t;
  mutable tripped : Guard.reason option;
  mutable checkpoints : int;
  mutable fuel_used : int;
  mutable fault : (int * Guard.reason) option;
}

let create ?deadline_ms ?fuel ?max_live () =
  (match deadline_ms with
  | Some ms when ms < 0.0 -> invalid_arg "Budget.create: negative deadline"
  | _ -> ());
  (match fuel with
  | Some f when f < 0 -> invalid_arg "Budget.create: negative fuel"
  | _ -> ());
  (match max_live with
  | Some m when m < 0 -> invalid_arg "Budget.create: negative max_live"
  | _ -> ());
  let deadline =
    Option.map
      (fun ms -> Int64.add (Metrics.now_ns ()) (Int64.of_float (ms *. 1e6)))
      deadline_ms
  in
  {
    deadline;
    fuel;
    max_live;
    cancelled = Atomic.make false;
    tripped = None;
    checkpoints = 0;
    fuel_used = 0;
    fault = None;
  }

let unlimited () = create ()

let with_fault_injection ~at reason b =
  if at < 1 then invalid_arg "Budget.with_fault_injection: at < 1";
  b.fault <- Some (at, reason);
  b

let cancel b = Atomic.set b.cancelled true
let cancelled b = Atomic.get b.cancelled

let trip b r =
  b.tripped <- Some r;
  raise (Guard.Abort r)

let poll b ~cost ~live =
  (* Once tripped, keep raising: nested evaluator loops unwind fast and a
     stale budget cannot silently admit more work. *)
  (match b.tripped with Some r -> raise (Guard.Abort r) | None -> ());
  b.checkpoints <- b.checkpoints + 1;
  (match b.fault with
  | Some (at, r) when b.checkpoints >= at -> trip b r
  | _ -> ());
  if Atomic.get b.cancelled then trip b Guard.Cancelled;
  (match b.deadline with
  | Some d when Int64.compare (Metrics.now_ns ()) d >= 0 ->
    trip b Guard.Deadline
  | _ -> ());
  b.fuel_used <- b.fuel_used + cost;
  (match b.fuel with
  | Some f when b.fuel_used > f -> trip b Guard.Fuel
  | _ -> ());
  match b.max_live with
  | Some m when live > m -> trip b Guard.Memory
  | _ -> ()

let guard b = { Guard.poll = (fun ~cost ~live -> poll b ~cost ~live) }
let tripped b = b.tripped
let checkpoints b = b.checkpoints
let fuel_used b = b.fuel_used

let verdict ?limit ~returned b =
  match b with
  | Some { tripped = Some r; _ } -> Err.Partial (Err.of_guard r)
  | _ -> (
    match limit with
    | Some k when returned >= k -> Err.Partial Err.Limit
    | _ -> Err.Complete)
