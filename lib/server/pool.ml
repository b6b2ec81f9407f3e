exception Fatal of string

type t = {
  queue : (int -> unit) Queue.t;
  capacity : int;
  lock : Mutex.t;
  nonempty : Condition.t;  (* signalled on enqueue and on shutdown *)
  mutable stopping : bool;
  mutable running : int;
  mutable errors : int;
  mutable restarts : int;
  (* Fixed at [create]; emptied by [shutdown], which joins them. *)
  mutable threads : Thread.t list;  (* the calling domain's workers *)
  mutable domains : unit Domain.t list;  (* the spawned domains *)
  n_domains : int;
}

(* A spawned domain's minor heap, in words: half the runtime's 256k-word
   (2 MiB) default, which every domain would otherwise reserve and touch.
   A router over two shards measured the same peak RSS at 64k words;
   the larger heap means fewer stop-the-world minor collections. *)
let domain_minor_heap_words = 128 * 1024

external cap_malloc_arenas : int -> unit = "mrpa_cap_malloc_arenas"

(* Workers block on [nonempty] until there is a job or the pool is
   stopping; on stop they finish draining the queue before exiting, which
   is what makes [shutdown] graceful. A job that raises [Fatal] unwinds
   the loop (after the running count is restored) to [worker_main]. Jobs
   get the index [i] of the worker running them. *)
let worker_loop t i =
  let rec next () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue then begin
      (* stopping && drained *)
      Mutex.unlock t.lock;
      ()
    end
    else begin
      let job = Queue.pop t.queue in
      t.running <- t.running + 1;
      Mutex.unlock t.lock;
      let fatal =
        match job i with
        | () -> None
        | exception (Fatal _ as f) -> Some f
        | exception _ ->
          Mutex.lock t.lock;
          t.errors <- t.errors + 1;
          Mutex.unlock t.lock;
          None
      in
      Mutex.lock t.lock;
      t.running <- t.running - 1;
      (match fatal with Some _ -> t.errors <- t.errors + 1 | None -> ());
      Mutex.unlock t.lock;
      match fatal with Some f -> raise f | None -> next ()
    end
  in
  next ()

(* Supervision: a worker must never silently shrink the pool. A loop that
   exits abnormally is counted and re-entered on the same thread, so the
   worker keeps its domain and [shutdown] has nothing new to join. *)
let rec worker_main t i =
  match worker_loop t i with
  | () -> ()
  | exception _ ->
    Mutex.lock t.lock;
    t.restarts <- t.restarts + 1;
    Mutex.unlock t.lock;
    worker_main t i

let start_worker t i = Thread.create (worker_main t) i

(* The workers of a spawned domain: a new thread for all but the first,
   which runs on the domain's own thread and returns once they have all
   exited. *)
let run_workers t = function
  | [] -> ()
  | first :: others ->
    let threads = List.map (start_worker t) others in
    worker_main t first;
    List.iter Thread.join threads

let shutdown t =
  let threads, domains =
    Mutex.protect t.lock (fun () ->
        t.stopping <- true;
        Condition.broadcast t.nonempty;
        let owned = (t.threads, t.domains) in
        t.threads <- [];
        t.domains <- [];
        owned)
  in
  List.iter Thread.join threads;
  List.iter Domain.join domains

let create ~workers ~queue_capacity =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  if queue_capacity < 1 then
    invalid_arg "Pool.create: queue_capacity must be >= 1";
  let d = min workers (Domain.recommended_domain_count ()) in
  let t =
    {
      queue = Queue.create ();
      capacity = queue_capacity;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      stopping = false;
      running = 0;
      errors = 0;
      restarts = 0;
      threads = [];
      domains = [];
      n_domains = d;
    }
  in
  (* Domains that allocate in parallel would each grow malloc arenas of
     their own (see pool_stubs.c): one arena per domain. *)
  if d > 1 then cap_malloc_arenas d;
  (* Worker [i] runs on domain [i mod d]; domain 0 is the caller's. *)
  let on_domain k =
    List.filter (fun i -> i mod d = k) (List.init workers Fun.id)
  in
  let spawn k =
    Domain.spawn (fun () ->
        Gc.set { (Gc.get ()) with minor_heap_size = domain_minor_heap_words };
        run_workers t (on_domain k))
  in
  (try
     t.threads <- List.map (start_worker t) (on_domain 0);
     for k = 1 to d - 1 do
       t.domains <- spawn k :: t.domains
     done
   with e ->
     (* Stop what did start, so a failed create leaves nothing running. *)
     shutdown t;
     raise e);
  t

let submit t job =
  Mutex.protect t.lock (fun () ->
      if t.stopping || Queue.length t.queue >= t.capacity then false
      else begin
        Queue.push job t.queue;
        Condition.signal t.nonempty;
        true
      end)

let queued t = Mutex.protect t.lock (fun () -> Queue.length t.queue)
let running t = Mutex.protect t.lock (fun () -> t.running)
let job_errors t = Mutex.protect t.lock (fun () -> t.errors)
let restarts t = Mutex.protect t.lock (fun () -> t.restarts)
let domains t = t.n_domains
