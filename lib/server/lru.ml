(* Classic hash-map + intrusive doubly-linked list LRU. [head] is the
   most-recently-used end, [tail] the eviction end. All state, counters
   included, lives behind one mutex so the cache is safe across session
   threads and worker domains alike. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  lock : Mutex.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  {
    capacity;
    table = Hashtbl.create (max 16 (min capacity 4096));
    lock = Mutex.create ();
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.capacity
let enabled t = t.capacity > 0

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Splice [n] out of the list. Caller holds the lock. *)
let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

(* Push [n] at the MRU end. Caller holds the lock; [n] must be unlinked. *)
let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t k =
  if not (enabled t) then None
  else
    with_lock t (fun () ->
        match Hashtbl.find_opt t.table k with
        | None ->
          t.misses <- t.misses + 1;
          None
        | Some n ->
          t.hits <- t.hits + 1;
          unlink t n;
          push_front t n;
          Some n.value)

let add t k v =
  if enabled t then
    with_lock t (fun () ->
        (match Hashtbl.find_opt t.table k with
        | Some n ->
          n.value <- v;
          unlink t n;
          push_front t n
        | None ->
          let n = { key = k; value = v; prev = None; next = None } in
          Hashtbl.replace t.table k n;
          push_front t n);
        while Hashtbl.length t.table > t.capacity do
          match t.tail with
          | None -> Hashtbl.reset t.table (* unreachable: length > 0 *)
          | Some lru ->
            unlink t lru;
            Hashtbl.remove t.table lru.key;
            t.evictions <- t.evictions + 1
        done)

let length t = with_lock t (fun () -> Hashtbl.length t.table)
let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)
let evictions t = with_lock t (fun () -> t.evictions)
