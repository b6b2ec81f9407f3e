(** Bounded, mutex-guarded LRU cache.

    The server's compiled-plan and result caches both need the same
    discipline: a polymorphic-key hash map with least-recently-used
    eviction, safe to touch from every session thread and worker domain at
    once. One [Mutex.t] guards each cache — operations are O(1) hash
    lookups plus constant-time intrusive-list splices, so the critical
    section is a few dozen nanoseconds and never worth sharding.

    A capacity of zero (or less) disables the cache entirely: [find]
    always misses, [add] is a no-op. This is how `--plan-cache 0` /
    `--result-cache 0` turn the caches off without a second code path. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** [capacity <= 0] means disabled (see above). Keys are compared with
    structural equality/hashing, so keys must not contain functional
    values. *)

val capacity : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit promotes the entry to most-recently-used and bumps the
    hit counter, a miss bumps the miss counter. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace; the entry becomes most-recently-used. When the
    cache is over capacity the least-recently-used entry is evicted. *)

val length : ('k, 'v) t -> int

val hits : ('k, 'v) t -> int

val misses : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int
