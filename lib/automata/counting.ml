open Mrpa_graph

(* Trajectory-level dynamic programming over the lazy subset machine
   ({!Subset}): a configuration is (subset state, current vertex); because
   the machine is deterministic on (signature, adjacency) letters, each path
   corresponds to exactly one trajectory and trajectory counts are distinct
   path counts. The pre-first-edge configuration carries vertex [-1]. *)

type stats = { mutable subset_states : int; mutable peak_configs : int }

let fresh_stats () = { subset_states = 0; peak_configs = 0 }

exception Overflow

(* Counts are non-negative, so a sum past [max_int] wraps negative. *)
let add a b =
  let s = a + b in
  if s < 0 then raise Overflow else s

(* Configuration tables keyed by one packed int (see [pack]): no tuple is
   allocated or hashed per transition, and a count is bumped in place. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

let count_by_length ?stats ?(guard = Mrpa_core.Guard.none) g expr ~max_length =
  if max_length < 0 then invalid_arg "Counting.count_by_length: negative bound";
  let record f = match stats with None -> () | Some s -> f s in
  let m = Subset.make expr in
  let p = Subset.product m g in
  let counts = Array.make (max_length + 1) 0 in
  let initial = Subset.initial m in
  if Subset.accepting m initial then counts.(0) <- 1;
  (* (state, vertex) as one int; the pre-first-edge vertex -1 packs as 0. *)
  let stride = Digraph.n_vertices g + 1 in
  let pack state vertex = (state * stride) + vertex + 1 in
  let level = ref (Tbl.create 64) in
  Tbl.add !level (pack initial (-1)) (ref 1);
  (try
    for len = 1 to max_length do
    let next = Tbl.create 64 in
    Tbl.iter
      (fun key c ->
        (* One poll per expanded configuration; live = DP table being
           built. Tbl.length is O(1), so this is cheap. *)
        guard.Mrpa_core.Guard.poll ~cost:1 ~live:(Tbl.length next);
        Subset.iter_next p (key / stride) ((key mod stride) - 1)
          (fun e state' ->
            let key' = pack state' (Vertex.to_int (Edge.head e)) in
            match Tbl.find_opt next key' with
            | Some c' -> c' := add !c' !c
            | None -> Tbl.add next key' (ref !c)))
      !level;
    record (fun s -> s.peak_configs <- max s.peak_configs (Tbl.length next));
    Tbl.iter
      (fun key c ->
        if Subset.accepting m (key / stride) then
          counts.(len) <- add counts.(len) !c)
      next;
    level := next
    done
  with Mrpa_core.Guard.Abort _ ->
    (* Graceful degradation: counts for every completed length are exact;
       the aborted length was never folded into [counts], so the array is a
       sound lower bound per entry. *)
    ());
  record (fun s -> s.subset_states <- Subset.n_cached_states m);
  counts

let count ?stats ?guard g expr ~max_length =
  Array.fold_left add 0 (count_by_length ?stats ?guard g expr ~max_length)
