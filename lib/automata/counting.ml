open Mrpa_graph

(* Trajectory-level dynamic programming over the lazy subset machine
   ({!Subset}): a configuration is (subset state, current vertex); because
   the machine is deterministic on (signature, adjacency) letters, each path
   corresponds to exactly one trajectory and trajectory counts are distinct
   path counts. The pre-first-edge configuration carries vertex [-1]. *)

type stats = { mutable subset_states : int; mutable peak_configs : int }

let fresh_stats () = { subset_states = 0; peak_configs = 0 }

let count_by_length ?stats ?(guard = Mrpa_core.Guard.none) g expr ~max_length =
  if max_length < 0 then invalid_arg "Counting.count_by_length: negative bound";
  let record f = match stats with None -> () | Some s -> f s in
  let m = Subset.make expr in
  let free_steps = Subset.free_steps m g in
  let counts = Array.make (max_length + 1) 0 in
  let initial = Subset.initial m in
  if Subset.accepting m initial then counts.(0) <- 1;
  let level : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.add level (initial, -1) 1;
  let bump tbl key c =
    Hashtbl.replace tbl key
      (c + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  (try
    for len = 1 to max_length do
    let next : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
    Hashtbl.iter
      (fun (state, vertex) c ->
        (* One poll per expanded configuration; live = DP table being
           built. Hashtbl.length is O(1), so this is cheap. *)
        guard.Mrpa_core.Guard.poll ~cost:1 ~live:(Hashtbl.length next);
        let consume e adj =
          let mask = Subset.mask_of_edge m e in
          if mask <> 0 then begin
            let state' = Subset.step m state ~mask ~adj in
            if not (Subset.is_dead m state') then
              bump next (state', Vertex.to_int (Edge.head e)) c
          end
        in
        if vertex < 0 then
          (* before the first edge the candidates are the first positions'
             matches; the adjacency bit is vacuous (mirrors recognition). *)
          List.iter (fun e -> consume e true) (Subset.first_edges m g)
        else begin
          let v = Vertex.of_int vertex in
          List.iter (fun e -> consume e true) (Digraph.out_edges g v);
          List.iter (fun e -> consume e false) (free_steps state v)
        end)
      level;
    Hashtbl.reset level;
    record (fun s -> s.peak_configs <- max s.peak_configs (Hashtbl.length next));
    Hashtbl.iter
      (fun (state, vertex) c ->
        Hashtbl.replace level (state, vertex) c;
        if Subset.accepting m state then counts.(len) <- counts.(len) + c)
      next
    done
  with Mrpa_core.Guard.Abort _ ->
    (* Graceful degradation: counts for every completed length are exact;
       the aborted length was never folded into [counts], so the array is a
       sound lower bound per entry. *)
    ());
  record (fun s -> s.subset_states <- Subset.n_cached_states m);
  counts

let count ?stats ?guard g expr ~max_length =
  Array.fold_left ( + ) 0 (count_by_length ?stats ?guard g expr ~max_length)
