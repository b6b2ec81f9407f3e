open Mrpa_graph
open Mrpa_core

type stats = {
  mutable edges_scanned : int;
  mutable paths_emitted : int;
  mutable max_depth : int;
  mutable max_frontier : int;
}

let fresh_stats () =
  { edges_scanned = 0; paths_emitted = 0; max_depth = 0; max_frontier = 0 }

(* Simple-path pruning works on the vertex itinerary (Path.vertices): the
   tails of all consumed edges plus the {e final} head. Only tails are
   permanent — an intermediate head leaves the itinerary when the next step
   is disjoint ([×∘]), exactly as {!Path.vertices} defines it — so the
   search prunes on a fresh-tail condition and checks the head condition
   only when a path is emitted. The tail set grows strictly, bounding
   simple-path search depth by [|V|] regardless of [max_length]. *)

let to_seq ?stats ?(guard = Guard.none) ?(simple = false) g (a : Glushkov.t)
    ~max_length =
  if max_length < 0 then invalid_arg "Generator.to_seq: negative max_length";
  let bump f = match stats with None -> () | Some s -> f s in
  let emit_ok tails e =
    (not simple)
    || (not (Vertex.Set.mem (Edge.head e) tails))
       && not (Edge.is_loop e)
  in
  let rec extend p last rev_edges tails len : Path.t Seq.t =
    if len >= max_length then Seq.empty
    else
      Seq.concat_map
        (fun (q, kind) ->
          (* The search is path-at-a-time, so live memory is just the spine
             of the current extension: report the banked count upstream
             instead (generate_automaton polls it). *)
          guard.Guard.poll ~cost:1 ~live:0;
          let candidates =
            match (last, kind) with
            | None, _ | Some _, Glushkov.Free ->
              Selector.enumerate g a.selector_of.(q)
            | Some e, Glushkov.Joint ->
              Selector.select_out g a.selector_of.(q) (Edge.head e)
          in
          bump (fun s ->
              let n = List.length candidates in
              s.edges_scanned <- s.edges_scanned + n;
              s.max_frontier <- max s.max_frontier n);
          let candidates =
            if simple then
              List.filter
                (fun e -> not (Vertex.Set.mem (Edge.tail e) tails))
                candidates
            else candidates
          in
          Seq.concat_map
            (fun e ->
              bump (fun s -> s.max_depth <- max s.max_depth (len + 1));
              let rev_edges' = e :: rev_edges in
              let tails' =
                if simple then Vertex.Set.add (Edge.tail e) tails else tails
              in
              let here =
                if Glushkov.final a q && emit_ok tails' e then
                  fun () ->
                    bump (fun s -> s.paths_emitted <- s.paths_emitted + 1);
                    Seq.Cons (Path.of_edges (List.rev rev_edges'), Seq.empty)
                else Seq.empty
              in
              Seq.append here (extend q (Some e) rev_edges' tails' (len + 1)))
            (List.to_seq candidates))
        (List.to_seq (Glushkov.successors a p))
  in
  let eps =
    if a.nullable then
      fun () ->
        bump (fun s -> s.paths_emitted <- s.paths_emitted + 1);
        Seq.Cons (Path.empty, Seq.empty)
    else Seq.empty
  in
  Seq.append eps (extend 0 None [] Vertex.Set.empty 0)

let generate_automaton ?stats ?(guard = Guard.none) ?max_paths ?simple g a
    ~max_length =
  let seq = to_seq ?stats ~guard ?simple g a ~max_length in
  let stop n = match max_paths with None -> false | Some m -> n >= m in
  (* An abort mid-stream degrades to the distinct paths banked so far — a
     sound subset of the denotation. The would-be bank count is polled
     before adding, so a memory budget is never exceeded. *)
  let rec collect acc n seq =
    if stop n then acc
    else
      match seq () with
      | exception Guard.Abort _ -> acc
      | Seq.Nil -> acc
      | Seq.Cons (p, rest) ->
        (* [add] returns [acc] itself when [p] is already banked. *)
        let acc' = Path_set.add p acc in
        if acc' == acc then collect acc n rest
        else (
          match guard.Guard.poll ~cost:0 ~live:(n + 1) with
          | () -> collect acc' (n + 1) rest
          | exception Guard.Abort _ -> acc)
  in
  collect Path_set.empty 0 seq

let generate ?stats ?guard ?max_paths ?simple g expr ~max_length =
  generate_automaton ?stats ?guard ?max_paths ?simple g (Glushkov.build expr)
    ~max_length

let exists g expr ~max_length =
  not (Path_set.is_empty (generate ~max_paths:1 g expr ~max_length))

let count g expr ~max_length =
  Path_set.cardinal (generate g expr ~max_length)
