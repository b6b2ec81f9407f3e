open Mrpa_graph
open Mrpa_automata

type t = {
  graph : Digraph.t;
  machine : Subset.t;
  free_steps : int -> Vertex.t -> Edge.t list;
  max_length : int;
  weight : Edge.t -> float;
}

let prepare ~weight graph expr ~max_length =
  if max_length < 0 then invalid_arg "Witness.prepare: negative max_length";
  let machine = Subset.make expr in
  let free_steps = Subset.free_steps machine graph in
  { graph; machine; free_steps; max_length; weight }

(* Candidate (edge, adjacency) continuations from a configuration; vertex
   [-1] is the pre-first-edge state. *)
let candidates t state vertex =
  if vertex < 0 then
    List.map (fun e -> (e, true)) (Subset.first_edges t.machine t.graph)
  else begin
    let v = Vertex.of_int vertex in
    List.map (fun e -> (e, true)) (Digraph.out_edges t.graph v)
    @ List.map (fun e -> (e, false)) (t.free_steps state v)
  end

(* Minimal suffix cost from (state, vertex) to acceptance (at [target] when
   given) within [remaining] further edges. infinity = unreachable. *)
let solve t ~target =
  let memo : (int * int * int, float) Hashtbl.t = Hashtbl.create 256 in
  let rec suffix state vertex remaining =
    match Hashtbl.find_opt memo (state, vertex, remaining) with
    | Some c -> c
    | None ->
      (* break cycles defensively: remaining strictly decreases, so plain
         recursion terminates; memoise after computing. *)
      let stop_here =
        if
          Subset.accepting t.machine state
          && (match target with None -> true | Some v -> vertex = Vertex.to_int v)
          && vertex >= 0
        then 0.0
        else infinity
      in
      let best = ref stop_here in
      if remaining > 0 then
        List.iter
          (fun (e, adj) ->
            let mask = Subset.mask_of_edge t.machine e in
            if mask <> 0 then begin
              let state' = Subset.step t.machine state ~mask ~adj in
              if not (Subset.is_dead t.machine state') then begin
                let c =
                  t.weight e
                  +. suffix state' (Vertex.to_int (Edge.head e)) (remaining - 1)
                in
                if c < !best then best := c
              end
            end)
          (candidates t state vertex);
      Hashtbl.add memo (state, vertex, remaining) !best;
      !best
  in
  suffix

let reconstruct t ~source ~target =
  let suffix = solve t ~target in
  let initial = Subset.initial t.machine in
  (* choose the best first edge (respecting the source anchor) *)
  let first_candidates =
    match source with
    | Some v -> List.map (fun e -> (e, true)) (Digraph.out_edges t.graph v)
    | None -> candidates t initial (-1)
  in
  let step_cost state _vertex remaining (e, adj) =
    let mask = Subset.mask_of_edge t.machine e in
    if mask = 0 then None
    else begin
      let state' = Subset.step t.machine state ~mask ~adj in
      if Subset.is_dead t.machine state' then None
      else
        let c =
          t.weight e +. suffix state' (Vertex.to_int (Edge.head e)) remaining
        in
        if c = infinity then None else Some (e, state', c)
    end
  in
  let options =
    List.filter_map
      (fun cand -> step_cost initial (-1) (t.max_length - 1) cand)
      (if t.max_length >= 1 then first_candidates else [])
  in
  match
    List.fold_left
      (fun acc ((_, _, c) as o) ->
        match acc with Some (_, _, c') when c' <= c -> acc | _ -> Some o)
      None options
  with
  | None -> None
  | Some (e0, s0, total) ->
    if total = infinity then None
    else begin
      (* walk greedily, always following an edge that achieves the memoised
         suffix cost *)
      let rec walk state vertex remaining acc_cost acc_edges =
        let here = suffix state vertex remaining in
        if
          here = 0.0
          && Subset.accepting t.machine state
          && (match target with None -> true | Some v -> vertex = Vertex.to_int v)
        then Some (Path.of_edges (List.rev acc_edges), acc_cost)
        else if remaining = 0 then None
        else begin
          let options =
            List.filter_map
              (fun cand -> step_cost state vertex (remaining - 1) cand)
              (candidates t state vertex)
          in
          match
            List.fold_left
              (fun acc ((_, _, c) as o) ->
                match acc with Some (_, _, c') when c' <= c -> acc | _ -> Some o)
              None options
          with
          | None -> None
          | Some (e, state', _) ->
            walk state'
              (Vertex.to_int (Edge.head e))
              (remaining - 1)
              (acc_cost +. t.weight e)
              (e :: acc_edges)
        end
      in
      walk s0 (Vertex.to_int (Edge.head e0)) (t.max_length - 1) (t.weight e0)
        [ e0 ]
    end

let cheapest t ~source ~target =
  reconstruct t ~source:(Some source) ~target:(Some target)

let cheapest_any t = reconstruct t ~source:None ~target:None
