open Mrpa_graph
open Mrpa_automata

type t = {
  machine : Subset.t;
  product : Subset.product;
  max_length : int;
  weight : Edge.t -> float;
}

let prepare ~weight graph expr ~max_length =
  if max_length < 0 then invalid_arg "Witness.prepare: negative max_length";
  let machine = Subset.make expr in
  { machine; product = Subset.product machine graph; max_length; weight }

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
        Subset.iter_next t.product state vertex (fun e state' ->
            let c =
              t.weight e
              +. suffix state' (Vertex.to_int (Edge.head e)) (remaining - 1)
            in
            if c < !best then best := c);
      Hashtbl.add memo (state, vertex, remaining) !best;
      !best
  in
  suffix

let reconstruct t ~source ~target =
  let suffix = solve t ~target in
  (* The first successor of (state, vertex) with the least finite cost when
     [remaining] edges may follow it; [keep] filters the candidate edges. *)
  let best_step ?(keep = fun _ -> true) state vertex remaining =
    let best = ref None in
    Subset.iter_next t.product state vertex (fun e state' ->
        if keep e then begin
          let c =
            t.weight e +. suffix state' (Vertex.to_int (Edge.head e)) remaining
          in
          match !best with
          | Some (_, _, c') when c' <= c -> ()
          | _ -> if c < infinity then best := Some (e, state', c)
        end);
    !best
  in
  let initial = Subset.initial t.machine in
  let first =
    if t.max_length < 1 then None
    else
      match source with
      | None -> best_step initial (-1) (t.max_length - 1)
      | Some v ->
        (* Anchored at the source: its out-edges, stepped from the initial
           state. The configuration (initial, source) also offers the [×∘]
           candidates, edges not leaving the source; [keep] drops them. *)
        best_step
          ~keep:(fun e -> Vertex.equal (Edge.tail e) v)
          initial (Vertex.to_int v) (t.max_length - 1)
  in
  match first with
  | None -> None
  | Some (e0, s0, _) ->
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
      else
        match best_step state vertex (remaining - 1) with
        | None -> None
        | Some (e, state', _) ->
          walk state'
            (Vertex.to_int (Edge.head e))
            (remaining - 1)
            (acc_cost +. t.weight e)
            (e :: acc_edges)
    in
    walk s0 (Vertex.to_int (Edge.head e0)) (t.max_length - 1) (t.weight e0)
      [ e0 ]

let cheapest t ~source ~target =
  reconstruct t ~source:(Some source) ~target:(Some target)

let cheapest_any t = reconstruct t ~source:None ~target:None
