open Mrpa_graph

type t = {
  graph : Digraph.t;
  machine : Subset.t;
  free_steps : int -> Vertex.t -> Edge.t list;
  max_length : int;
  (* N_t(state, vertex): accepted continuations consuming exactly t more
     edges. vertex = -1 encodes "no edge consumed yet". *)
  completions : (int * int * int, int) Hashtbl.t;
}

(* Candidate edges leaving a configuration, with their adjacency bit. *)
let candidates t state vertex =
  if vertex < 0 then
    List.map (fun e -> (e, true)) (Subset.first_edges t.machine t.graph)
  else begin
    let v = Vertex.of_int vertex in
    List.map (fun e -> (e, true)) (Digraph.out_edges t.graph v)
    @ List.map (fun e -> (e, false)) (t.free_steps state v)
  end

let rec completions t state vertex remaining =
  if remaining = 0 then if Subset.accepting t.machine state then 1 else 0
  else
    match Hashtbl.find_opt t.completions (state, vertex, remaining) with
    | Some n -> n
    | None ->
      let total =
        List.fold_left
          (fun acc (e, adj) ->
            let mask = Subset.mask_of_edge t.machine e in
            if mask = 0 then acc
            else begin
              let state' = Subset.step t.machine state ~mask ~adj in
              if Subset.is_dead t.machine state' then acc
              else
                acc
                + completions t state' (Vertex.to_int (Edge.head e))
                    (remaining - 1)
            end)
          0 (candidates t state vertex)
      in
      Hashtbl.add t.completions (state, vertex, remaining) total;
      total

let prepare graph expr ~max_length =
  if max_length < 0 then invalid_arg "Sampler.prepare: negative max_length";
  let machine = Subset.make expr in
  let free_steps = Subset.free_steps machine graph in
  { graph; machine; free_steps; max_length; completions = Hashtbl.create 256 }

let initial_config t = (Subset.initial t.machine, -1)

let population t =
  let state, vertex = initial_config t in
  let total = ref 0 in
  for len = 0 to t.max_length do
    total := !total + completions t state vertex len
  done;
  !total

let draw t rng =
  let state0, vertex0 = initial_config t in
  let total = population t in
  if total = 0 then None
  else begin
    (* choose the target length proportional to its population *)
    let target = Prng.int rng total in
    let rec pick_length len acc =
      let here = completions t state0 vertex0 len in
      if target < acc + here then len else pick_length (len + 1) (acc + here)
    in
    let length = pick_length 0 0 in
    (* walk forward, choosing each edge proportional to its completions *)
    let rec walk state vertex remaining acc_edges =
      if remaining = 0 then Path.of_edges (List.rev acc_edges)
      else begin
        let weighted =
          List.filter_map
            (fun (e, adj) ->
              let mask = Subset.mask_of_edge t.machine e in
              if mask = 0 then None
              else begin
                let state' = Subset.step t.machine state ~mask ~adj in
                if Subset.is_dead t.machine state' then None
                else
                  let n =
                    completions t state' (Vertex.to_int (Edge.head e))
                      (remaining - 1)
                  in
                  if n = 0 then None else Some (e, state', n)
              end)
            (candidates t state vertex)
        in
        let subtotal = List.fold_left (fun acc (_, _, n) -> acc + n) 0 weighted in
        (* subtotal > 0 by construction of [length] *)
        let ticket = Prng.int rng subtotal in
        let rec choose acc = function
          | [] -> assert false
          | (e, state', n) :: rest ->
            if ticket < acc + n then
              walk state' (Vertex.to_int (Edge.head e)) (remaining - 1)
                (e :: acc_edges)
            else choose (acc + n) rest
        in
        choose 0 weighted
      end
    in
    Some (walk state0 vertex0 length [])
  end

let sample t rng n =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match draw t rng with
      | None -> []
      | Some p -> go (p :: acc) (k - 1)
  in
  go [] n

let sample_expr ~rng graph expr ~max_length n =
  sample (prepare graph expr ~max_length) rng n
