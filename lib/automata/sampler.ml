open Mrpa_graph

type t = {
  machine : Subset.t;
  product : Subset.product;
  max_length : int;
  (* N_t(state, vertex): accepted continuations consuming exactly t more
     edges. vertex = -1 encodes "no edge consumed yet". *)
  completions : (int * int * int, int) Hashtbl.t;
}

let rec completions t state vertex remaining =
  if remaining = 0 then if Subset.accepting t.machine state then 1 else 0
  else
    match Hashtbl.find_opt t.completions (state, vertex, remaining) with
    | Some n -> n
    | None ->
      let total = ref 0 in
      Subset.iter_next t.product state vertex (fun e state' ->
          total :=
            Counting.add !total
              (completions t state' (Vertex.to_int (Edge.head e))
                 (remaining - 1)));
      Hashtbl.add t.completions (state, vertex, remaining) !total;
      !total

let prepare graph expr ~max_length =
  if max_length < 0 then invalid_arg "Sampler.prepare: negative max_length";
  let machine = Subset.make expr in
  {
    machine;
    product = Subset.product machine graph;
    max_length;
    completions = Hashtbl.create 256;
  }

let initial_config t = (Subset.initial t.machine, -1)

let population t =
  let state, vertex = initial_config t in
  let total = ref 0 in
  for len = 0 to t.max_length do
    total := Counting.add !total (completions t state vertex len)
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
        let weighted = ref [] in
        Subset.iter_next t.product state vertex (fun e state' ->
            let n =
              completions t state' (Vertex.to_int (Edge.head e)) (remaining - 1)
            in
            if n > 0 then weighted := (e, state', n) :: !weighted);
        (* the weights sum to the memoised completions, > 0 by construction
           of [length] *)
        let ticket = Prng.int rng (completions t state vertex remaining) in
        let rec choose acc = function
          | [] -> assert false
          | (e, state', n) :: rest ->
            if ticket < acc + n then
              walk state' (Vertex.to_int (Edge.head e)) (remaining - 1)
                (e :: acc_edges)
            else choose (acc + n) rest
        in
        choose 0 (List.rev !weighted)
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
