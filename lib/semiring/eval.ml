open Mrpa_graph
open Mrpa_automata

type 'v result = {
  pairs : ((Vertex.t * Vertex.t) * 'v) list;
  epsilon : 'v option;
}

let run (type v) (module S : Semiring.S with type t = v)
    ?(weight = fun (_ : Edge.t) -> S.one) g expr ~max_length : v result =
  if max_length < 0 then invalid_arg "Eval.run: negative max_length";
  let m = Subset.make expr in
  let p = Subset.product m g in
  let initial = Subset.initial m in
  let epsilon = if Subset.accepting m initial then Some S.one else None in
  (* configuration: (source vertex, state, current vertex) -> value *)
  let level : (int * int * int, v) Hashtbl.t = Hashtbl.create 64 in
  (* accumulated answers: (source, target) -> value *)
  let answers : (int * int, v) Hashtbl.t = Hashtbl.create 64 in
  let combine tbl key value =
    let current =
      match Hashtbl.find_opt tbl key with Some x -> x | None -> S.zero
    in
    Hashtbl.replace tbl key (S.add current value)
  in
  (* seed: first edges *)
  Subset.iter_next p initial (-1) (fun e state ->
      combine level
        (Vertex.to_int (Edge.tail e), state, Vertex.to_int (Edge.head e))
        (weight e));
  let flush_accepting () =
    Hashtbl.iter
      (fun (src, state, v) value ->
        if Subset.accepting m state then combine answers (src, v) value)
      level
  in
  if max_length >= 1 then flush_accepting ();
  for _len = 2 to max_length do
    let next : (int * int * int, v) Hashtbl.t = Hashtbl.create 64 in
    Hashtbl.iter
      (fun (src, state, vertex) value ->
        Subset.iter_next p state vertex (fun e state' ->
            combine next
              (src, state', Vertex.to_int (Edge.head e))
              (S.mul value (weight e))))
      level;
    Hashtbl.reset level;
    Hashtbl.iter (fun key value -> Hashtbl.replace level key value) next;
    flush_accepting ()
  done;
  let pairs =
    Hashtbl.fold
      (fun (src, dst) value acc ->
        if S.equal value S.zero then acc
        else ((Vertex.of_int src, Vertex.of_int dst), value) :: acc)
      answers []
    |> List.sort (fun ((s1, d1), _) ((s2, d2), _) ->
           let c = Vertex.compare s1 s2 in
           if c <> 0 then c else Vertex.compare d1 d2)
  in
  { pairs; epsilon }

let total (type v) (module S : Semiring.S with type t = v) (r : v result) : v =
  let base = match r.epsilon with Some x -> x | None -> S.zero in
  List.fold_left (fun acc (_, value) -> S.add acc value) base r.pairs

let pair_value (type v) (module S : Semiring.S with type t = v) (r : v result)
    src dst : v =
  match
    List.find_opt
      (fun ((s, d), _) -> Vertex.equal s src && Vertex.equal d dst)
      r.pairs
  with
  | Some (_, value) -> value
  | None -> S.zero

let reachable_pairs g expr ~max_length =
  let r = run (module Semiring.Boolean) g expr ~max_length in
  List.map fst r.pairs

let count_pairs g expr ~max_length =
  (run (module Semiring.Natural) g expr ~max_length).pairs

let cheapest_paths ~weight g expr ~max_length =
  (run (module Semiring.Tropical) ~weight g expr ~max_length).pairs
