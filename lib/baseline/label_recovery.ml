open Mrpa_graph

let labels_between g u v =
  let labels =
    List.filter_map
      (fun e -> if Vertex.equal (Edge.head e) v then Some (Edge.label e) else None)
      (Digraph.out_edges g u)
  in
  List.sort_uniq Label.compare labels

let consecutive_pairs p =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [] | [ _ ] -> []
  in
  pairs (Vpath.vertices p)

let word_count g p =
  List.fold_left
    (fun acc (u, v) -> acc * List.length (labels_between g u v))
    1 (consecutive_pairs p)

let words ?(limit = 1000) g p =
  let rec go pairs =
    match pairs with
    | [] -> [ [] ]
    | (u, v) :: rest ->
      let tails = go rest in
      List.concat_map
        (fun l -> List.map (fun w -> l :: w) tails)
        (labels_between g u v)
  in
  let all = go (consecutive_pairs p) in
  List.filteri (fun i _ -> i < limit) all

let is_ambiguous g p = word_count g p > 1

type census = {
  total : int;
  unrealisable : int;
  unambiguous : int;
  ambiguous : int;
  max_words : int;
  total_words : int;
}

let census g s =
  Vpath.Set.fold
    (fun p acc ->
      let c = word_count g p in
      {
        total = acc.total + 1;
        unrealisable = (acc.unrealisable + if c = 0 then 1 else 0);
        unambiguous = (acc.unambiguous + if c = 1 then 1 else 0);
        ambiguous = (acc.ambiguous + if c > 1 then 1 else 0);
        max_words = max acc.max_words c;
        total_words = acc.total_words + c;
      })
    s
    {
      total = 0;
      unrealisable = 0;
      unambiguous = 0;
      ambiguous = 0;
      max_words = 0;
      total_words = 0;
    }
