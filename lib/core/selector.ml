open Mrpa_graph

type t =
  | Pattern of {
      src : Vertex.Set.t option;
      lbl : Label.Set.t option;
      dst : Vertex.Set.t option;
    }
  | Explicit of Edge.Set.t
  | Union of t * t
  | Inter of t * t
  | Diff of t * t

let universe = Pattern { src = None; lbl = None; dst = None }
let pattern ?src ?lbl ?dst () = Pattern { src; lbl; dst }
let src_in vs = Pattern { src = Some vs; lbl = None; dst = None }
let dst_in vs = Pattern { src = None; lbl = None; dst = Some vs }
let label_in ls = Pattern { src = None; lbl = Some ls; dst = None }
let src1 v = src_in (Vertex.Set.singleton v)
let dst1 v = dst_in (Vertex.Set.singleton v)
let label1 l = label_in (Label.Set.singleton l)
let edge e = Explicit (Edge.Set.singleton e)
let edges es = Explicit es
let union a b = Union (a, b)
let inter a b = Inter (a, b)
let diff a b = Diff (a, b)
let complement s = Diff (universe, s)

let in_opt mem set_opt x =
  match set_opt with None -> true | Some s -> mem x s

let rec matches s e =
  match s with
  | Pattern { src; lbl; dst } ->
    in_opt Vertex.Set.mem src (Edge.tail e)
    && in_opt Label.Set.mem lbl (Edge.label e)
    && in_opt Vertex.Set.mem dst (Edge.head e)
  | Explicit es -> Edge.Set.mem e es
  | Union (a, b) -> matches a e || matches b e
  | Inter (a, b) -> matches a e && matches b e
  | Diff (a, b) -> matches a e && not (matches b e)

(* Enumeration picks the most selective available index for the outermost
   pattern, then filters with [matches] for the residual constraints. The
   buckets of distinct vertices or labels are disjoint, so the candidates
   hold each edge at most once. The first nonempty bucket is used as it
   is (on a frozen graph, without a copy); later ones are prepended. *)
let pattern_candidates g src lbl dst =
  let gather fold bucket set =
    fold
      (fun x acc ->
        match acc with [] -> bucket x | _ -> List.rev_append (bucket x) acc)
      set []
  in
  match (src, lbl, dst) with
  | Some vs, _, _ -> gather Vertex.Set.fold (Digraph.out_edges g) vs
  | None, _, Some vs -> gather Vertex.Set.fold (Digraph.in_edges g) vs
  | None, Some ls, None -> gather Label.Set.fold (Digraph.edges_with_label g) ls
  | None, None, None -> Digraph.edges g

let rec enumerate_set g s =
  match s with
  | Explicit es -> Edge.Set.filter (Digraph.mem_edge g) es
  | Pattern { src; lbl; dst } ->
    List.fold_left
      (fun acc e -> if matches s e then Edge.Set.add e acc else acc)
      Edge.Set.empty (pattern_candidates g src lbl dst)
  | Union (a, b) -> Edge.Set.union (enumerate_set g a) (enumerate_set g b)
  | Inter (a, b) -> Edge.Set.filter (matches b) (enumerate_set g a)
  | Diff (a, b) ->
    Edge.Set.filter (fun e -> not (matches b e)) (enumerate_set g a)

let enumerate g s = Edge.Set.elements (enumerate_set g s)

let matching g s =
  match s with
  | Pattern { src; lbl; dst } ->
    List.filter (matches s) (pattern_candidates g src lbl dst)
  | Explicit _ | Union _ | Inter _ | Diff _ -> enumerate g s

let select_out g s v = List.filter (matches s) (Digraph.out_edges g v)
let select_in g s v = List.filter (matches s) (Digraph.in_edges g v)

let rec size_hint g s =
  match s with
  | Explicit es -> Edge.Set.cardinal es
  | Pattern { src; lbl; dst } ->
    let bounds = ref [ Digraph.n_edges g ] in
    (match src with
    | Some vs ->
      bounds :=
        Vertex.Set.fold (fun v acc -> acc + Digraph.out_degree g v) vs 0
        :: !bounds
    | None -> ());
    (match dst with
    | Some vs ->
      bounds :=
        Vertex.Set.fold (fun v acc -> acc + Digraph.in_degree g v) vs 0
        :: !bounds
    | None -> ());
    (match lbl with
    | Some ls ->
      bounds :=
        Label.Set.fold
          (fun l acc -> acc + Digraph.n_edges_with_label g l)
          ls 0
        :: !bounds
    | None -> ());
    List.fold_left min max_int !bounds
  | Union (a, b) -> size_hint g a + size_hint g b
  | Inter (a, b) -> min (size_hint g a) (size_hint g b)
  | Diff (a, _) -> size_hint g a

let compare_opt cmp a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> cmp x y

let rec compare s1 s2 =
  match (s1, s2) with
  | Pattern p1, Pattern p2 ->
    let c = compare_opt Vertex.Set.compare p1.src p2.src in
    if c <> 0 then c
    else
      let c = compare_opt Label.Set.compare p1.lbl p2.lbl in
      if c <> 0 then c else compare_opt Vertex.Set.compare p1.dst p2.dst
  | Pattern _, (Explicit _ | Union _ | Inter _ | Diff _) -> -1
  | Explicit _, Pattern _ -> 1
  | Explicit e1, Explicit e2 -> Edge.Set.compare e1 e2
  | Explicit _, (Union _ | Inter _ | Diff _) -> -1
  | Union _, (Pattern _ | Explicit _) -> 1
  | Union (a1, b1), Union (a2, b2) -> compare_pair (a1, b1) (a2, b2)
  | Union _, (Inter _ | Diff _) -> -1
  | Inter _, (Pattern _ | Explicit _ | Union _) -> 1
  | Inter (a1, b1), Inter (a2, b2) -> compare_pair (a1, b1) (a2, b2)
  | Inter _, Diff _ -> -1
  | Diff _, (Pattern _ | Explicit _ | Union _ | Inter _) -> 1
  | Diff (a1, b1), Diff (a2, b2) -> compare_pair (a1, b1) (a2, b2)

and compare_pair (a1, b1) (a2, b2) =
  let c = compare a1 a2 in
  if c <> 0 then c else compare b1 b2

let equal a b = compare a b = 0

let pp_set fmt pp_elt elts =
  match elts with
  | [ x ] -> pp_elt fmt x
  | _ ->
    Format.pp_print_char fmt '{';
    List.iteri
      (fun i x ->
        if i > 0 then Format.pp_print_char fmt ',';
        pp_elt fmt x)
      elts;
    Format.pp_print_char fmt '}'

let pp_position fmt pp_elt = function
  | None -> Format.pp_print_char fmt '_'
  | Some elts -> pp_set fmt pp_elt elts

let pp_with pr_v pr_l fmt s =
  let pp_v fmt v = Format.pp_print_string fmt (pr_v v) in
  let pp_l fmt l = Format.pp_print_string fmt (pr_l l) in
  let rec go fmt = function
    | Pattern { src; lbl; dst } ->
      Format.pp_print_char fmt '[';
      pp_position fmt pp_v (Option.map Vertex.Set.elements src);
      Format.pp_print_char fmt ',';
      pp_position fmt pp_l (Option.map Label.Set.elements lbl);
      Format.pp_print_char fmt ',';
      pp_position fmt pp_v (Option.map Vertex.Set.elements dst);
      Format.pp_print_char fmt ']'
    | Explicit es ->
      Format.pp_print_char fmt '{';
      List.iteri
        (fun i e ->
          if i > 0 then Format.pp_print_char fmt ',';
          Format.fprintf fmt "(%s,%s,%s)" (pr_v (Edge.tail e))
            (pr_l (Edge.label e)) (pr_v (Edge.head e)))
        (Edge.Set.elements es);
      Format.pp_print_char fmt '}'
    | Union (a, b) -> Format.fprintf fmt "(%a | %a)" go a go b
    | Inter (a, b) -> Format.fprintf fmt "(%a & %a)" go a go b
    | Diff (a, b) -> Format.fprintf fmt "(%a \\ %a)" go a go b
  in
  go fmt s

let pp fmt s = pp_with string_of_int string_of_int fmt s

let pp_named g fmt s =
  pp_with (Digraph.vertex_name g) (Digraph.label_name g) fmt s
