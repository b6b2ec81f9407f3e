open Mrpa_graph
open Mrpa_core

(* --- Cubic matcher -------------------------------------------------- *)

(* Flatten the expression into an int-indexed node table so segment results
   can be memoised on (node, start, stop). *)
type node =
  | NEmpty
  | NEps
  | NSel of Selector.t
  | NUnion of int * int
  | NJoin of int * int
  | NProd of int * int
  | NStar of int

let index_expr r =
  let nodes = ref [] in
  let count = ref 0 in
  let push n =
    nodes := n :: !nodes;
    let id = !count in
    incr count;
    id
  in
  let rec go : Expr.t -> int = function
    | Empty -> push NEmpty
    | Epsilon -> push NEps
    | Sel s -> push (NSel s)
    | Union (a, b) ->
      let ia = go a in
      let ib = go b in
      push (NUnion (ia, ib))
    | Join (a, b) ->
      let ia = go a in
      let ib = go b in
      push (NJoin (ia, ib))
    | Product (a, b) ->
      let ia = go a in
      let ib = go b in
      push (NProd (ia, ib))
    | Star a ->
      let ia = go a in
      push (NStar ia)
  in
  let root = go r in
  (Array.of_list (List.rev !nodes), root)

let cubic_staged r =
  let nodes, root = index_expr r in
  fun path ->
    let edges = Path.to_array path in
    let n = Array.length edges in
    let memo : (int * int * int, bool) Hashtbl.t = Hashtbl.create 64 in
    (* Is concatenating segment [i,k) before segment [k,j) legal under the
       join side condition? Vacuous when either side is empty. *)
    let joint_boundary i k j =
      k = i || k = j || Edge.adjacent edges.(k - 1) edges.(k)
    in
    let rec matches id i j =
      match Hashtbl.find_opt memo (id, i, j) with
      | Some b -> b
      | None ->
        let b = compute id i j in
        Hashtbl.add memo (id, i, j) b;
        b
    and compute id i j =
      match nodes.(id) with
      | NEmpty -> false
      | NEps -> i = j
      | NSel s -> j = i + 1 && Selector.matches s edges.(i)
      | NUnion (a, b) -> matches a i j || matches b i j
      | NJoin (a, b) ->
        let rec try_split k =
          k <= j
          && ((joint_boundary i k j && matches a i k && matches b k j)
             || try_split (k + 1))
        in
        try_split i
      | NProd (a, b) ->
        let rec try_split k =
          k <= j && ((matches a i k && matches b k j) || try_split (k + 1))
        in
        try_split i
      | NStar a ->
        i = j
        ||
        (* peel one non-empty iteration off the front; the boundary to the
           remaining iterations is a join boundary. *)
        let rec try_split k =
          k <= j
          && ((joint_boundary i k j && matches a i k && matches id k j)
             || try_split (k + 1))
        in
        try_split (i + 1)
    in
    matches root 0 n

let cubic r path = cubic_staged r path

(* --- NFA ------------------------------------------------------------ *)

let make_nfa r =
  let a = Glushkov.build r in
  fun path -> Glushkov.accepts a path

let nfa r path = make_nfa r path

(* --- Dispatch ------------------------------------------------------- *)

type strategy = Cubic | Nfa | Lazy_dfa | Eager_dfa | Min_dfa

let make ?(strategy = Nfa) ?graph r =
  match strategy with
  | Cubic -> cubic_staged r
  | Nfa -> make_nfa r
  | Lazy_dfa ->
    let d = Subset.make r in
    fun path -> Subset.accepts d path
  | Eager_dfa -> (
    match graph with
    | None -> invalid_arg "Recognizer.make: Eager_dfa needs ~graph"
    | Some g ->
      let d = Dfa.create g r in
      fun path -> Dfa.accepts d path)
  | Min_dfa -> (
    match graph with
    | None -> invalid_arg "Recognizer.make: Min_dfa needs ~graph"
    | Some g ->
      let d = Dfa.minimize (Dfa.create g r) in
      fun path -> Dfa.accepts d path)

let strategies =
  [
    ("cubic", Cubic);
    ("nfa", Nfa);
    ("lazy-dfa", Lazy_dfa);
    ("eager-dfa", Eager_dfa);
    ("min-dfa", Min_dfa);
  ]
