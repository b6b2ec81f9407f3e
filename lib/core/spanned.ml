type 'a tree = { node : 'a node; span : Span.t }

and 'a node =
  | Empty
  | Epsilon
  | Sel of 'a
  | Union of 'a tree * 'a tree
  | Join of 'a tree * 'a tree
  | Product of 'a tree * 'a tree
  | Star of 'a tree

type t = Selector.t tree

let mk span node = { node; span }
let with_span span e = { e with span }

(* Leaves are visited left to right (the [let]s fix the order), so a
   failing [f] stops at the first leaf in source order. *)
let rec map_sel f e =
  let node =
    match e.node with
    | Empty -> Empty
    | Epsilon -> Epsilon
    | Sel s -> Sel (f s)
    | Union (a, b) ->
      let a = map_sel f a in
      Union (a, map_sel f b)
    | Join (a, b) ->
      let a = map_sel f a in
      Join (a, map_sel f b)
    | Product (a, b) ->
      let a = map_sel f a in
      Product (a, map_sel f b)
    | Star a -> Star (map_sel f a)
  in
  mk e.span node

let rec strip e =
  match e.node with
  | Empty -> Expr.Empty
  | Epsilon -> Expr.Epsilon
  | Sel s -> Expr.Sel s
  | Union (a, b) -> Expr.Union (strip a, strip b)
  | Join (a, b) -> Expr.Join (strip a, strip b)
  | Product (a, b) -> Expr.Product (strip a, strip b)
  | Star a -> Expr.Star (strip a)

let rec of_expr ?(span = Span.dummy) (e : Expr.t) =
  let sub x = of_expr ~span x in
  match e with
  | Expr.Empty -> mk span Empty
  | Expr.Epsilon -> mk span Epsilon
  | Expr.Sel s -> mk span (Sel s)
  | Expr.Union (a, b) -> mk span (Union (sub a, sub b))
  | Expr.Join (a, b) -> mk span (Join (sub a, sub b))
  | Expr.Product (a, b) -> mk span (Product (sub a, sub b))
  | Expr.Star a -> mk span (Star (sub a))

(* Derived forms mirror the [Expr] combinators node for node, so that
   [strip] of a parsed spanned tree is structurally identical to what the
   span-less parser used to build. *)

let plus ~span r = mk span (Join (r, mk span (Star r)))
let opt ~span r = mk span (Union (r, mk span Epsilon))

let repeat ~span r n =
  if n < 0 then invalid_arg "Spanned.repeat: negative count";
  let rec go acc k = if k = 0 then acc else go (mk span (Join (acc, r))) (k - 1) in
  if n = 0 then mk span Epsilon else go r (n - 1)

let repeat_range ~span r ~min ~max =
  if min < 0 || max < min then invalid_arg "Spanned.repeat_range: bad bounds";
  let tail = List.init (max - min) (fun _ -> opt ~span r) in
  List.fold_left (fun acc o -> mk span (Join (acc, o))) (repeat ~span r min) tail

let subterms e =
  let acc = ref [] in
  let rec go e =
    acc := e :: !acc;
    match e.node with
    | Empty | Epsilon | Sel _ -> ()
    | Union (a, b) | Join (a, b) | Product (a, b) ->
      go a;
      go b
    | Star a -> go a
  in
  go e;
  List.rev !acc

(* Left-to-right [Sel] occurrences — the same order in which
   [Mrpa_automata.Glushkov.build] numbers positions, so index [i] here is
   position [i + 1] there. *)
let sel_occurrences e =
  let acc = ref [] in
  let rec go e =
    match e.node with
    | Empty | Epsilon -> ()
    | Sel s -> acc := (e.span, s) :: !acc
    | Union (a, b) | Join (a, b) | Product (a, b) ->
      go a;
      go b
    | Star a -> go a
  in
  go e;
  List.rev !acc

let pp fmt e = Expr.pp fmt (strip e)
let pp_named g fmt e = Expr.pp_named g fmt (strip e)
