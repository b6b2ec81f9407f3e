open Mrpa_graph
open Mrpa_core

type kind = Joint | Free

type t = {
  expr : Expr.t;
  n_positions : int;
  selector_of : Selector.t array;
  first : int list;
  follow : (int * kind) list array;
  last : bool array;
  nullable : bool;
}

(* Structural attributes of a subexpression during construction. *)
type attrs = { first_ : int list; last_ : int list; nullable_ : bool }

let build expr =
  let selectors = ref [] in
  let n = ref 0 in
  let follow_acc : (int, (int * kind) list ref) Hashtbl.t = Hashtbl.create 16 in
  let add_follow p q kind =
    let r =
      match Hashtbl.find_opt follow_acc p with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.add follow_acc p r;
        r
    in
    if not (List.exists (fun (q', k') -> q' = q && k' = kind) !r) then
      r := (q, kind) :: !r
  in
  let cross lasts firsts kind =
    List.iter (fun p -> List.iter (fun q -> add_follow p q kind) firsts) lasts
  in
  let rec go : Expr.t -> attrs = function
    | Empty -> { first_ = []; last_ = []; nullable_ = false }
    | Epsilon -> { first_ = []; last_ = []; nullable_ = true }
    | Sel s ->
      incr n;
      let p = !n in
      selectors := s :: !selectors;
      { first_ = [ p ]; last_ = [ p ]; nullable_ = false }
    | Union (a, b) ->
      let va = go a in
      let vb = go b in
      {
        first_ = va.first_ @ vb.first_;
        last_ = va.last_ @ vb.last_;
        nullable_ = va.nullable_ || vb.nullable_;
      }
    | Join (a, b) ->
      (* left first, so positions number left to right *)
      let va = go a in
      let vb = go b in
      concatenate va vb Joint
    | Product (a, b) ->
      let va = go a in
      let vb = go b in
      concatenate va vb Free
    | Star a ->
      let va = go a in
      cross va.last_ va.first_ Joint;
      { va with nullable_ = true }
  and concatenate va vb kind =
    cross va.last_ vb.first_ kind;
    {
      first_ = (if va.nullable_ then va.first_ @ vb.first_ else va.first_);
      last_ = (if vb.nullable_ then vb.last_ @ va.last_ else vb.last_);
      nullable_ = va.nullable_ && vb.nullable_;
    }
  in
  let attrs = go expr in
  let n_positions = !n in
  let selector_of = Array.make (n_positions + 1) Selector.universe in
  List.iteri
    (fun i s -> selector_of.(n_positions - i) <- s)
    !selectors;
  let follow = Array.make (n_positions + 1) [] in
  Hashtbl.iter (fun p r -> follow.(p) <- List.rev !r) follow_acc;
  let last = Array.make (n_positions + 1) false in
  List.iter (fun p -> last.(p) <- true) attrs.last_;
  {
    expr;
    n_positions;
    selector_of;
    first = List.sort_uniq Int.compare attrs.first_;
    follow;
    last;
    nullable = attrs.nullable_;
  }

let n_states a = a.n_positions + 1
let initial _ = [ 0 ]

let final a p = if p = 0 then a.nullable else a.last.(p)
let accepting a config = List.exists (final a) config

let successors a p =
  if p = 0 then List.map (fun q -> (q, Free)) a.first else a.follow.(p)

let step a ~current ~prev e =
  let adj =
    match prev with
    | None -> fun _ -> true
    | Some pe -> fun kind -> kind = Free || Edge.adjacent pe e
  in
  let next = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun (q, kind) ->
          if adj kind && Selector.matches a.selector_of.(q) e then
            if not (List.mem q !next) then next := q :: !next)
        (successors a p))
    current;
  List.sort Int.compare !next

let accepts a path =
  if Path.is_empty path then a.nullable
  else begin
    let edges = Path.to_array path in
    let n = Array.length edges in
    let rec run config prev i =
      if config = [] then false
      else if i >= n then accepting a config
      else
        let config' = step a ~current:config ~prev edges.(i) in
        run config' (Some edges.(i)) (i + 1)
    in
    run (initial a) None 0
  end

let pp fmt a =
  Format.fprintf fmt "@[<v>glushkov: %d positions, nullable=%b@," a.n_positions
    a.nullable;
  Format.fprintf fmt "first: %a@,"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
    a.first;
  for p = 1 to a.n_positions do
    Format.fprintf fmt "%d: sel=%a last=%b follow=[%a]@," p Selector.pp
      a.selector_of.(p) a.last.(p)
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
         (fun fmt (q, k) ->
           Format.fprintf fmt "%d%s" q (match k with Joint -> "j" | Free -> "f")))
      a.follow.(p)
  done;
  Format.fprintf fmt "@]"
