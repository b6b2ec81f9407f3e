open Mrpa_graph

type t = {
  glushkov : Glushkov.t;
  alpha : Edge_signature.t;
  pos_sig : int array;
  state_ids : (int list, int) Hashtbl.t;
  mutable members : int list array;
  mutable n_states : int;
  trans : (int * int * bool, int) Hashtbl.t;
  accept_cache : (int, bool) Hashtbl.t;
}

let make expr =
  let glushkov = Glushkov.build expr in
  let alpha = Edge_signature.of_expr expr in
  let pos_sig = Dfa.pos_signature_indices glushkov alpha in
  {
    glushkov;
    alpha;
    pos_sig;
    state_ids = Hashtbl.create 64;
    members = Array.make 8 [];
    n_states = 0;
    trans = Hashtbl.create 256;
    accept_cache = Hashtbl.create 64;
  }

let intern t config =
  match Hashtbl.find_opt t.state_ids config with
  | Some id -> id
  | None ->
    let id = t.n_states in
    if id >= Array.length t.members then begin
      let bigger = Array.make (2 * Array.length t.members) [] in
      Array.blit t.members 0 bigger 0 t.n_states;
      t.members <- bigger
    end;
    t.members.(id) <- config;
    t.n_states <- id + 1;
    Hashtbl.add t.state_ids config id;
    id

let initial t = intern t [ 0 ]

let step t id ~mask ~adj =
  match Hashtbl.find_opt t.trans (id, mask, adj) with
  | Some id' -> id'
  | None ->
    let config' = Dfa.step_mask t.glushkov t.pos_sig t.members.(id) mask adj in
    let id' = intern t config' in
    Hashtbl.add t.trans (id, mask, adj) id';
    id'

let accepting t id =
  match Hashtbl.find_opt t.accept_cache id with
  | Some b -> b
  | None ->
    let b = Glushkov.accepting t.glushkov t.members.(id) in
    Hashtbl.add t.accept_cache id b;
    b

let is_dead t id = t.members.(id) = []

let accepts t path =
  let edges = Path.to_array path in
  let rec run state prev i =
    if i >= Array.length edges then accepting t state
    else
      let e = edges.(i) in
      let adj = match prev with None -> true | Some pe -> Edge.adjacent pe e in
      let mask = Edge_signature.mask_of_edge t.alpha e in
      run (step t state ~mask ~adj) (Some e) (i + 1)
  in
  run (initial t) None 0

(* The edges a first step can consume; an edge that several first positions
   match is kept at the first of them only. *)
let first_edges t g =
  let sel q = t.glushkov.Glushkov.selector_of.(q) in
  let rec union earlier = function
    | [] -> []
    | q :: rest ->
      let fresh e =
        not (List.exists (fun p -> Mrpa_core.Selector.matches (sel p) e) earlier)
      in
      List.filter fresh (Mrpa_core.Selector.matching g (sel q))
      @ union (q :: earlier) rest
  in
  match t.glushkov.Glushkov.first with
  | [ q ] -> Mrpa_core.Selector.matching g (sel q)
  | first -> union [] first

type product = {
  machine : t;
  graph : Digraph.t;
  first : Edge.t list Lazy.t;
  (* Only when the expression has a Free follow pair (a ×∘), and built on
     first use: the graph's nonzero signatures and its edge list. *)
  free : (int list * Edge.t list) Lazy.t option;
}

let product t g =
  let has_free =
    Array.exists
      (List.exists (fun (_, kind) -> kind = Glushkov.Free))
      t.glushkov.Glushkov.follow
  in
  let scan () =
    ( List.filter
        (fun mask -> mask <> 0)
        (Edge_signature.masks_of_graph t.alpha g),
      Digraph.edges g )
  in
  {
    machine = t;
    graph = g;
    first = lazy (first_edges t g);
    free = (if has_free then Some (Lazy.from_fun scan) else None);
  }

let iter_next p state vertex f =
  let m = p.machine in
  let consume adj e =
    (* a zero mask matches no position: skip the transition lookup *)
    let mask = Edge_signature.mask_of_edge m.alpha e in
    if mask <> 0 then begin
      let state' = step m state ~mask ~adj in
      if not (is_dead m state') then f e state'
    end
  in
  if vertex < 0 then List.iter (consume true) (Lazy.force p.first)
  else begin
    let v = Vertex.of_int vertex in
    List.iter (consume true) (Digraph.out_edges p.graph v);
    match p.free with
    | None -> ()
    | Some scan ->
      (* A ×∘ step may take any edge not leaving [v]; the scan is skipped
         when no adjacency-free letter leads anywhere from [state]. *)
      let masks, edges = Lazy.force scan in
      if
        List.exists
          (fun mask -> not (is_dead m (step m state ~mask ~adj:false)))
          masks
      then
        List.iter
          (fun e -> if not (Vertex.equal (Edge.tail e) v) then consume false e)
          edges
  end

let n_cached_states t = t.n_states
let nullable t = t.glushkov.Glushkov.nullable
