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

let mask_of_edge t e = Edge_signature.mask_of_edge t.alpha e

let step_edge t id ~prev e =
  let adj = match prev with None -> true | Some pe -> Edge.adjacent pe e in
  step t id ~mask:(mask_of_edge t e) ~adj

let accepting t id =
  match Hashtbl.find_opt t.accept_cache id with
  | Some b -> b
  | None ->
    let b = Dfa.accepting_config t.glushkov t.members.(id) in
    Hashtbl.add t.accept_cache id b;
    b

let is_dead t id = t.members.(id) = []

let first_edges t g =
  let sel q = t.glushkov.Glushkov.selector_of.(q) in
  (* An edge that several first positions match is kept at the first of
     them only. *)
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

let free_steps t g =
  let has_free =
    Array.exists
      (List.exists (fun (_, kind) -> kind = Glushkov.Free))
      t.glushkov.Glushkov.follow
  in
  if not has_free then fun _ _ -> []
  else begin
    (* Built on the first call that needs them: the graph's nonzero
       signatures and its edge list. *)
    let scan =
      lazy
        ( List.filter (fun mask -> mask <> 0)
            (Edge_signature.masks_of_graph t.alpha g),
          Digraph.edges g )
    in
    fun id v ->
      let masks, edges = Lazy.force scan in
      if
        List.exists
          (fun mask -> not (is_dead t (step t id ~mask ~adj:false)))
          masks
      then List.filter (fun e -> not (Vertex.equal (Edge.tail e) v)) edges
      else []
  end

let n_cached_states t = t.n_states
let nullable t = t.glushkov.Glushkov.nullable
