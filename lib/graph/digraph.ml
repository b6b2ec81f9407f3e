(* An index bucket and its length, so degrees and per-label counts are
   O(1). *)
type bucket = { mutable es : Edge.t list; mutable n : int }

type t = {
  vertex_names : Interner.t;
  label_names : Interner.t;
  mutable edge_count : int;
  (* While the graph is live, every bucket and [insertion] hold edges in
     reverse insertion order (prepending is O(1)) and the accessors reverse
     them. [freeze] replaces each with its reversal, once, so a frozen
     graph's accessors return the stored list as is. *)
  out_adj : bucket Vertex.Tbl.t;
  in_adj : bucket Vertex.Tbl.t;
  by_label : bucket Label.Tbl.t;
  edge_set : unit Edge.Tbl.t;
  mutable insertion : Edge.t list;
  mutable added_observers : (Edge.t -> unit) list; (* registration order *)
  mutable removed_observers : (Edge.t -> unit) list;
  mutable frozen : bool;
      (* A frozen graph rejects every mutation, which is what makes sharing
         it across threads/domains sound: all remaining operations are pure
         reads of tables that no longer change. *)
}

let create ?(vertex_capacity = 64) () =
  {
    vertex_names = Interner.create ~capacity:vertex_capacity ();
    label_names = Interner.create ();
    edge_count = 0;
    out_adj = Vertex.Tbl.create vertex_capacity;
    in_adj = Vertex.Tbl.create vertex_capacity;
    by_label = Label.Tbl.create 8;
    edge_set = Edge.Tbl.create (4 * vertex_capacity);
    insertion = [];
    added_observers = [];
    removed_observers = [];
    frozen = false;
  }

let freeze g =
  if not g.frozen then begin
    let rev_bucket _ b = b.es <- List.rev b.es in
    Vertex.Tbl.iter rev_bucket g.out_adj;
    Vertex.Tbl.iter rev_bucket g.in_adj;
    Label.Tbl.iter rev_bucket g.by_label;
    g.insertion <- List.rev g.insertion;
    g.frozen <- true
  end

let is_frozen g = g.frozen

let check_mutable g what =
  if g.frozen then
    invalid_arg (Printf.sprintf "Digraph.%s: graph is frozen" what)

let vertex g name =
  match Interner.find g.vertex_names name with
  | Some i -> Vertex.of_int i
  | None ->
    check_mutable g "vertex";
    Vertex.of_int (Interner.intern g.vertex_names name)

let label g name =
  match Interner.find g.label_names name with
  | Some i -> Label.of_int i
  | None ->
    check_mutable g "label";
    Label.of_int (Interner.intern g.label_names name)

let find_vertex g name =
  Option.map Vertex.of_int (Interner.find g.vertex_names name)

let find_label g name = Option.map Label.of_int (Interner.find g.label_names name)

let vertex_name g v =
  match Interner.name_opt g.vertex_names (Vertex.to_int v) with
  | Some s -> s
  | None -> invalid_arg "Digraph.vertex_name: unknown vertex id"

let label_name g l =
  match Interner.name_opt g.label_names (Label.to_int l) with
  | Some s -> s
  | None -> invalid_arg "Digraph.label_name: unknown label id"

let known_vertex g v =
  Vertex.to_int v >= 0 && Vertex.to_int v < Interner.cardinal g.vertex_names

let known_label g l =
  Label.to_int l >= 0 && Label.to_int l < Interner.cardinal g.label_names

let push tbl_find tbl_add key e =
  match tbl_find key with
  | Some b ->
    b.es <- e :: b.es;
    b.n <- b.n + 1
  | None -> tbl_add key { es = [ e ]; n = 1 }

let add_edge g e =
  check_mutable g "add_edge";
  if not (known_vertex g (Edge.tail e)) then
    invalid_arg "Digraph.add_edge: unknown tail vertex";
  if not (known_vertex g (Edge.head e)) then
    invalid_arg "Digraph.add_edge: unknown head vertex";
  if not (known_label g (Edge.label e)) then
    invalid_arg "Digraph.add_edge: unknown label";
  if Edge.Tbl.mem g.edge_set e then false
  else begin
    Edge.Tbl.add g.edge_set e ();
    push (Vertex.Tbl.find_opt g.out_adj) (Vertex.Tbl.add g.out_adj)
      (Edge.tail e) e;
    push (Vertex.Tbl.find_opt g.in_adj) (Vertex.Tbl.add g.in_adj)
      (Edge.head e) e;
    push (Label.Tbl.find_opt g.by_label) (Label.Tbl.add g.by_label)
      (Edge.label e) e;
    g.insertion <- e :: g.insertion;
    g.edge_count <- g.edge_count + 1;
    List.iter (fun f -> f e) g.added_observers;
    true
  end

let add g tail_name label_name_ head_name =
  (* Intern left to right so naming order determines id order. *)
  let tail = vertex g tail_name in
  let lab = label g label_name_ in
  let head = vertex g head_name in
  let e = Edge.make ~tail ~label:lab ~head in
  let (_ : bool) = add_edge g e in
  e

let remove_from_bucket tbl_find key e =
  match tbl_find key with
  | None -> ()
  | Some b ->
    b.es <- List.filter (fun f -> not (Edge.equal e f)) b.es;
    b.n <- b.n - 1

let remove_edge g e =
  check_mutable g "remove_edge";
  if not (Edge.Tbl.mem g.edge_set e) then false
  else begin
    Edge.Tbl.remove g.edge_set e;
    remove_from_bucket (Vertex.Tbl.find_opt g.out_adj) (Edge.tail e) e;
    remove_from_bucket (Vertex.Tbl.find_opt g.in_adj) (Edge.head e) e;
    remove_from_bucket (Label.Tbl.find_opt g.by_label) (Edge.label e) e;
    g.insertion <- List.filter (fun f -> not (Edge.equal e f)) g.insertion;
    g.edge_count <- g.edge_count - 1;
    List.iter (fun f -> f e) g.removed_observers;
    true
  end

let n_vertices g = Interner.cardinal g.vertex_names
let n_edges g = g.edge_count
let n_labels g = Interner.cardinal g.label_names
let mem_edge g e = Edge.Tbl.mem g.edge_set e
let mem_vertex g v = known_vertex g v
let vertices g = List.init (n_vertices g) Vertex.of_int
let labels g = List.init (n_labels g) Label.of_int
let in_order g es = if g.frozen then es else List.rev es
let edges g = in_order g g.insertion
let iter_edges f g = List.iter f (edges g)
let fold_edges f g acc = List.fold_left (fun acc e -> f e acc) acc (edges g)

let bucket_list g tbl_find key =
  match tbl_find key with None -> [] | Some b -> in_order g b.es

let bucket_size tbl_find key =
  match tbl_find key with None -> 0 | Some b -> b.n

let out_edges g v = bucket_list g (Vertex.Tbl.find_opt g.out_adj) v
let in_edges g v = bucket_list g (Vertex.Tbl.find_opt g.in_adj) v
let edges_with_label g l = bucket_list g (Label.Tbl.find_opt g.by_label) l
let out_degree g v = bucket_size (Vertex.Tbl.find_opt g.out_adj) v
let in_degree g v = bucket_size (Vertex.Tbl.find_opt g.in_adj) v
let n_edges_with_label g l = bucket_size (Label.Tbl.find_opt g.by_label) l

let degree g v = out_degree g v + in_degree g v

let successors g ?label:lab v =
  let es = out_edges g v in
  let es =
    match lab with
    | None -> es
    | Some l -> List.filter (fun e -> Label.equal (Edge.label e) l) es
  in
  List.map Edge.head es

let predecessors g ?label:lab v =
  let es = in_edges g v in
  let es =
    match lab with
    | None -> es
    | Some l -> List.filter (fun e -> Label.equal (Edge.label e) l) es
  in
  List.map Edge.tail es

let on_edge_added g f =
  check_mutable g "on_edge_added";
  g.added_observers <- g.added_observers @ [ f ]

let on_edge_removed g f =
  check_mutable g "on_edge_removed";
  g.removed_observers <- g.removed_observers @ [ f ]

(* Deregistration is by physical equality: the caller detaches exactly the
   closure it registered. Detaching on a frozen graph is allowed — it only
   matters for graphs that can still fire, but refusing it would make
   teardown order-sensitive. *)
let off_edge_added g f =
  g.added_observers <- List.filter (fun o -> o != f) g.added_observers

let off_edge_removed g f =
  g.removed_observers <- List.filter (fun o -> o != f) g.removed_observers

let materialise_reverse g ?(suffix = "_rev") alpha =
  let rev = label g (label_name g alpha ^ suffix) in
  List.iter
    (fun e ->
      ignore
        (add_edge g
           (Edge.make ~tail:(Edge.head e) ~label:rev ~head:(Edge.tail e))))
    (edges_with_label g alpha);
  rev

(* One structural copy: fresh interners, edge set and bucket records (a
   bucket is mutable, so it is never shared) over the same immutable edge
   lists. A list is reversed once when the copy's order differs from the
   source's (live: newest first; frozen: insertion order) and shared as is
   otherwise. No edge is re-inserted and no name re-interned. *)
let copy_as ~frozen g =
  let order = if frozen = g.frozen then Fun.id else List.rev in
  let fresh _ b = Some { es = order b.es; n = b.n } in
  let vertex_index tbl =
    let t = Vertex.Tbl.copy tbl in
    Vertex.Tbl.filter_map_inplace fresh t;
    t
  in
  let by_label = Label.Tbl.copy g.by_label in
  Label.Tbl.filter_map_inplace fresh by_label;
  {
    vertex_names = Interner.copy g.vertex_names;
    label_names = Interner.copy g.label_names;
    edge_count = g.edge_count;
    out_adj = vertex_index g.out_adj;
    in_adj = vertex_index g.in_adj;
    by_label;
    edge_set = Edge.Tbl.copy g.edge_set;
    insertion = order g.insertion;
    added_observers = [];
    removed_observers = [];
    frozen;
  }

let copy = copy_as ~frozen:false
let frozen_copy = copy_as ~frozen:true

let edge_universe g = Edge.Set.of_list (edges g)

let pp_edge g fmt e =
  Edge.pp_named ~vertex_name:(vertex_name g) ~label_name:(label_name g) fmt e

let pp_path g fmt p =
  Path.pp_named ~vertex_name:(vertex_name g) ~label_name:(label_name g) fmt p

let pp_stats fmt g =
  Format.fprintf fmt "|V|=%d |E|=%d |Omega|=%d" (n_vertices g) (n_edges g)
    (n_labels g)
