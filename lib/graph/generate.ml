let add_numbered_vertices g n = List.init n (fun i -> Digraph.vertex g (Printf.sprintf "v%d" i))

let add_numbered_labels g k =
  List.init k (fun i -> Digraph.label g (Printf.sprintf "r%d" i))

let uniform ~rng ~n_vertices ~n_edges ~n_labels =
  if n_vertices <= 0 then invalid_arg "Generate.uniform: n_vertices <= 0";
  if n_labels <= 0 then invalid_arg "Generate.uniform: n_labels <= 0";
  let distinct = n_vertices * n_vertices * n_labels in
  if n_edges > distinct then
    invalid_arg "Generate.uniform: more edges than distinct triples";
  let g = Digraph.create ~vertex_capacity:n_vertices () in
  let vs = Array.of_list (add_numbered_vertices g n_vertices) in
  let ls = Array.of_list (add_numbered_labels g n_labels) in
  let added = ref 0 in
  while !added < n_edges do
    let e = Edge.v (Prng.pick rng vs) (Prng.pick rng ls) (Prng.pick rng vs) in
    if Digraph.add_edge g e then incr added
  done;
  g

let preferential ~rng ~n_vertices ~out_degree ~n_labels =
  if n_vertices <= 0 then invalid_arg "Generate.preferential: n_vertices <= 0";
  let g = Digraph.create ~vertex_capacity:n_vertices () in
  let vs = Array.of_list (add_numbered_vertices g n_vertices) in
  let ls = Array.of_list (add_numbered_labels g n_labels) in
  (* [targets] holds one entry per (1 + in-degree) unit of attachment mass. *)
  let targets = ref [ vs.(0) ] in
  for i = 1 to n_vertices - 1 do
    let src = vs.(i) in
    let pool = Array.of_list !targets in
    let emitted = min out_degree i in
    for _ = 1 to emitted do
      let dst = Prng.pick rng pool in
      let e = Edge.v src (Prng.pick rng ls) dst in
      if Digraph.add_edge g e then targets := dst :: !targets
    done;
    targets := src :: !targets
  done;
  g

let ring ~n ~n_labels =
  if n <= 0 then invalid_arg "Generate.ring: n <= 0";
  if n_labels <= 0 then invalid_arg "Generate.ring: n_labels <= 0";
  let g = Digraph.create ~vertex_capacity:n () in
  let vs = Array.of_list (add_numbered_vertices g n) in
  let ls = Array.of_list (add_numbered_labels g n_labels) in
  for i = 0 to n - 1 do
    let e = Edge.v vs.(i) ls.(i mod n_labels) vs.((i + 1) mod n) in
    ignore (Digraph.add_edge g e)
  done;
  g

let lattice ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Generate.lattice: empty grid";
  let g = Digraph.create ~vertex_capacity:(rows * cols) () in
  let v r c = Digraph.vertex g (Printf.sprintf "x%d_%d" r c) in
  let right = Digraph.label g "right" and down = Digraph.label g "down" in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then ignore (Digraph.add_edge g (Edge.v (v r c) right (v r (c + 1))));
      if r + 1 < rows then ignore (Digraph.add_edge g (Edge.v (v r c) down (v (r + 1) c)))
    done
  done;
  g

let star ~n_leaves =
  if n_leaves < 0 then invalid_arg "Generate.star: negative leaves";
  let g = Digraph.create ~vertex_capacity:(n_leaves + 1) () in
  let hub = Digraph.vertex g "hub" in
  let spoke = Digraph.label g "spoke" in
  for i = 0 to n_leaves - 1 do
    let leaf = Digraph.vertex g (Printf.sprintf "leaf%d" i) in
    ignore (Digraph.add_edge g (Edge.v hub spoke leaf))
  done;
  g

let complete ~n ~n_labels =
  if n <= 0 || n_labels <= 0 then invalid_arg "Generate.complete: empty";
  let g = Digraph.create ~vertex_capacity:n () in
  let vs = Array.of_list (add_numbered_vertices g n) in
  let ls = Array.of_list (add_numbered_labels g n_labels) in
  Array.iter
    (fun i ->
      Array.iter
        (fun j ->
          if not (Vertex.equal i j) then
            Array.iter (fun l -> ignore (Digraph.add_edge g (Edge.v i l j))) ls)
        vs)
    vs;
  g

let layered ~rng ~layers ~width ~fanout ~n_labels =
  if layers <= 0 || width <= 0 then invalid_arg "Generate.layered: empty";
  let g = Digraph.create ~vertex_capacity:(layers * width) () in
  let v l s = Digraph.vertex g (Printf.sprintf "l%d_%d" l s) in
  (* Intern in layer-major order first so ids are predictable. *)
  for l = 0 to layers - 1 do
    for s = 0 to width - 1 do
      ignore (v l s)
    done
  done;
  let ls = Array.of_list (add_numbered_labels g n_labels) in
  for l = 0 to layers - 2 do
    for s = 0 to width - 1 do
      for _ = 1 to fanout do
        let dst = v (l + 1) (Prng.int rng width) in
        ignore (Digraph.add_edge g (Edge.v (v l s) (Prng.pick rng ls) dst))
      done
    done
  done;
  g

let social ~rng ~n_people ~n_orgs ~n_projects =
  if n_people <= 0 then invalid_arg "Generate.social: no people";
  let g = Digraph.create ~vertex_capacity:(n_people + n_orgs + n_projects) () in
  let people = Array.init n_people (fun i -> Digraph.vertex g (Printf.sprintf "p%d" i)) in
  let orgs = Array.init n_orgs (fun i -> Digraph.vertex g (Printf.sprintf "org%d" i)) in
  let projects =
    Array.init n_projects (fun i -> Digraph.vertex g (Printf.sprintf "proj%d" i))
  in
  let knows = Digraph.label g "knows"
  and works_for = Digraph.label g "works_for"
  and member_of = Digraph.label g "member_of"
  and created = Digraph.label g "created"
  and likes = Digraph.label g "likes" in
  (* knows: preferential among people (about 2 edges per person). The
     pick pool is every person and every friend picked so far, in arrival
     order: at most three entries per person. A pick indexes it
     newest-first, the order the graphs of every seed were drawn in. *)
  let targets = Array.make (3 * n_people) people.(0) in
  let n_targets = ref 1 in
  let add_target v =
    targets.(!n_targets) <- v;
    incr n_targets
  in
  for i = 1 to n_people - 1 do
    let pool = !n_targets in
    for _ = 1 to min 2 i do
      let friend = targets.(pool - 1 - Prng.int rng pool) in
      if not (Vertex.equal friend people.(i)) then begin
        if Digraph.add_edge g (Edge.v people.(i) knows friend) then
          add_target friend;
        (* knows is frequently reciprocated *)
        if Prng.bernoulli rng 0.5 then
          ignore (Digraph.add_edge g (Edge.v friend knows people.(i)))
      end
    done;
    add_target people.(i)
  done;
  Array.iter
    (fun p ->
      if n_orgs > 0 then
        ignore (Digraph.add_edge g (Edge.v p works_for (Prng.pick rng orgs)));
      if n_projects > 0 && Prng.bernoulli rng 0.7 then
        ignore (Digraph.add_edge g (Edge.v p member_of (Prng.pick rng projects)));
      if n_projects > 0 && Prng.bernoulli rng 0.2 then
        ignore (Digraph.add_edge g (Edge.v p created (Prng.pick rng projects)));
      if n_projects > 0 && Prng.bernoulli rng 0.4 then
        ignore (Digraph.add_edge g (Edge.v p likes (Prng.pick rng projects))))
    people;
  g

let knowledge_base ~rng ~n_entities =
  if n_entities < 6 then invalid_arg "Generate.knowledge_base: need >= 6 entities";
  let g = Digraph.create ~vertex_capacity:n_entities () in
  let n_people = n_entities / 2 in
  let n_films = n_entities / 3 in
  let n_cities = n_entities - n_people - n_films in
  let people =
    Array.init n_people (fun i -> Digraph.vertex g (Printf.sprintf "person%d" i))
  in
  let films = Array.init n_films (fun i -> Digraph.vertex g (Printf.sprintf "film%d" i)) in
  let cities =
    Array.init n_cities (fun i -> Digraph.vertex g (Printf.sprintf "city%d" i))
  in
  let acted_in = Digraph.label g "acted_in"
  and directed = Digraph.label g "directed"
  and influenced = Digraph.label g "influenced"
  and married_to = Digraph.label g "married_to"
  and born_in = Digraph.label g "born_in"
  and set_in = Digraph.label g "set_in" in
  Array.iter
    (fun p ->
      let n_roles = 1 + Prng.geometric rng 0.5 in
      for _ = 1 to n_roles do
        ignore (Digraph.add_edge g (Edge.v p acted_in (Prng.pick rng films)))
      done;
      if Prng.bernoulli rng 0.25 then
        ignore (Digraph.add_edge g (Edge.v p directed (Prng.pick rng films)));
      if Prng.bernoulli rng 0.3 then begin
        let q = Prng.pick rng people in
        if not (Vertex.equal p q) then
          ignore (Digraph.add_edge g (Edge.v p influenced q))
      end;
      if Prng.bernoulli rng 0.15 then begin
        let q = Prng.pick rng people in
        if not (Vertex.equal p q) then begin
          ignore (Digraph.add_edge g (Edge.v p married_to q));
          ignore (Digraph.add_edge g (Edge.v q married_to p))
        end
      end;
      ignore (Digraph.add_edge g (Edge.v p born_in (Prng.pick rng cities))))
    people;
  Array.iter
    (fun f ->
      if Prng.bernoulli rng 0.6 then
        ignore (Digraph.add_edge g (Edge.v f set_in (Prng.pick rng cities))))
    films;
  g

let bipartite ~rng ~left ~right ~n_edges ~n_labels =
  if left <= 0 || right <= 0 || n_labels <= 0 then
    invalid_arg "Generate.bipartite: empty part";
  if n_edges > left * right * n_labels then
    invalid_arg "Generate.bipartite: more edges than distinct triples";
  let g = Digraph.create ~vertex_capacity:(left + right) () in
  let ls = Array.init left (fun i -> Digraph.vertex g (Printf.sprintf "l%d" i)) in
  let rs = Array.init right (fun i -> Digraph.vertex g (Printf.sprintf "r%d" i)) in
  let labels = Array.of_list (add_numbered_labels g n_labels) in
  let added = ref 0 in
  while !added < n_edges do
    let e = Edge.v (Prng.pick rng ls) (Prng.pick rng labels) (Prng.pick rng rs) in
    if Digraph.add_edge g e then incr added
  done;
  g

let tree ~branching ~depth =
  if branching <= 0 || depth < 0 then invalid_arg "Generate.tree: bad shape";
  let g = Digraph.create () in
  let child = Digraph.label g "child" in
  let v i = Digraph.vertex g (Printf.sprintf "n%d" i) in
  ignore (v 0);
  (* BFS numbering: vertex ids are allocated in breadth-first order *)
  let next = ref 1 in
  let queue = Queue.create () in
  Queue.add (0, 0) queue;
  while not (Queue.is_empty queue) do
    let i, level = Queue.pop queue in
    if level < depth then
      for _ = 1 to branching do
        let c = !next in
        incr next;
        ignore (Digraph.add_edge g (Edge.v (v i) child (v c)));
        Queue.add (c, level + 1) queue
      done
  done;
  g

let fig1 ~rng ~n_noise_vertices ~n_noise_edges =
  let g = Digraph.create () in
  let i = Digraph.vertex g "i"
  and j = Digraph.vertex g "j"
  and k = Digraph.vertex g "k" in
  let alpha = Digraph.label g "alpha" and beta = Digraph.label g "beta" in
  let noise =
    Array.init n_noise_vertices (fun n -> Digraph.vertex g (Printf.sprintf "n%d" n))
  in
  let core = [| i; j; k |] in
  let any () =
    if n_noise_vertices > 0 && Prng.bernoulli rng 0.7 then Prng.pick rng noise
    else Prng.pick rng core
  in
  (* Deterministic skeleton: every Figure 1 transition is realisable. *)
  let skeleton =
    [
      Edge.v i alpha j; (* [i,α,_] straight into the α-arrival at j *)
      Edge.v j alpha i; (* the explicit {(j,α,i)} back edge *)
      Edge.v i alpha k; (* direct [_,α,k] arrival *)
    ]
  in
  List.iter (fun e -> ignore (Digraph.add_edge g e)) skeleton;
  (* A β-chain reachable from i's α-edges and feeding the α-arrivals. *)
  if n_noise_vertices >= 2 then begin
    ignore (Digraph.add_edge g (Edge.v j beta noise.(0)));
    ignore (Digraph.add_edge g (Edge.v noise.(0) beta noise.(1)));
    ignore (Digraph.add_edge g (Edge.v noise.(1) alpha j));
    ignore (Digraph.add_edge g (Edge.v noise.(1) alpha k))
  end
  else begin
    ignore (Digraph.add_edge g (Edge.v j beta j));
    ignore (Digraph.add_edge g (Edge.v j alpha k))
  end;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < n_noise_edges && !attempts < 100 * (n_noise_edges + 1) do
    incr attempts;
    let lab = if Prng.bool rng then alpha else beta in
    if Digraph.add_edge g (Edge.v (any ()) lab (any ())) then incr added
  done;
  g
