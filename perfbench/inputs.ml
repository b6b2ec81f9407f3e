(* Seeded inputs: the graph each workload serves and the request stream
   the generator sends. Everything here is a pure function of the seed, so
   the traced run can replay exactly the stream the timed run sent. *)

open Mrpa_graph
module Wire = Mrpa_server.Wire
module Json = Mrpa_server.Json

type workload = Hot_eval | Cold_plan | Routed | Write_mix

let workloads =
  [
    ("hot-eval", Hot_eval);
    ("cold-plan", Cold_plan);
    ("routed", Routed);
    ("write-mix", Write_mix);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type req = {
  verb : Wire.verb;  (** [Query] or [Count]. *)
  query : string;
  max_length : int;
  limit : int option;
}

(* The answer to a request depends on its text, options and (for
   write-mix) the journal sequence it must reflect; identical keys must
   get identical answers. *)
let key ?min_seq r =
  Printf.sprintf "%s|%d|%s|%s|%s" (Wire.verb_name r.verb) r.max_length
    (match r.limit with Some l -> string_of_int l | None -> "-")
    (match min_seq with Some s -> string_of_int s | None -> "-")
    r.query

let request ~id ?min_seq r =
  {
    Wire.id = Json.Number (float_of_int id);
    verb = r.verb;
    query = Some r.query;
    options =
      {
        Wire.default_options with
        max_length = Some r.max_length;
        limit = r.limit;
        min_seq;
      };
  }

let line ~id ?min_seq r = Wire.encode_request (request ~id ?min_seq r) ^ "\n"

(* --- Graphs ------------------------------------------------------------- *)

(* The [social] schema of {!Generate.social} (people, organisations and
   projects; preferential-attachment [knows], uniform affiliations), drawn
   from a growable target array so a 100k-edge graph takes well under a
   second instead of re-copying the target list for every person. *)
let social ~seed ~n_people =
  let rng = Prng.create seed in
  let n_orgs = max 2 (n_people / 20) and n_projects = max 3 (n_people / 10) in
  let g =
    Digraph.create ~vertex_capacity:(n_people + n_orgs + n_projects) ()
  in
  let people =
    Array.init n_people (fun i -> Digraph.vertex g (Printf.sprintf "p%d" i))
  in
  let orgs =
    Array.init n_orgs (fun i -> Digraph.vertex g (Printf.sprintf "org%d" i))
  in
  let projects =
    Array.init n_projects (fun i ->
        Digraph.vertex g (Printf.sprintf "proj%d" i))
  in
  let knows = Digraph.label g "knows"
  and works_for = Digraph.label g "works_for"
  and member_of = Digraph.label g "member_of"
  and created = Digraph.label g "created"
  and likes = Digraph.label g "likes" in
  let targets = Array.make ((3 * n_people) + 1) people.(0) in
  let n_targets = ref 1 in
  let push v =
    targets.(!n_targets) <- v;
    incr n_targets
  in
  for i = 1 to n_people - 1 do
    for _ = 1 to min 2 i do
      let friend = targets.(Prng.int rng !n_targets) in
      if not (Vertex.equal friend people.(i)) then begin
        if Digraph.add_edge g (Edge.v people.(i) knows friend) then push friend;
        if Prng.bernoulli rng 0.5 then
          ignore (Digraph.add_edge g (Edge.v friend knows people.(i)))
      end
    done;
    push people.(i)
  done;
  Array.iter
    (fun p ->
      ignore (Digraph.add_edge g (Edge.v p works_for (Prng.pick rng orgs)));
      if Prng.bernoulli rng 0.7 then
        ignore (Digraph.add_edge g (Edge.v p member_of (Prng.pick rng projects)));
      if Prng.bernoulli rng 0.2 then
        ignore (Digraph.add_edge g (Edge.v p created (Prng.pick rng projects)));
      if Prng.bernoulli rng 0.4 then
        ignore (Digraph.add_edge g (Edge.v p likes (Prng.pick rng projects))))
    people;
  g

(* About 105k edges: large enough that setup, cost analysis and planning
   are steady, as measured before this benchmark was written. *)
let serving_people = 20_000

(* About 26k edges: one snapshot refresh stays well above the primary's
   20 ms poll interval and well below the server's 500 ms stale wait. *)
let write_mix_people = 5_000

(* EXP-T19's fig1+noise graph, fixed: the router's star evaluation gathers
   every edge of the starred label, so its cost follows the graph's hubs
   rather than the anchors, and a graph drawn per seed would move routed
   figures by more than any layer change. The seed picks the anchors and
   their order. *)
let fig1 () =
  Generate.fig1 ~rng:(Prng.create 7) ~n_noise_vertices:200 ~n_noise_edges:600

(* Anchors come from the later half of the people: their out-degree is the
   schema's typical two or three, while the early hubs collect thousands
   of reciprocated [knows] edges and would make a few requests dwarf the
   rest. *)
let person rng ~n_people =
  Printf.sprintf "p%d" ((n_people / 2) + Prng.int rng (n_people - (n_people / 2)))

let parse g text =
  match Mrpa_engine.Parser.parse g text with
  | Ok e -> e
  | Error e -> failwith (Mrpa_engine.Parser.render_error ~source:text e)

(* --- Request streams ---------------------------------------------------- *)

let hot_limit = 100

(* A request template: verb, query text around an anchor vertex, length
   bound. *)
type template = Wire.verb * (string -> string) * int

(* Both templates spell paths of exactly four edges, so every answer is
   100 paths of the same shape and requests cost the same to evaluate and
   render whichever anchors a seed draws. *)
let hot_templates : template list =
  [
    (Wire.Query, Printf.sprintf "[%s,knows,_] . [_,knows,_] . [_,knows,_] . [_,knows,_]", 4);
    (Wire.Query, Printf.sprintf "[%s,knows,_] . [_,knows,_] . [_,knows,_] . [_,member_of,_]", 4);
  ]

let cold_limit = 100

(* Query and count verbs alternate. Every count pays one scan of all edges
   in Counting, so count templates get fewer unanchored selectors (each
   costs the analyser and the planner a pass over the label's statistics)
   and both verbs cost about the same to serve. *)
let cold_templates : template list =
  [
    ( Wire.Query,
      Printf.sprintf "[%s,knows,_] . [_,knows,_] . [_,knows,_] . [_,knows,_] . [_,works_for,_]",
      5 );
    (Wire.Count, Printf.sprintf "[%s,knows,_] . [_,works_for,_]", 2);
    ( Wire.Query,
      (fun p -> Printf.sprintf "[%s,knows,_] . [_,knows,_] . [_,knows,_] . [_,member_of,_] | [%s,likes,_]" p p),
      4 );
    (Wire.Count, Printf.sprintf "[%s,knows,_] . [_,member_of,_]", 2);
  ]

(* Joins whose right operands the router narrows by the left frontier,
   and one star, which the router evaluates by gathering every edge of the
   starred label (see NOTES.md). *)
let routed_templates : template list =
  [
    (Wire.Query, Printf.sprintf "[%s,alpha,_] . [_,beta,_]", 3);
    (Wire.Count, Printf.sprintf "[%s,beta,_] . [_,alpha,_] . [_,beta,_]", 3);
    (Wire.Query, Printf.sprintf "[%s,alpha,_] . [_,beta,_] . [_,alpha,_]", 3);
    (Wire.Query, Printf.sprintf "[%s,alpha,_] . [_,beta,_]*", 3);
  ]

let write_templates : template list =
  [
    (Wire.Query, Printf.sprintf "[%s,knows,_] . [_,works_for,_]", 2);
    (Wire.Count, Printf.sprintf "[%s,knows,_] . [_,knows,_]", 2);
  ]

let requests ?limit (templates : template list) anchor =
  List.map
    (fun (verb, text, max_length) -> { verb; query = text anchor; max_length; limit })
    templates

let catalogue anchors templates =
  Array.of_list (List.concat_map (requests templates) anchors)

let hot_anchors = 16
let routed_anchors = 16

(* Hot catalogue: anchors whose every template denotes more than
   [hot_limit] paths, so each answer is cut to [partial:limit] and never
   enters the result cache. *)
let hot_catalogue g ~seed =
  let rng = Prng.create (seed + 1) in
  let cut_short r =
    Mrpa_automata.Generator.generate ~max_paths:(hot_limit + 1) g (parse g r.query)
      ~max_length:r.max_length
    |> Mrpa_core.Path_set.cardinal > hot_limit
  in
  let rec pick acc n =
    if n = 0 then Array.of_list (List.rev acc)
    else
      let reqs =
        requests ~limit:hot_limit hot_templates (person rng ~n_people:serving_people)
      in
      if List.for_all cut_short reqs && not (List.exists (fun r -> List.mem r acc) reqs)
      then pick (List.rev_append reqs acc) (n - 1)
      else pick acc n
  in
  pick [] hot_anchors

let people ~seed ~n_people ~count =
  let rng = Prng.create (seed + 1) in
  List.init count (fun _ -> person rng ~n_people)

(* Anchors are noise vertices with both an [alpha] and a [beta] out-edge,
   so no request short-circuits on an empty left operand. *)
let routed_catalogue g ~seed =
  let rng = Prng.create (seed + 1) in
  let has v name =
    match Digraph.find_label g name with
    | Some l -> Digraph.successors g ~label:l v <> []
    | None -> false
  in
  let noise =
    List.filter
      (fun v ->
        (Digraph.vertex_name g v).[0] = 'n' && has v "alpha" && has v "beta")
      (Digraph.vertices g)
    |> Array.of_list
  in
  Prng.shuffle rng noise;
  let anchors = Array.sub noise 0 (min routed_anchors (Array.length noise)) in
  catalogue (List.map (Digraph.vertex_name g) (Array.to_list anchors)) routed_templates

(* Cycles through the catalogue, each cycle in a fresh seeded order: every
   entry keeps the same share of any window longer than a cycle, so the
   mix of cheap and costly entries does not drift from run to run. *)
let from_catalogue ~seed cat =
  let rng = Prng.create (seed + 2) in
  let order = Array.copy cat and i = ref 0 in
  fun () ->
    if !i mod Array.length order = 0 then Prng.shuffle rng order;
    let r = order.(!i mod Array.length order) in
    incr i;
    r

(* Every request a distinct text: anchors are a seeded permutation of the
   later half of the people, templates rotate underneath them. *)
let cold_stream ~seed =
  let rng = Prng.create (seed + 2) in
  let half = serving_people / 2 in
  let anchors = Array.init (serving_people - half) (fun i -> half + i) in
  Prng.shuffle rng anchors;
  let templates = Array.of_list cold_templates in
  let k = Array.length templates in
  let i = ref 0 in
  fun () ->
    let n = !i in
    incr i;
    let verb, text, max_length = templates.(n mod k) in
    let p = Printf.sprintf "p%d" anchors.(n / k mod Array.length anchors) in
    {
      verb;
      query = text p;
      max_length;
      limit = (if verb = Wire.Query then Some cold_limit else None);
    }

(* Write-mix: one journaled append per [write_every] operations; the new
   edge leaves one of the catalogue's anchors, so reads see the writes.
   Eight cacheable reads against 31 reads per append: most reads after a
   refresh hit the result cache, the first of each misses. *)
let write_every = 32
let write_anchors = 4

let write_stream g ~seed anchors =
  let rng = Prng.create (seed + 3) in
  let knows = Digraph.label g "knows" in
  let people = Array.of_list anchors |> Array.map (Digraph.vertex g) in
  fun () ->
    let rec go () =
      let a = Prng.pick rng people in
      let b =
        Digraph.vertex g (Printf.sprintf "p%d" (Prng.int rng write_mix_people))
      in
      let e = Edge.v a knows b in
      if Vertex.equal a b || Digraph.mem_edge g e then go () else e
    in
    go ()
