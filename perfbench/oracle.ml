(* The answer oracle: every distinct response is compared with the
   in-process engine on a graph identical to the one the fleet serves.

   Complete answers must equal the engine's product-BFS answer as a path
   set (so the router's own interning order does not matter), counts must
   equal the size of that answer, and a [partial:limit] answer must be a sound
   subset of the right size: exactly [limit] distinct paths, each an
   existing edge sequence within the length bound that the query's
   automaton accepts. (A query denoting exactly [limit] paths may still
   report the limit: the engine stops at the limit without looking
   further.)
   The oracle parses and evaluates without the cost-based planner, so a
   cold request costs it a fraction of what it costs the server. *)

open Mrpa_graph
open Mrpa_core
module Json = Mrpa_server.Json

type t = {
  g : Digraph.t;
  exprs : (string, Expr.t * (Path.t -> bool)) Hashtbl.t;
}

let create g = { g; exprs = Hashtbl.create 64 }

let compiled t text =
  match Hashtbl.find_opt t.exprs text with
  | Some c -> c
  | None ->
    let e = Inputs.parse t.g text in
    let c = (e, Mrpa_automata.Recognizer.make_nfa e) in
    Hashtbl.replace t.exprs text c;
    c

let edge_string g e =
  String.concat "\t"
    [
      Digraph.vertex_name g (Edge.tail e);
      Digraph.label_name g (Edge.label e);
      Digraph.vertex_name g (Edge.head e);
    ]

let path_string g p = String.concat "\n" (List.map (edge_string g) (Path.edges p))

let member k j = Option.value ~default:Json.Null (Json.member k j)

let json_edges p =
  match member "edges" p with
  | Json.List es ->
    List.map
      (fun e ->
        match (member "tail" e, member "label" e, member "head" e) with
        | Json.String t, Json.String l, Json.String h -> (t, l, h)
        | _ -> failwith "malformed edge")
      es
  | _ -> failwith "malformed path"

let json_path_string p =
  String.concat "\n" (List.map (fun (t, l, h) -> String.concat "\t" [ t; l; h ]) (json_edges p))

(* An answer path is sound when its edges exist, it fits the bound and the
   query's automaton accepts it. *)
let sound t ~max_length accepts p =
  let edge (tn, ln, hn) =
    match (Digraph.find_vertex t.g tn, Digraph.find_label t.g ln, Digraph.find_vertex t.g hn) with
    | Some a, Some l, Some b ->
      let e = Edge.v a l b in
      if Digraph.mem_edge t.g e then Some e else None
    | _ -> None
  in
  let edges = List.map edge (json_edges p) in
  List.for_all Option.is_some edges
  &&
  let path = Path.of_edges (List.map Option.get edges) in
  Path.length path <= max_length && accepts path

let int_member k j =
  match member k j with
  | Json.Number f -> int_of_float f
  | _ -> failwith ("missing " ^ k)

let string_member k j =
  match member k j with Json.String s -> s | _ -> failwith ("missing " ^ k)

let check_query t (r : Inputs.req) result =
  let expr, accepts = compiled t r.Inputs.query in
  let max_length = r.Inputs.max_length in
  let paths = match member "paths" result with Json.List ps -> ps | _ -> [] in
  let got = List.sort compare (List.map json_path_string paths) in
  let n = List.length got in
  if int_member "count" result <> n then Error "count disagrees with paths"
  else
    match (string_member "verdict" result, r.Inputs.limit) with
    | "complete", limit ->
      let want =
        Mrpa_automata.Generator.generate
          ?max_paths:(Option.map succ limit)
          t.g expr ~max_length
        |> Path_set.elements
        |> List.map (path_string t.g)
        |> List.sort compare
      in
      if got = want then Ok ()
      else
        Error
          (Printf.sprintf "path set differs: %d paths, engine has %d" n
             (List.length want))
    | "partial:limit", Some limit ->
      if n <> limit then Error (Printf.sprintf "%d paths under limit %d" n limit)
      else if List.length (List.sort_uniq compare got) <> n then
        Error "duplicate paths"
      else if not (List.for_all (sound t ~max_length accepts) paths) then
        Error "unsound path"
      else Ok ()
    | v, _ -> Error ("unexpected verdict " ^ v)

(* The server counts with the automaton DP of [Counting]; the oracle
   enumerates with product-BFS, cheap on these anchored queries. *)
let check_count t (r : Inputs.req) j =
  let expr, _ = compiled t r.Inputs.query in
  let want =
    Path_set.cardinal
      (Mrpa_automata.Generator.generate t.g expr ~max_length:r.Inputs.max_length)
  in
  match (int_member "count" j, string_member "verdict" j) with
  | n, "complete" when n = want -> Ok ()
  | n, v -> Error (Printf.sprintf "count %d (%s), engine has %d" n v want)

let check t (a : Loadgen.answer) =
  match Json.parse a.Loadgen.body with
  | Error e -> Error ("unparseable response: " ^ e)
  | Ok j -> (
    try
      match a.Loadgen.req.Inputs.verb with
      | Mrpa_server.Wire.Count -> check_count t a.Loadgen.req j
      | _ -> check_query t a.Loadgen.req (member "result" j)
    with Failure m -> Error m)

(* Check every distinct answer; the number of responses that carried a
   wrong one. [at_seq] brings the oracle's graph to an answer's journal
   sequence first (write-mix); answers are checked in sequence order. *)
let mismatches ?(at_seq = fun (_ : int) -> ()) t (answers : Loadgen.answers) =
  let all = Hashtbl.fold (fun _ l acc -> List.rev_append l acc) answers [] in
  let seq a = Option.value ~default:0 a.Loadgen.min_seq in
  List.stable_sort (fun a b -> compare (seq a) (seq b)) all
  |> List.fold_left
       (fun bad a ->
         at_seq (seq a);
         match check t a with
         | Ok () -> bad
         | Error m ->
           if bad = 0 then
             Printf.eprintf "perfbench: wrong answer to %s: %s\n%!"
               a.Loadgen.req.Inputs.query m;
           bad + a.Loadgen.seen)
       0
