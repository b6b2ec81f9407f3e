open Mrpa_graph
open Mrpa_core

let escape_string = Metrics.escape_string

let array items = "[" ^ String.concat "," items ^ "]"

let add_fields b fields =
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Outbuf.add_char b ',';
      Outbuf.add_json_string b k;
      Outbuf.add_char b ':';
      Outbuf.add_string b v)
    fields

(* Sized for the fields, so the object is written without growing. *)
let obj fields =
  let size =
    List.fold_left
      (fun n (k, v) -> n + String.length k + String.length v + 4)
      2 fields
  in
  Outbuf.to_string ~size (fun b ->
      Outbuf.add_char b '{';
      add_fields b fields;
      Outbuf.add_char b '}')

(* A result is written into one buffer, not built from nested strings. *)
let add_items buf iter add xs =
  Outbuf.add_char buf '[';
  let first = ref true in
  iter
    (fun x ->
      if not !first then Outbuf.add_char buf ',';
      first := false;
      add x)
    xs;
  Outbuf.add_char buf ']'

let add_path g buf p =
  let name s = Outbuf.add_json_string buf s in
  let n = Path.length p in
  Outbuf.add_string buf {|{"edges":[|};
  for i = 1 to n do
    let e = Path.nth p i in
    if i > 1 then Outbuf.add_char buf ',';
    Outbuf.add_string buf {|{"tail":|};
    name (Digraph.vertex_name g (Edge.tail e));
    Outbuf.add_string buf {|,"label":|};
    name (Digraph.label_name g (Edge.label e));
    Outbuf.add_string buf {|,"head":|};
    name (Digraph.vertex_name g (Edge.head e));
    Outbuf.add_char buf '}'
  done;
  Outbuf.add_string buf {|],"label_word":[|};
  for i = 1 to n do
    if i > 1 then Outbuf.add_char buf ',';
    name (Digraph.label_name g (Edge.label (Path.nth p i)))
  done;
  Outbuf.add_string buf {|],"length":|};
  Outbuf.add_int buf n;
  Outbuf.add_string buf {|,"joint":|};
  Outbuf.add_string buf (string_of_bool (Path.is_joint p));
  Outbuf.add_char buf '}'

let add_paths g buf s = add_items buf Path_set.iter (add_path g buf) s

(* A string result is sized for its paths up front (about 64 bytes per
   path and per edge), so it is not copied again each time the buffer
   doubles. A served response reuses its writer's buffer instead. *)
let to_string ?(paths = Path_set.empty) add =
  Outbuf.to_string
    ~size:(Path_set.fold (fun p n -> n + 64 + (64 * Path.length p)) paths 1024)
    add

let path_json g p = to_string (fun buf -> add_path g buf p)

let add_result buf g (r : Engine.result) =
  Outbuf.add_string buf {|{"paths":|};
  add_paths g buf r.Engine.paths;
  Outbuf.add_string buf {|,"count":|};
  Outbuf.add_int buf (Path_set.cardinal r.Engine.paths);
  Outbuf.add_string buf {|,"elapsed_ms":|};
  Outbuf.add_string buf
    (Printf.sprintf "%.3f" (1000.0 *. r.Engine.stats.Eval.elapsed_s));
  Outbuf.add_string buf {|,"strategy":|};
  Outbuf.add_json_string buf (Plan.strategy_name r.Engine.plan.Plan.strategy);
  Outbuf.add_string buf {|,"verdict":|};
  Outbuf.add_json_string buf (Err.verdict_name r.Engine.verdict);
  Outbuf.add_string buf {|,"rewrites":|};
  add_items buf List.iter (Outbuf.add_json_string buf)
    r.Engine.plan.Plan.rewrites;
  Outbuf.add_char buf '}'

let result_json g (r : Engine.result) =
  to_string ~paths:r.Engine.paths (fun buf -> add_result buf g r)

let tuples_json g ~head tuples =
  array
    (List.map
       (fun tuple ->
         obj
           (List.map2
              (fun var v -> (var, escape_string (Digraph.vertex_name g v)))
              head tuple))
       tuples)
