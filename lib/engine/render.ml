open Mrpa_graph
open Mrpa_core

let escape_string = Metrics.escape_string

let array items = "[" ^ String.concat "," items ^ "]"

(* The envelope is sized first, then written into one string. *)
let obj fields =
  let escaped_length k =
    String.fold_left
      (fun n c ->
        n
        + match Metrics.escape_char c with None -> 1 | Some e -> String.length e)
      2 k
  in
  (* '{', then per field: key, ':', value, and a ',' or the closing '}' *)
  let size =
    List.fold_left
      (fun n (k, v) -> n + escaped_length k + 1 + String.length v + 1)
      1 fields
  in
  let b = Bytes.create (max 2 size) in
  let pos = ref 0 in
  let put_char c =
    Bytes.set b !pos c;
    incr pos
  in
  let put s =
    Bytes.blit_string s 0 b !pos (String.length s);
    pos := !pos + String.length s
  in
  put_char '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then put_char ',';
      put_char '"';
      String.iter
        (fun c ->
          match Metrics.escape_char c with None -> put_char c | Some e -> put e)
        k;
      put_char '"';
      put_char ':';
      put v)
    fields;
  put_char '}';
  Bytes.unsafe_to_string b

(* A result is written into one buffer, not built from nested strings. *)
let add_items buf iter add xs =
  Buffer.add_char buf '[';
  let first = ref true in
  iter
    (fun x ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      add x)
    xs;
  Buffer.add_char buf ']'

let add_path g buf p =
  let add_vertex v = Metrics.add_escaped buf (Digraph.vertex_name g v) in
  let add_label l = Metrics.add_escaped buf (Digraph.label_name g l) in
  Buffer.add_string buf {|{"edges":|};
  add_items buf Path.iter
    (fun e ->
      Buffer.add_string buf {|{"tail":|};
      add_vertex (Edge.tail e);
      Buffer.add_string buf {|,"label":|};
      add_label (Edge.label e);
      Buffer.add_string buf {|,"head":|};
      add_vertex (Edge.head e);
      Buffer.add_char buf '}')
    p;
  Buffer.add_string buf {|,"label_word":|};
  add_items buf Path.iter (fun e -> add_label (Edge.label e)) p;
  Buffer.add_string buf {|,"length":|};
  Buffer.add_string buf (string_of_int (Path.length p));
  Buffer.add_string buf {|,"joint":|};
  Buffer.add_string buf (string_of_bool (Path.is_joint p));
  Buffer.add_char buf '}'

let add_paths g buf s = add_items buf Path_set.iter (add_path g buf) s

let to_string add =
  let buf = Buffer.create 1024 in
  add buf;
  Buffer.contents buf

let path_json g p = to_string (fun buf -> add_path g buf p)
let paths_json g s = to_string (fun buf -> add_paths g buf s)

let result_json g (r : Engine.result) =
  to_string (fun buf ->
      Buffer.add_string buf {|{"paths":|};
      add_paths g buf r.Engine.paths;
      Buffer.add_string buf {|,"count":|};
      Buffer.add_string buf (string_of_int (Path_set.cardinal r.Engine.paths));
      Buffer.add_string buf {|,"elapsed_ms":|};
      Buffer.add_string buf
        (Printf.sprintf "%.3f" (1000.0 *. r.Engine.stats.Eval.elapsed_s));
      Buffer.add_string buf {|,"strategy":|};
      Metrics.add_escaped buf (Plan.strategy_name r.Engine.plan.Plan.strategy);
      Buffer.add_string buf {|,"verdict":|};
      Metrics.add_escaped buf (Err.verdict_name r.Engine.verdict);
      Buffer.add_string buf {|,"rewrites":|};
      add_items buf List.iter (Metrics.add_escaped buf)
        r.Engine.plan.Plan.rewrites;
      Buffer.add_char buf '}')

let tuples_json g ~head tuples =
  array
    (List.map
       (fun tuple ->
         obj
           (List.map2
              (fun var v -> (var, escape_string (Digraph.vertex_name g v)))
              head tuple))
       tuples)
