open Mrpa_core

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char buf '\\';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let selector_text ?graph s =
  match graph with
  | Some g -> Format.asprintf "%a" (Selector.pp_named g) s
  | None -> Format.asprintf "%a" Selector.pp s

let to_dot ?(name = "automaton") ?graph (a : Glushkov.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" (escape name));
  Buffer.add_string buf "  rankdir=LR;\n";
  Buffer.add_string buf "  start [shape=point, label=\"\"];\n";
  (* the start state is state 0; it is drawn as the entry arrow's target *)
  Buffer.add_string buf
    (Printf.sprintf "  q0 [shape=%s, label=\"q0\"];\n"
       (if Glushkov.final a 0 then "doublecircle" else "circle"));
  Buffer.add_string buf "  start -> q0;\n";
  for p = 1 to a.Glushkov.n_positions do
    Buffer.add_string buf
      (Printf.sprintf "  q%d [shape=%s, label=\"q%d\"];\n" p
         (if Glushkov.final a p then "doublecircle" else "circle")
         p)
  done;
  for p = 0 to a.Glushkov.n_positions do
    List.iter
      (fun (q, kind) ->
        let label = selector_text ?graph a.Glushkov.selector_of.(q) in
        let style =
          (* a free boundary after a consumed edge allows a disjoint hop *)
          if p > 0 && kind = Glushkov.Free then ", style=dashed" else ""
        in
        Buffer.add_string buf
          (Printf.sprintf "  q%d -> q%d [label=\"%s\"%s];\n" p q (escape label)
             style))
      (Glushkov.successors a p)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let expr_to_dot ?name ?graph expr = to_dot ?name ?graph (Glushkov.build expr)

let save ?name ?graph path a =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_dot ?name ?graph a))
