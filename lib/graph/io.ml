exception Malformed of int * string

(* Every vertex goes out as a directive, so isolated vertices survive a
   round-trip, and so does every label that carries no edge. *)
let write_lines emit g =
  emit "# mrpa multi-relational graph\n";
  List.iter
    (fun v -> emit (Printf.sprintf "vertex\t%s\n" (Digraph.vertex_name g v)))
    (Digraph.vertices g);
  Digraph.iter_edges
    (fun e ->
      emit
        (Printf.sprintf "%s\t%s\t%s\n"
           (Digraph.vertex_name g (Edge.tail e))
           (Digraph.label_name g (Edge.label e))
           (Digraph.vertex_name g (Edge.head e))))
    g;
  List.iter
    (fun l ->
      if Digraph.n_edges_with_label g l = 0 then
        emit (Printf.sprintf "label\t%s\n" (Digraph.label_name g l)))
    (Digraph.labels g)

let write_channel oc g = write_lines (output_string oc) g

let parse_line g lineno line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then ()
  else
    match String.split_on_char '\t' line with
    | [ "vertex"; name ] -> ignore (Digraph.vertex g name)
    | [ "label"; name ] -> ignore (Digraph.label g name)
    | [ tail; label; head ] -> ignore (Digraph.add g tail label head)
    | _ -> raise (Malformed (lineno, line))

let read_into g ic =
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       parse_line g !lineno line
     done
   with End_of_file -> ());
  g

let read_channel ic = read_into (Digraph.create ()) ic

let save path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel oc g)

let load path =
  let ic = open_in path in
  (* Size the tables from the file, at about 80 bytes per vertex (a saved
     graph has a few ~20-byte edge lines per vertex), so loading does not
     rehash them over and over. A pipe has no length. *)
  let bytes = try in_channel_length ic with Sys_error _ -> 0 in
  let g = Digraph.create ~vertex_capacity:(max 64 (bytes / 80)) () in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_into g ic)

let of_string s =
  let g = Digraph.create () in
  let lines = String.split_on_char '\n' s in
  List.iteri (fun i line -> parse_line g (i + 1) line) lines;
  g

let to_string g =
  let buf = Buffer.create 1024 in
  write_lines (Buffer.add_string buf) g;
  Buffer.contents buf
