open Mrpa_graph

type shard = { name : string; endpoints : Wire.endpoint list }
type t = { shards : shard array }

let magic = "# mrpa.shardmap/1"

let is_space c = c = ' ' || c = '\t'

let split_words line =
  let n = String.length line in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_space line.[i] then go (i + 1) acc
    else begin
      let j = ref i in
      while !j < n && not (is_space line.[!j]) do incr j done;
      go !j (String.sub line i (!j - i) :: acc)
    end
  in
  go 0 []

let of_string text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | [] -> Error "empty shard map"
  | header :: rest ->
    if String.trim header <> magic then
      Error (Printf.sprintf "shard map must start with %S" magic)
    else begin
      let exception Bad of string in
      try
        let shards =
          List.concat
            (List.mapi
               (fun i line ->
                 let lineno = i + 2 in
                 let line = String.trim line in
                 if line = "" || line.[0] = '#' then []
                 else
                   match split_words line with
                   | "shard" :: name :: (_ :: _ as eps) ->
                     let endpoints =
                       List.map
                         (fun e ->
                           match Wire.endpoint_of_string e with
                           | Ok ep -> ep
                           | Error m ->
                             raise
                               (Bad
                                  (Printf.sprintf "line %d: %s" lineno m)))
                         eps
                     in
                     [ { name; endpoints } ]
                   | "shard" :: name :: [] ->
                     raise
                       (Bad
                          (Printf.sprintf "line %d: shard %S has no endpoints"
                             lineno name))
                   | _ ->
                     raise
                       (Bad
                          (Printf.sprintf
                             "line %d: expected 'shard NAME ENDPOINT...'"
                             lineno)))
               rest)
        in
        if shards = [] then Error "shard map declares no shards"
        else begin
          let seen = Hashtbl.create 8 in
          List.iter
            (fun s ->
              if Hashtbl.mem seen s.name then
                raise (Bad (Printf.sprintf "duplicate shard name %S" s.name));
              Hashtbl.add seen s.name ())
            shards;
          Ok { shards = Array.of_list shards }
        end
      with Bad m -> Error m
    end

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | text -> of_string text

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Array.iter
    (fun s ->
      Buffer.add_string buf "shard ";
      Buffer.add_string buf s.name;
      List.iter
        (fun e ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (Wire.endpoint_to_string e))
        s.endpoints;
      Buffer.add_char buf '\n')
    t.shards;
  Buffer.contents buf

let shards t = Array.to_list t.shards
let n_shards t = Array.length t.shards

let shard t i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "Shardmap.shard: index out of range";
  t.shards.(i)

let index_of t name =
  let n = Array.length t.shards in
  let rec go i =
    if i >= n then None
    else if t.shards.(i).name = name then Some i
    else go (i + 1)
  in
  go 0

let owner t name =
  (* Mask the sign bit so the modulus is non-negative on 32- and 64-bit. *)
  Int32.to_int (Crc32.string name) land 0x3FFFFFFF mod Array.length t.shards

let partition t g =
  let parts =
    Array.map (fun _ -> Digraph.create ()) t.shards
  in
  (* Replicate V and Ω everywhere first, in id order, so every shard
     resolves every vertex and label name (isolated, or edgeless, where it
     owns no edges). *)
  let replicate intern names =
    List.iter
      (fun name -> Array.iter (fun p -> ignore (intern p name)) parts)
      names
  in
  replicate Digraph.vertex
    (List.map (Digraph.vertex_name g) (Digraph.vertices g));
  replicate Digraph.label (List.map (Digraph.label_name g) (Digraph.labels g));
  Digraph.iter_edges
    (fun e ->
      let tail = Digraph.vertex_name g (Mrpa_graph.Edge.tail e) in
      let label = Digraph.label_name g (Mrpa_graph.Edge.label e) in
      let head = Digraph.vertex_name g (Mrpa_graph.Edge.head e) in
      ignore (Digraph.add parts.(owner t tail) tail label head))
    g;
  parts

let write_partition t g ~dir =
  let parts = partition t g in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Array.to_list
    (Array.mapi
       (fun i part ->
         let path = Filename.concat dir (t.shards.(i).name ^ ".tsv") in
         Io.save path part;
         (path, Digraph.n_edges part))
       parts)
