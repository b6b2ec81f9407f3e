type degree_summary = {
  min_degree : int;
  max_degree : int;
  mean : float;
  median : float;
}

let summarise degrees =
  match degrees with
  | [] -> { min_degree = 0; max_degree = 0; mean = 0.0; median = 0.0 }
  | _ ->
    let sorted = List.sort Int.compare degrees in
    let n = List.length sorted in
    let arr = Array.of_list sorted in
    let total = Array.fold_left ( + ) 0 arr in
    let median =
      if n mod 2 = 1 then float_of_int arr.(n / 2)
      else float_of_int (arr.((n / 2) - 1) + arr.(n / 2)) /. 2.0
    in
    {
      min_degree = arr.(0);
      max_degree = arr.(n - 1);
      mean = float_of_int total /. float_of_int n;
      median;
    }

let out_degrees g =
  summarise (List.map (Digraph.out_degree g) (Digraph.vertices g))

let in_degrees g =
  summarise (List.map (Digraph.in_degree g) (Digraph.vertices g))

let out_degrees_of_label g alpha =
  let per_vertex = Vertex.Tbl.create 16 in
  List.iter
    (fun e ->
      let t = Edge.tail e in
      Vertex.Tbl.replace per_vertex t
        (1 + Option.value ~default:0 (Vertex.Tbl.find_opt per_vertex t)))
    (Digraph.edges_with_label g alpha);
  summarise
    (List.map
       (fun v -> Option.value ~default:0 (Vertex.Tbl.find_opt per_vertex v))
       (Digraph.vertices g))

let density g =
  let n = Digraph.n_vertices g and k = Digraph.n_labels g in
  if n = 0 || k = 0 then nan
  else float_of_int (Digraph.n_edges g) /. float_of_int (n * n * k)

let reciprocity g =
  let m = Digraph.n_edges g in
  if m = 0 then nan
  else begin
    let mirrored =
      Digraph.fold_edges
        (fun e acc ->
          if Digraph.mem_edge g (Edge.reverse e) then acc + 1 else acc)
        g 0
    in
    float_of_int mirrored /. float_of_int m
  end

let label_histogram g =
  List.map
    (fun l -> (l, Digraph.n_edges_with_label g l))
    (Digraph.labels g)
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

(* label sets per ordered vertex pair *)
let pair_labels g =
  let tbl : (int * int, Label.Set.t) Hashtbl.t = Hashtbl.create 64 in
  Digraph.iter_edges
    (fun e ->
      let key = (Vertex.to_int (Edge.tail e), Vertex.to_int (Edge.head e)) in
      let existing =
        match Hashtbl.find_opt tbl key with
        | Some s -> s
        | None -> Label.Set.empty
      in
      Hashtbl.replace tbl key (Label.Set.add (Edge.label e) existing))
    g;
  tbl

let parallel_pairs g =
  Hashtbl.fold
    (fun _ labels acc -> if Label.Set.cardinal labels > 1 then acc + 1 else acc)
    (pair_labels g) 0

let label_cooccurrence g =
  let counts : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ labels ->
      let ls = Label.Set.elements labels in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if Label.compare a b <= 0 then begin
                let key = (Label.to_int a, Label.to_int b) in
                Hashtbl.replace counts key
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
              end)
            ls)
        ls)
    (pair_labels g);
  Hashtbl.fold
    (fun (a, b) c acc -> (Label.of_int a, Label.of_int b, c) :: acc)
    counts []
  |> List.sort compare

(* --- Per-label degree/selectivity profile ------------------------------- *)

type label_profile = {
  label : Label.t;
  edges : int;
  distinct_tails : int;
  distinct_heads : int;
  max_out : int;
  max_in : int;
  out_histogram : (int * int) list;
  in_histogram : (int * int) list;
}

type profile = {
  vertices : int;
  edges : int;
  labels : int;
  max_out_degree : int;
  max_in_degree : int;
  per_label : label_profile array;
}

(* Table-driven, over native ints: each label's bucket is walked into one
   [deg] array indexed by vertex id, shared by every label and side, and
   only the entries a walk touched are read back and reset. [freq] counts
   the touched vertices per degree (a per-label degree is at most |V|), so
   the histogram is a scan down from the largest degree. *)
let profile g =
  let n = Digraph.n_vertices g and k = Digraph.n_labels g in
  let deg = Array.make n 0 and touched = Array.make n 0 in
  let freq = Array.make (n + 1) 0 in
  (* Distinct endpoints, the largest degree and the histogram of one side
     of one label. *)
  let side es endpoint =
    let m = ref 0 in
    List.iter
      (fun e ->
        let v = Vertex.to_int (endpoint e) in
        if deg.(v) = 0 then begin
          touched.(!m) <- v;
          incr m
        end;
        deg.(v) <- deg.(v) + 1)
      es;
    let top = ref 0 in
    for i = 0 to !m - 1 do
      let v = touched.(i) in
      let d = deg.(v) in
      deg.(v) <- 0;
      freq.(d) <- freq.(d) + 1;
      if d > !top then top := d
    done;
    let histogram = ref [] in
    for d = !top downto 1 do
      if freq.(d) > 0 then begin
        histogram := (d, freq.(d)) :: !histogram;
        freq.(d) <- 0
      end
    done;
    (!m, !top, !histogram)
  in
  let per_label =
    Array.init k (fun l ->
        let label = Label.of_int l in
        let es = Digraph.edges_with_label g label in
        let distinct_tails, max_out, out_histogram = side es Edge.tail in
        let distinct_heads, max_in, in_histogram = side es Edge.head in
        {
          label;
          edges = Digraph.n_edges_with_label g label;
          distinct_tails;
          distinct_heads;
          max_out;
          max_in;
          out_histogram;
          in_histogram;
        })
  in
  let max_out_degree = ref 0 and max_in_degree = ref 0 in
  for v = 0 to n - 1 do
    let v = Vertex.of_int v in
    max_out_degree := max !max_out_degree (Digraph.out_degree g v);
    max_in_degree := max !max_in_degree (Digraph.in_degree g v)
  done;
  {
    vertices = n;
    edges = Digraph.n_edges g;
    labels = k;
    max_out_degree = !max_out_degree;
    max_in_degree = !max_in_degree;
    per_label;
  }

let label_profile p l =
  let i = Label.to_int l in
  if i >= 0 && i < Array.length p.per_label then Some p.per_label.(i) else None

let degree_histogram g =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let d = Digraph.out_degree g v in
      Hashtbl.replace counts d
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts d)))
    (Digraph.vertices g);
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) counts [] |> List.sort compare

let pp_report fmt g =
  Format.fprintf fmt "@[<v>%a@," Digraph.pp_stats g;
  Format.fprintf fmt "density: %.6f  reciprocity: %.3f  parallel pairs: %d@,"
    (density g) (reciprocity g) (parallel_pairs g);
  let od = out_degrees g and id = in_degrees g in
  Format.fprintf fmt
    "out-degree: min %d max %d mean %.2f median %.1f@,in-degree:  min %d max %d mean %.2f median %.1f@,"
    od.min_degree od.max_degree od.mean od.median id.min_degree id.max_degree
    id.mean id.median;
  let prof = profile g in
  Format.fprintf fmt "labels:@,";
  List.iter
    (fun (l, c) ->
      match label_profile prof l with
      | Some lp ->
        Format.fprintf fmt
          "  %-20s %d edges (%d tails, %d heads, max out %d, max in %d)@,"
          (Digraph.label_name g l) c lp.distinct_tails lp.distinct_heads
          lp.max_out lp.max_in
      | None ->
        Format.fprintf fmt "  %-20s %d edges@," (Digraph.label_name g l) c)
    (label_histogram g);
  Format.fprintf fmt "@]"
