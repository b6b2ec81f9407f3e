(* One workload, prepared from its seed: the graph files the fleet loads,
   the oracle's identical in-process graph, the request stream and, for
   write-mix, the journaled writer. *)

open Mrpa_graph

type t = {
  workload : Inputs.workload;
  graph_file : string;  (** the TSV (or journal) the fleet loads. *)
  start : unit -> Fleet.t;
  stream : unit -> unit -> Inputs.req;
      (** a fresh copy of the seeded request stream. *)
  prime : Inputs.req list;  (** sent once, untimed, before the loop. *)
  writes : Loadgen.writes option;
  oracle : Oracle.t;
  at_seq : int -> unit;  (** bring the oracle's graph to a journal sequence. *)
  appended : unit -> (int * Edge.t) list;
      (** write-mix: the appends so far, in the writer's graph, oldest first. *)
  writer_graph : Digraph.t option;
}

let save dir g =
  let path = Filename.concat dir "graph.tsv" in
  Io.save path g;
  path

(* The oracle loads the same file the server loads, so both intern
   vertices in the same order. *)
let standalone w ~dir ~seed =
  let graph_file = save dir (Inputs.social ~seed ~n_people:Inputs.serving_people) in
  let og = Io.load graph_file in
  let stream, prime =
    match w with
    | Inputs.Hot_eval ->
      let cat = Inputs.hot_catalogue og ~seed in
      ((fun () -> Inputs.from_catalogue ~seed cat), Array.to_list cat)
    | _ -> ((fun () -> Inputs.cold_stream ~seed), [])
  in
  {
    workload = w;
    graph_file;
    start = (fun () -> Fleet.standalone ~dir ~graph:graph_file);
    stream;
    prime;
    writes = None;
    oracle = Oracle.create og;
    at_seq = ignore;
    appended = (fun () -> []);
    writer_graph = None;
  }

let routed ~dir ~seed =
  let graph_file = save dir (Inputs.fig1 ()) in
  let og = Io.load graph_file in
  let cat = Inputs.routed_catalogue og ~seed in
  {
    workload = Inputs.Routed;
    graph_file;
    start = (fun () -> Fleet.routed ~dir ~graph:graph_file ~shards:(Proc.nproc ()));
    stream = (fun () -> Inputs.from_catalogue ~seed cat);
    prime = [];
    writes = None;
    oracle = Oracle.create og;
    at_seq = ignore;
    appended = (fun () -> []);
    writer_graph = None;
  }

(* The writer owns a live graph attached to a fresh v2 journal; the
   initial graph goes in as one record per edge, and every later append is
   one more record with the journal's default flush policy (one write per
   record, no sync). The primary tails that journal. *)
let write_mix ~dir ~seed =
  let g0 = Inputs.social ~seed ~n_people:Inputs.write_mix_people in
  let journal_file = Filename.concat dir "graph.journal" in
  let gw = Digraph.create () in
  let j = Journal.attach gw journal_file in
  Digraph.iter_edges
    (fun e ->
      ignore
        (Digraph.add gw
           (Digraph.vertex_name g0 (Edge.tail e))
           (Digraph.label_name g0 (Edge.label e))
           (Digraph.vertex_name g0 (Edge.head e))))
    g0;
  let base = Journal.entries_written j in
  let og = Journal.replay journal_file in
  (* the traced replay starts from the journal as the primary first loads it *)
  Io.save (journal_file ^ ".initial.tsv") og;
  let anchors =
    Inputs.people ~seed ~n_people:Inputs.write_mix_people ~count:Inputs.write_anchors
  in
  let cat = Inputs.catalogue anchors Inputs.write_templates in
  let next_edge = Inputs.write_stream gw ~seed anchors in
  let appended = ref [] in
  let append () =
    let e = next_edge () in
    ignore (Digraph.add_edge gw e);
    let seq = base + List.length !appended + 1 in
    appended := (seq, e) :: !appended;
    seq
  in
  let applied = ref base in
  let at_seq s =
    List.iter
      (fun (seq, e) ->
        if seq > !applied && seq <= s then begin
          ignore
            (Digraph.add og
               (Digraph.vertex_name gw (Edge.tail e))
               (Digraph.label_name gw (Edge.label e))
               (Digraph.vertex_name gw (Edge.head e)));
          applied := seq
        end)
      (List.rev !appended)
  in
  {
    workload = Inputs.Write_mix;
    graph_file = journal_file;
    start = (fun () -> Fleet.primary ~dir ~journal:journal_file);
    stream = (fun () -> Inputs.from_catalogue ~seed cat);
    prime = [];
    writes = Some { Loadgen.every = Inputs.write_every; append };
    oracle = Oracle.create og;
    at_seq;
    appended = (fun () -> List.rev !appended);
    writer_graph = Some gw;
  }

let prepare w ~dir ~seed =
  match w with
  | Inputs.Hot_eval | Inputs.Cold_plan -> standalone w ~dir ~seed
  | Inputs.Routed -> routed ~dir ~seed
  | Inputs.Write_mix -> write_mix ~dir ~seed
