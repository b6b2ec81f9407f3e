(* The system under test for each workload, started as child processes of
   the built [mrpa] binary. Set-up time runs from the first spawn to the
   first ok [ping] on every endpoint. *)

type t = {
  front : string;  (** the socket the generator drives. *)
  servers : Proc.child list;  (** every server process (router included). *)
  router : Proc.child option;
  shard_sockets : string list;
}

let remove path = try Sys.remove path with Sys_error _ -> ()

(* One worker per core, the pool's natural size for the machine, so a pool
   that runs its workers in parallel has the cores to show it. *)
let serve ~dir name args =
  let sock = Filename.concat dir (name ^ ".sock") in
  remove sock;
  let workers = string_of_int (Proc.nproc ()) in
  (Proc.spawn ~dir name ("serve" :: "--socket" :: sock :: "--workers" :: workers :: args), sock)

let standalone ~dir ~graph =
  let c, sock = serve ~dir "serve" [ "--graph"; graph ] in
  Proc.await_ping c sock;
  { front = sock; servers = [ c ]; router = None; shard_sockets = [] }

let primary ~dir ~journal =
  let c, sock = serve ~dir "primary" [ "--role"; "primary"; "--journal"; journal ] in
  Proc.await_ping c sock;
  { front = sock; servers = [ c ]; router = None; shard_sockets = [] }

let shard_names n = List.init n (Printf.sprintf "s%d")

(* A shard map naming [sockets] in order. *)
let write_map path sockets =
  let oc = open_out path in
  output_string oc "# mrpa.shardmap/1\n";
  List.iteri (fun i s -> Printf.fprintf oc "shard s%d unix:%s\n" i s) sockets;
  close_out oc

let route ~dir ~name ~map =
  let sock = Filename.concat dir (name ^ ".sock") in
  remove sock;
  (Proc.spawn ~dir name [ "route"; "--shard-map"; map; "--socket"; sock ], sock)

(* Partition the graph with [mrpa partition], start one [mrpa serve] per
   shard and an [mrpa route] in front of them. *)
let routed ~dir ~graph ~shards =
  let names = shard_names shards in
  let sockets = List.map (fun s -> Filename.concat dir (s ^ ".sock")) names in
  let map = Filename.concat dir "fleet.map" in
  write_map map sockets;
  let parts = Filename.concat dir "parts" in
  Proc.run ~dir "partition"
    [ "partition"; graph; "--shard-map"; map; "--out-dir"; parts ];
  let shard_procs =
    List.map
      (fun s -> serve ~dir s [ "--graph"; Filename.concat parts (s ^ ".tsv") ])
      names
  in
  let router, sock = route ~dir ~name:"router" ~map in
  List.iter (fun (c, s) -> Proc.await_ping c s) shard_procs;
  Proc.await_ping router sock;
  {
    front = sock;
    servers = router :: List.map fst shard_procs;
    router = Some router;
    shard_sockets = sockets;
  }

let stop t = List.iter Proc.stop t.servers

let pids t = List.map (fun c -> c.Proc.pid) t.servers

let peak_rss_mb t =
  List.fold_left (fun acc c -> acc +. Proc.peak_rss_mb c.Proc.pid) 0. t.servers
