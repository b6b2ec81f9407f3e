(** Shard maps: the static partitioning contract of the sharded serving
    tier ({!Router}).

    A shard map names the N shards of a deployment and, for each, the
    ordered endpoint list of its PR 8 replication group (primary first,
    replicas after — the same list a failover client would pass to
    [--endpoints]). Placement is by hash of the {e tail} vertex: the edge
    [(i, α, j)] lives on shard [owner map i], so the selector dispatch of
    the router can target exactly the shards that may own matching edges,
    and the algebra's [./∘] adjacency condition becomes the shard-boundary
    handoff (ROADMAP, scale-out item).

    The on-disk form is line-oriented, versioned like the journal:

    {v
    # mrpa.shardmap/1
    shard s0 unix:/var/run/mrpa/s0.sock
    shard s1 tcp:10.0.0.2:7440 tcp:10.0.0.3:7440
    v}

    ['#'] comments and blank lines are ignored after the header. The hash
    is CRC-32 ({!Mrpa_graph.Crc32}) over the vertex name, reduced modulo
    the shard count — deterministic across processes and restarts, which
    is what makes the map a {e contract}: the partitioner
    ([mrpa partition]) and the router agree on placement by construction,
    with no coordination at runtime. *)

type shard = {
  name : string;  (** unique within the map; travels in error responses. *)
  endpoints : Wire.endpoint list;
      (** failover order: primary first, then replicas. Never empty. *)
}

type t

val magic : string
(** The required first line, ["# mrpa.shardmap/1"]. *)

val of_string : string -> (t, string) result
(** Parse a map; errors name the offending line. A valid map has the
    version header, at least one shard, unique shard names, and at least
    one endpoint per shard. *)

val load : string -> (t, string) result
(** [of_string] over a file's contents; [Error] also covers I/O failure. *)

val to_string : t -> string
(** Canonical rendering (header + one [shard] line per shard, in index
    order); [of_string (to_string m)] re-reads the same map. *)

val shards : t -> shard list
(** In index order. *)

val n_shards : t -> int

val shard : t -> int -> shard
(** By index; raises [Invalid_argument] out of range. *)

val index_of : t -> string -> int option
(** Shard index by name. *)

val owner : t -> string -> int
(** [owner m vertex_name] is the index of the shard that owns every edge
    whose tail is that vertex: [crc32 name mod n_shards]. Total — unknown
    vertices hash like any other string. *)

(** {1 Partitioning}

    The write-side half of the contract: split a whole graph into the
    per-shard graphs the map describes. Every shard receives the {e full
    vertex and label universes} (as isolated-vertex and edgeless-label
    directives where it owns no edges) so every name resolves on every
    shard — the router relies on this to distinguish "no matching edges
    here" from "unknown name everywhere" (see DESIGN §11). *)

val partition : t -> Mrpa_graph.Digraph.t -> Mrpa_graph.Digraph.t array
(** [partition m g] is one graph per shard, index-aligned with the map:
    all of [V] and [Ω], plus the edges whose tail it owns. The union of the
    parts is exactly [g]; the parts' edge sets are disjoint. *)

val write_partition :
  t -> Mrpa_graph.Digraph.t -> dir:string -> (string * int) list
(** Partition and save each part as [dir/<shard-name>.tsv] (creating
    [dir] if missing); returns [(path, n_edges)] per shard, in index
    order. *)
