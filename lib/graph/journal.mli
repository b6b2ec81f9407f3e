(** Durable graphs: an append-only, checksummed change journal.

    A production traversal engine must survive restarts {e and} crashes.
    The journal subscribes to a graph's change notifications and appends
    one record per mutation to a log file. Two on-disk formats exist:

    {v
v1 (legacy, read-only):   add<TAB>tail<TAB>label<TAB>head
v2 (written by default):  #mrpa.journal/2          (header line)
                          SEQ<TAB>CRC<TAB>add<TAB>tail<TAB>label<TAB>head
    v}

    v2 frames every record with a 1-based sequence number and the CRC-32
    ({!Crc32}) of ["SEQ\tPAYLOAD"], so torn writes, bit rot and lost
    records are {e detected} at replay instead of silently corrupting the
    rebuilt graph. Payload kinds are [add]/[del]/[vertex]/[label] in both
    formats ([label NAME] registers a relation type that may carry no
    edge); blank lines and lines starting with ['#'] are comments in both
    formats.

    {2 Durability contract}

    - {!attach} to a new (or empty) file creates a v2 journal; attaching
      to an existing v1 log keeps appending v1 (read compatibility), and
      {!compact} — which always writes v2 — is the upgrade path.
    - Writes go straight to the file descriptor, one record per
      {!Io_fault.write} (crash durability up to the OS page cache; call
      {!sync} for fsync semantics).
    - A crash can cost {e at most the final record}: {!replay_into} and
      {!attach} tolerate a torn trailing record (warn, drop, and — on
      attach — physically truncate it), while any {e mid-file} corruption
      is a hard [Failure] in replay. {!recover} is the salvage mode: it
      skips-and-reports corrupt records and {!repair} rewrites the file
      (always as v2) from what survived; [mrpa fsck] is its CLI.
    - Every file-system side effect is routed through {!Io_fault}, so
      tests can prove the above by injecting a failure at each crash
      point.

    The journal records mutations made {e through the graph} after
    attachment — mutations before attachment are only captured by the
    initial replay or by {!compact}. *)

type t

type version = V1 | V2

val attach :
  ?replay_existing:bool -> ?on_warning:(string -> unit) -> Digraph.t -> string -> t
(** [attach g path] opens (creating if needed) the journal at [path] and
    subscribes to [g]. With [~replay_existing:true] (default), entries
    already in the log are applied to [g] first — the common
    open-the-database pattern. A torn trailing record is reported through
    [on_warning] (default: stderr), dropped, and truncated from the file;
    mid-file corruption raises [Failure] — run {!recover} / [mrpa fsck]
    instead of guessing. New or empty files become v2; existing files keep
    their format for subsequent appends. *)

val replay : string -> Digraph.t
(** Rebuild a fresh graph from a log without attaching. *)

val replay_into : ?on_warning:(string -> unit) -> Digraph.t -> string -> unit
(** Apply an existing log to [g]. Tolerates a torn final record (reported
    via [on_warning], default stderr); raises [Failure] on mid-file
    corruption or an unsupported format header. Missing files are treated
    as empty. *)

val record_vertex : t -> Digraph.t -> string -> unit
(** [record_vertex j g name] interns [name] in [g] (isolated if new) and
    appends a [vertex] record. Needed explicitly because interning — unlike
    edge insertion/removal — fires no change observer for the journal to
    record. *)

val log_path : t -> string

val entries_written : t -> int
(** Mutations appended through this handle (diagnostic). *)

val format_version : t -> version
(** The format this handle is appending in. *)

val sync : t -> unit
(** Flush and [fsync] the log file. An [fsync] {e error} is swallowed but
    never silent: it increments {!fsync_errors} and the first occurrence
    is reported through the journal's [on_warning] sink, because a failed
    fsync is exactly the moment durability was lost. *)

val fsync_errors : t -> int
(** Number of fsync failures swallowed by {!sync} so far. *)

val compact : t -> unit
(** Atomically replace the log with a v2 snapshot of the graph's current
    state (vertex records, add records, then a label record for each label
    that carries no edge, resequenced from 1).
    Subsequent mutations append after the snapshot. Crash-safe: the
    snapshot is written and fsynced to a tmp file before the live log is
    touched, and the append descriptor is reopened even when a step raises
    — a failed compaction never leaves the journal with a closed handle or
    a truncated log. Compacting a v1 journal upgrades it to v2. *)

val close : t -> unit
(** Flush, close, and detach the journal's observers from the graph. The
    journal stops recording (the graph remains usable); further mutations
    are {e not} logged, and repeated attach/close cycles do not accumulate
    dead callbacks on the graph. *)

(** {1 Recovery}

    The closed corruption taxonomy: every way a journal can disagree with
    its own framing. [mrpa fsck] renders these verbatim. *)

type corruption =
  | Torn_tail of { offset : int; bytes : int }
      (** Unterminated trailing fragment that is not a complete valid
          record — the signature of a crash mid-write. [offset] is where
          the valid portion ends. *)
  | Bad_checksum of { lineno : int }  (** v2 record whose CRC does not match. *)
  | Bad_sequence of { lineno : int; expected : int; found : int }
      (** v2 record whose sequence number jumps — records were lost or
          reordered (not reported again right after a skipped record). *)
  | Malformed of { lineno : int; text : string }
      (** Line that is not a record, a comment, or a v2 frame. *)
  | Unapplied of { lineno : int; reason : string }
      (** Well-formed record that cannot be applied (e.g. deletes an
          unknown vertex). *)

val describe_corruption : corruption -> string

type recovery = {
  r_path : string;
  graph : Digraph.t;  (** graph rebuilt from every salvageable record. *)
  format : version;
  applied : int;  (** records applied. *)
  corruptions : corruption list;  (** in file order. *)
  payloads : string list;  (** applied record payloads, in order. *)
  stale_tmp : string option;
      (** leftover [.compact] tmp from a crashed compaction, if any. *)
}

val recover : string -> (recovery, string) result
(** Best-effort salvage of a journal: apply every record that parses,
    checksums, and applies; skip and report the rest; logically truncate a
    torn tail. Read-only — the file is not modified (that is {!repair}).
    [Error] is reserved for the genuinely unrecoverable: an unreadable
    file or an unsupported format header. *)

val is_clean : recovery -> bool
(** No corruption and no stale compaction tmp. *)

val repair : recovery -> unit
(** Rewrite the journal from {!recovery.payloads} as a fresh v2 file —
    atomically (tmp + fsync + rename) — and delete any stale compaction
    tmp. After [repair r], [recover] of the same path is clean and replays
    to exactly [r.graph]. *)

(** {1 Streaming}

    The framing primitives, exposed so the replication layer
    ([Mrpa_server.Replication]) can tail a journal, re-frame records onto
    a wire, and validate them on the receiving side with the exact same
    code paths the on-disk format uses. *)

val v2_header : string
(** The v2 header line (["#mrpa.journal/2"]), without trailing newline. *)

val is_comment : string -> bool
(** Blank lines and lines starting with ['#'] — never records. *)

type frame = Frame of int * string | Bad_crc | Not_frame
    (** [Frame (seq, payload)] is a v2 record line whose CRC checks out;
        [Bad_crc] framed but corrupt; [Not_frame] not a v2 record at all. *)

val parse_frame : string -> frame
(** Parse one line (no trailing newline) of a v2 journal or record
    stream. *)

val frame : seq:int -> string -> string
(** [frame ~seq payload] renders the v2 record line ["SEQ\tCRC\tPAYLOAD"]
    (no trailing newline) such that [parse_frame (frame ~seq p) = Frame
    (seq, p)]. *)

val apply_payload : Digraph.t -> string -> (unit, string) result
(** Apply one [add]/[del]/[vertex]/[label] payload to [g]; [Error reason] when the
    payload is malformed or cannot be applied (e.g. deletes an unknown
    vertex). *)
