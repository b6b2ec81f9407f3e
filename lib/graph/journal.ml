(* On-disk format.

   v1 (legacy): one mutation per line, tab-separated —
       add\tTAIL\tLABEL\tHEAD | del\t... | vertex\tNAME
   No header, no integrity information: a torn write that happens to parse
   is applied verbatim, which is why v1 is read-compatible but no longer
   written for new journals.

   v2: a header line "#mrpa.journal/2" followed by framed records —
       SEQ\tCRC8HEX\tPAYLOAD
   where PAYLOAD is exactly a v1 mutation line, SEQ is a 1-based record
   sequence number and CRC is the CRC-32 of "SEQ\tPAYLOAD". The checksum
   detects torn writes and bit rot; the sequence number detects lost or
   reordered records. Lines that are blank or start with '#' are comments
   in both formats.

   Every file-system side effect goes through {!Io_fault} so the crash
   matrix in test/test_journal.ml can fail each one deterministically. *)

type version = V1 | V2

type corruption =
  | Torn_tail of { offset : int; bytes : int }
  | Bad_checksum of { lineno : int }
  | Bad_sequence of { lineno : int; expected : int; found : int }
  | Malformed of { lineno : int; text : string }
  | Unapplied of { lineno : int; reason : string }

let describe_corruption = function
  | Torn_tail { offset; bytes } ->
    Printf.sprintf "torn tail: %d trailing byte(s) dropped at offset %d" bytes
      offset
  | Bad_checksum { lineno } ->
    Printf.sprintf "line %d: checksum mismatch (record skipped)" lineno
  | Bad_sequence { lineno; expected; found } ->
    Printf.sprintf "line %d: sequence jump (expected %d, found %d)" lineno
      expected found
  | Malformed { lineno; text } ->
    Printf.sprintf "line %d: malformed record %S (skipped)" lineno text
  | Unapplied { lineno; reason } ->
    Printf.sprintf "line %d: %s (skipped)" lineno reason

let header = "#mrpa.journal/2"
let header_prefix = "#mrpa.journal/"

exception Unsupported_format of string

(* --- Reading ----------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Split into newline-terminated lines plus the unterminated trailing
   fragment, if any — the fragment is where torn writes live. *)
let split_content content =
  let n = String.length content in
  let rec go start acc =
    if start >= n then (List.rev acc, None)
    else
      match String.index_from_opt content start '\n' with
      | None -> (List.rev acc, Some (String.sub content start (n - start)))
      | Some i -> go (i + 1) (String.sub content start (i - start) :: acc)
  in
  go 0 []

(* Apply one v1-syntax mutation payload; raises [Failure] with a rendered
   reason when the payload is malformed or cannot be applied. *)
let apply_payload_exn g payload =
  match String.split_on_char '\t' (String.trim payload) with
  | [ "vertex"; name ] -> ignore (Digraph.vertex g name)
  | [ "label"; name ] -> ignore (Digraph.label g name)
  | [ "add"; tail; label; head ] -> ignore (Digraph.add g tail label head)
  | [ "del"; tail; label; head ] ->
    let resolve what find name =
      match find name with
      | Some x -> x
      | None ->
        failwith (Printf.sprintf "deletes unknown %s %S" what name)
    in
    let e =
      Edge.make
        ~tail:(resolve "vertex" (Digraph.find_vertex g) tail)
        ~label:(resolve "label" (Digraph.find_label g) label)
        ~head:(resolve "vertex" (Digraph.find_vertex g) head)
    in
    ignore (Digraph.remove_edge g e)
  | _ -> failwith "malformed record"

let is_comment line =
  let l = String.trim line in
  l = "" || l.[0] = '#'

type frame = Frame of int * string | Bad_crc | Not_frame

let parse_frame line =
  match String.index_opt line '\t' with
  | None -> Not_frame
  | Some i1 -> (
    match String.index_from_opt line (i1 + 1) '\t' with
    | None -> Not_frame
    | Some i2 -> (
      let seqs = String.sub line 0 i1 in
      let crcs = String.sub line (i1 + 1) (i2 - i1 - 1) in
      let payload = String.sub line (i2 + 1) (String.length line - i2 - 1) in
      match (int_of_string_opt seqs, Crc32.of_hex crcs) with
      | Some seq, Some crc when seq >= 1 ->
        if Crc32.string (seqs ^ "\t" ^ payload) = crc then Frame (seq, payload)
        else Bad_crc
      | _ -> Not_frame))

type scan_result = {
  s_version : version;
  s_applied : int;
  s_last_seq : int;
  s_corruptions : corruption list;
  s_payloads : string list;  (* applied payloads, reverse order *)
  s_truncate_to : int option;
  s_needs_newline : bool;
}

(* One pass over a journal's bytes, applying every valid record to [g].

   [strict] is the replay/attach mode: any mid-file corruption raises
   [Failure] — only a torn tail (the expected shape of a crash) is
   tolerated, recorded and logically truncated. Non-strict is the recover
   mode: corrupt records are skipped and reported, valid ones salvaged. *)
let scan ~strict ~path g content =
  let lines, fragment = split_content content in
  let version =
    match lines with
    | first :: _ when first = header -> V2
    | first :: _ when String.starts_with ~prefix:header_prefix first ->
      raise (Unsupported_format first)
    | _ -> V1
  in
  let corruptions = ref [] in
  let payloads = ref [] in
  let applied = ref 0 in
  let last_seq = ref 0 in
  let expected = ref 1 in
  let resync = ref false in
  let fail c =
    failwith (Printf.sprintf "Journal: %s: %s" path (describe_corruption c))
  in
  let report c = if strict then fail c else corruptions := c :: !corruptions in
  let record ~seq payload =
    applied := !applied + 1;
    payloads := payload :: !payloads;
    (match seq with
    | Some s ->
      last_seq := s;
      expected := s + 1
    | None -> last_seq := !applied)
  in
  (* Apply a complete line. Returns [true] when a record was applied (used
     by the fragment logic below). *)
  let handle_line lineno line =
    match version with
    | V1 ->
      if is_comment line then false
      else (
        match apply_payload_exn g line with
        | () ->
          record ~seq:None (String.trim line);
          true
        | exception Failure reason ->
          report (Unapplied { lineno; reason });
          false)
    | V2 ->
      if lineno = 1 && line = header then false
      else if is_comment line then false
      else (
        match parse_frame line with
        | Not_frame ->
          report (Malformed { lineno; text = line });
          resync := true;
          false
        | Bad_crc ->
          report (Bad_checksum { lineno });
          resync := true;
          false
        | Frame (seq, payload) -> (
          (* After a skipped record the very next sequence number cannot
             match; adopt it silently instead of double-reporting. *)
          if !resync then resync := false
          else if seq <> !expected then
            report (Bad_sequence { lineno; expected = !expected; found = seq });
          match apply_payload_exn g payload with
          | () ->
            record ~seq:(Some seq) payload;
            true
          | exception Failure reason ->
            report (Unapplied { lineno; reason });
            false))
  in
  List.iteri (fun i line -> ignore (handle_line (i + 1) line)) lines;
  let truncate_to = ref None in
  let needs_newline = ref false in
  (match fragment with
  | None -> ()
  | Some f ->
    let flineno = List.length lines + 1 in
    let torn () =
      let offset = String.length content - String.length f in
      corruptions := Torn_tail { offset; bytes = String.length f } :: !corruptions;
      truncate_to := Some offset
    in
    (* An unterminated final line is applied only when it is a complete,
       valid record (v2: frame and checksum intact; v1: it parses and
       applies) — anything else is a torn write, dropped with a warning
       even in strict mode. That is the crash-tolerance contract: a crash
       between write and flush costs at most the final record. *)
    let applied_fragment =
      match version with
      | V1 ->
        if is_comment f then false
        else (
          match apply_payload_exn g f with
          | () ->
            record ~seq:None (String.trim f);
            true
          | exception Failure _ -> false)
      | V2 -> (
        match parse_frame f with
        | Frame (seq, payload) -> (
          match apply_payload_exn g payload with
          | () ->
            if !resync then resync := false
            else if seq <> !expected then
              report
                (Bad_sequence { lineno = flineno; expected = !expected; found = seq });
            record ~seq:(Some seq) payload;
            true
          | exception Failure _ -> false)
        | Bad_crc | Not_frame -> false)
    in
    if applied_fragment then needs_newline := true else torn ());
  {
    s_version = version;
    s_applied = !applied;
    s_last_seq = !last_seq;
    s_corruptions = List.rev !corruptions;
    s_payloads = List.rev !payloads;
    s_truncate_to = !truncate_to;
    s_needs_newline = !needs_newline;
  }

(* --- Replay ------------------------------------------------------------- *)

let default_warn msg = Printf.eprintf "mrpa journal: warning: %s\n%!" msg

let scan_strict ~on_warning g path content =
  match scan ~strict:true ~path g content with
  | s ->
    List.iter
      (fun c -> on_warning (Printf.sprintf "%s: %s" path (describe_corruption c)))
      s.s_corruptions;
    s
  | exception Unsupported_format v ->
    failwith (Printf.sprintf "Journal: %s: unsupported format %S" path v)

let replay_into ?(on_warning = default_warn) g path =
  if Sys.file_exists path then begin
    let content = read_file path in
    if content <> "" then ignore (scan_strict ~on_warning g path content)
  end

let replay path =
  let g = Digraph.create () in
  replay_into g path;
  g

(* --- Live journal ------------------------------------------------------- *)

type t = {
  graph : Digraph.t;
  path : string;
  mutable fd : Unix.file_descr;
  mutable written : int;
  mutable closed : bool;
  mutable version : version;
  mutable next_seq : int;
  mutable fsync_errors : int;
  on_warning : string -> unit;
  (* The exact closures registered on the graph, kept so [close] can detach
     them (observer removal is by physical equality). *)
  mutable added_cb : Edge.t -> unit;
  mutable removed_cb : Edge.t -> unit;
}

let frame ~seq payload =
  (* Append hot path: plain concatenation, no Printf machinery. *)
  let seqs = string_of_int seq in
  let crc = Crc32.update (Crc32.string (seqs ^ "\t")) payload in
  String.concat "" [ seqs; "\t"; Crc32.to_hex crc; "\t"; payload ]

let frame_v2 ~seq payload = frame ~seq payload ^ "\n"

let append t payload =
  if not t.closed then begin
    let line =
      match t.version with
      | V1 -> payload ^ "\n"
      | V2 -> frame_v2 ~seq:t.next_seq payload
    in
    Io_fault.write t.fd line;
    (match t.version with V2 -> t.next_seq <- t.next_seq + 1 | V1 -> ());
    t.written <- t.written + 1
  end

let entry_payload g kind e =
  Printf.sprintf "%s\t%s\t%s\t%s" kind
    (Digraph.vertex_name g (Edge.tail e))
    (Digraph.label_name g (Edge.label e))
    (Digraph.vertex_name g (Edge.head e))

let attach ?(replay_existing = true) ?(on_warning = default_warn) g path =
  (* The scan also runs when [replay_existing] is false: the append format
     and next sequence number live in the file, so it is parsed either way,
     just into a scratch graph that is then dropped. *)
  let target = if replay_existing then g else Digraph.create () in
  let scanned =
    if Sys.file_exists path then begin
      let content = read_file path in
      if content = "" then None else Some (scan_strict ~on_warning target path content)
    end
    else None
  in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  let version, next_seq =
    match scanned with
    | None ->
      (* New (or empty) journals are v2 from the first byte. *)
      Io_fault.write fd (header ^ "\n");
      (V2, 1)
    | Some s ->
      (* A torn tail found during replay is physically truncated here, so
         subsequent appends start on a record boundary instead of gluing
         onto the fragment; an intact-but-unterminated final record just
         gets its missing newline. *)
      (match s.s_truncate_to with
      | Some off -> Unix.ftruncate fd off
      | None -> ());
      if s.s_needs_newline then Io_fault.write fd "\n";
      (s.s_version, s.s_last_seq + 1)
  in
  let t =
    {
      graph = g;
      path;
      fd;
      written = 0;
      closed = false;
      version;
      next_seq;
      fsync_errors = 0;
      on_warning;
      added_cb = ignore;
      removed_cb = ignore;
    }
  in
  t.added_cb <- (fun e -> append t (entry_payload g "add" e));
  t.removed_cb <- (fun e -> append t (entry_payload g "del" e));
  Digraph.on_edge_added g t.added_cb;
  Digraph.on_edge_removed g t.removed_cb;
  t

(* Isolated-vertex interning fires no edge observer, so it must be
   recorded explicitly; used by `mrpa append --vertex`. *)
let record_vertex t g name =
  ignore (Digraph.vertex g name);
  append t (Printf.sprintf "vertex\t%s" name)

let log_path t = t.path
let entries_written t = t.written
let format_version t = t.version
let fsync_errors t = t.fsync_errors

let sync t =
  if not t.closed then begin
    Io_fault.flush ();
    try Io_fault.fsync t.fd
    with Unix.Unix_error (e, _, _) ->
      (* An fsync failure is silent durability loss: the OS may have
         dropped the very pages we were promising to persist. Count every
         occurrence and say so out loud the first time. *)
      t.fsync_errors <- t.fsync_errors + 1;
      if t.fsync_errors = 1 then
        t.on_warning
          (Printf.sprintf "fsync failed on %s: %s (entries may not survive a crash)"
             t.path (Unix.error_message e))
  end

(* Every vertex, every edge, then every label that carries no edge (as
   {!Io} writes a graph), so a compacted journal replays to the same
   vertex and label universes. *)
let snapshot_payloads g =
  let vertices =
    List.map
      (fun v -> Printf.sprintf "vertex\t%s" (Digraph.vertex_name g v))
      (Digraph.vertices g)
  in
  let edges =
    List.rev (Digraph.fold_edges (fun e acc -> entry_payload g "add" e :: acc) g [])
  in
  let edgeless =
    List.filter_map
      (fun l ->
        if Digraph.n_edges_with_label g l = 0 then
          Some (Printf.sprintf "label\t%s" (Digraph.label_name g l))
        else None)
      (Digraph.labels g)
  in
  vertices @ edges @ edgeless

(* Write [payloads] as a fresh v2 journal at [dst], atomically: frame and
   fsync into [tmp] first, then rename over. Any failure removes the tmp
   file and leaves [dst] untouched. *)
let write_v2_atomic ~tmp ~dst payloads =
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     Io_fault.write fd (header ^ "\n");
     List.iteri (fun i p -> Io_fault.write fd (frame_v2 ~seq:(i + 1) p)) payloads;
     Io_fault.flush ();
     Io_fault.fsync fd;
     Io_fault.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Io_fault.rename tmp dst

(* Crash-safe compaction: the snapshot is written and fsynced to a tmp file
   {e before} the live journal is touched, so a failure while snapshotting
   leaves the journal exactly as it was (fd open, log intact). Only once
   the snapshot is durable is the old log closed and renamed over — and the
   append fd is reopened even if the rename raises, so the handle never
   ends up closed-but-not-closed (which would make every later graph
   mutation raise inside an observer). Compaction always writes v2: it is
   the upgrade path for legacy v1 logs. *)
let compact t =
  if t.closed then invalid_arg "Journal.compact: closed";
  let tmp = t.path ^ ".compact" in
  let payloads = snapshot_payloads t.graph in
  let fd_tmp =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     Io_fault.write fd_tmp (header ^ "\n");
     List.iteri
       (fun i p -> Io_fault.write fd_tmp (frame_v2 ~seq:(i + 1) p))
       payloads;
     Io_fault.flush ();
     Io_fault.fsync fd_tmp;
     Io_fault.close fd_tmp
   with e ->
     (try Unix.close fd_tmp with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  let old_closed = ref false in
  Fun.protect
    ~finally:(fun () ->
      if !old_closed then
        t.fd <-
          Unix.openfile t.path
            [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
            0o644)
    (fun () ->
      Io_fault.close t.fd;
      old_closed := true;
      Io_fault.rename tmp t.path);
  t.version <- V2;
  t.next_seq <- List.length payloads + 1

let close t =
  if not t.closed then begin
    t.closed <- true;
    Fun.protect
      ~finally:(fun () ->
        (* Detach from the graph so attach/close cycles don't leak closures. *)
        Digraph.off_edge_added t.graph t.added_cb;
        Digraph.off_edge_removed t.graph t.removed_cb)
      (fun () ->
        Io_fault.flush ();
        Io_fault.close t.fd)
  end

(* --- Recovery ----------------------------------------------------------- *)

type recovery = {
  r_path : string;
  graph : Digraph.t;
  format : version;
  applied : int;
  corruptions : corruption list;
  payloads : string list;
  stale_tmp : string option;
}

let recover path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: no such journal" path)
  else
    match read_file path with
    | exception Sys_error msg -> Error msg
    | content -> (
      let g = Digraph.create () in
      match scan ~strict:false ~path g content with
      | exception Unsupported_format v ->
        Error (Printf.sprintf "%s: unsupported journal format %S" path v)
      | s ->
        let tmp = path ^ ".compact" in
        Ok
          {
            r_path = path;
            graph = g;
            format = s.s_version;
            applied = s.s_applied;
            corruptions = s.s_corruptions;
            payloads = s.s_payloads;
            stale_tmp = (if Sys.file_exists tmp then Some tmp else None);
          })

let is_clean r = r.corruptions = [] && r.stale_tmp = None

let repair r =
  write_v2_atomic ~tmp:(r.r_path ^ ".repair") ~dst:r.r_path r.payloads;
  match r.stale_tmp with
  | Some tmp -> ( try Sys.remove tmp with Sys_error _ -> ())
  | None -> ()

(* --- Streaming / replication support ------------------------------------ *)

let v2_header = header

let apply_payload g payload =
  match apply_payload_exn g payload with
  | () -> Ok ()
  | exception Failure reason -> Error reason
