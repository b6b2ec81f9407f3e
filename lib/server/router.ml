open Mrpa_graph
open Mrpa_core
open Mrpa_engine

module StrSet = Set.Make (String)

(* --- Configuration ------------------------------------------------------- *)

type config = {
  front : Listener.config;
  map : Shardmap.t;
  limits : Wire.limits;
  shard_timeout_ms : float;
  probe_timeout_ms : float;
  breaker_failures : int;
  breaker_cooldown_ms : float;
  frontier_cap : int;
}

let default_shard_timeout_ms = 2000.0
let default_probe_timeout_ms = 250.0
let default_breaker_failures = 3
let default_breaker_cooldown_ms = 1000.0
let default_frontier_cap = 128

let default_config ~map endpoint =
  {
    front = Listener.default_config endpoint;
    map;
    limits = Wire.default_limits;
    shard_timeout_ms = default_shard_timeout_ms;
    probe_timeout_ms = default_probe_timeout_ms;
    breaker_failures = default_breaker_failures;
    breaker_cooldown_ms = default_breaker_cooldown_ms;
    frontier_cap = default_frontier_cap;
  }

(* --- Router state -------------------------------------------------------- *)

(* Closed / Open are the durable states; "half-open" is an open breaker
   whose cooldown has expired — the next dispatch probes instead of
   failing fast, and the probe's outcome decides which durable state
   comes next. *)
type breaker_state = B_closed | B_open of float  (* opened at, epoch s *)

type breaker = {
  mutable bstate : breaker_state;
  mutable failures : int;  (* consecutive fully-failed dispatches *)
  mutable preferred : int;  (* endpoint index that answered last *)
  mutable dispatches : int;  (* lifetime count; the fault plane's clock *)
}

type fault_kind = F_kill | F_hang | F_slow of float
type fault = { fkind : fault_kind; at : int }

type t = {
  config : config;
  breakers : breaker array;
  faults : (int, fault) Hashtbl.t;
  lock : Mutex.t;  (* breakers, faults, counters *)
  counters : (string, int) Hashtbl.t;
  listener : Listener.t;
  next_id : int Atomic.t;
  started : float;
}

let create config =
  if Shardmap.n_shards config.map = 0 then
    invalid_arg "Router.create: empty shard map";
  {
    config;
    breakers =
      Array.init (Shardmap.n_shards config.map) (fun _ ->
          { bstate = B_closed; failures = 0; preferred = 0; dispatches = 0 });
    faults = Hashtbl.create 4;
    lock = Mutex.create ();
    counters = Hashtbl.create 16;
    listener = Listener.create config.front;
    next_id = Atomic.make 0;
    started = Unix.gettimeofday ();
  }

let stop t = Listener.stop t.listener
let bound_endpoint t = Listener.bound_endpoint t.listener

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let c_incr t key =
  with_lock t.lock (fun () ->
      Hashtbl.replace t.counters key
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.counters key)))

let c_get t key =
  Option.value ~default:0 (Hashtbl.find_opt t.counters key)

let shard_index_exn t name =
  match Shardmap.index_of t.config.map name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Router: unknown shard %S" name)

let breaker_state t name =
  match Shardmap.index_of t.config.map name with
  | None -> None
  | Some i ->
    Some
      (with_lock t.lock (fun () ->
           match t.breakers.(i).bstate with
           | B_closed -> "closed"
           | B_open since ->
             if
               Unix.gettimeofday () -. since
               >= t.config.breaker_cooldown_ms /. 1000.0
             then "half_open"
             else "open"))

(* --- Deterministic fault plane ------------------------------------------- *)

module Fault = struct
  type kind = Kill | Hang | Slow of float

  let arm t ~shard kind ~at =
    if at < 1 then invalid_arg "Router.Fault.arm: at < 1";
    let idx = shard_index_exn t shard in
    let fkind =
      match kind with Kill -> F_kill | Hang -> F_hang | Slow ms -> F_slow ms
    in
    with_lock t.lock (fun () -> Hashtbl.replace t.faults idx { fkind; at })

  let disarm t ~shard =
    let idx = shard_index_exn t shard in
    with_lock t.lock (fun () -> Hashtbl.remove t.faults idx)

  let dispatches t ~shard =
    let idx = shard_index_exn t shard in
    with_lock t.lock (fun () -> t.breakers.(idx).dispatches)
end

(* --- Transport: one request line against one endpoint, with a deadline --- *)

let try_endpoint ep line ~abs_deadline =
  match Net.connect_fd ep with
  | exception Unix.Unix_error (err, _, _) ->
    Error (Unix.error_message err)
  | exception Failure msg -> Error msg
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Net.write_all fd (line ^ "\n") with
        | exception Unix.Unix_error (err, _, _) ->
          Error (Unix.error_message err)
        | () -> (
          let reader = Listener.reader fd in
          match Listener.read_line reader ~deadline:(Some abs_deadline) with
          | Listener.Line l -> Ok l
          | Listener.Timed_out -> Error "shard response timed out"
          | Listener.Eof | Listener.Too_long ->
            Error "connection closed by shard"))

(* --- Breaker-gated shard dispatch ---------------------------------------- *)

type outcome =
  | D_ok of Json.t  (* a parsed [ok:true] response *)
  | D_wire of string * string  (* a definite wire error: code, message *)
  | D_unavailable  (* breaker open / transport dead / all endpoints stale *)

let fresh_id t = Json.Number (float_of_int (Atomic.fetch_and_add t.next_id 1))

let record_success t idx ~endpoint_index =
  with_lock t.lock (fun () ->
      let b = t.breakers.(idx) in
      b.failures <- 0;
      b.bstate <- B_closed;
      b.preferred <- endpoint_index)

(* A fully-failed dispatch (every endpoint dead or stale). Opening is
   edge-triggered on crossing the threshold so [router.breaker_opens]
   counts state transitions, not failures. *)
let record_failure t idx =
  with_lock t.lock (fun () ->
      let b = t.breakers.(idx) in
      b.failures <- b.failures + 1;
      if b.failures >= t.config.breaker_failures then begin
        (match b.bstate with
        | B_closed ->
          Hashtbl.replace t.counters "router.breaker_opens"
            (1 + Option.value ~default:0
                   (Hashtbl.find_opt t.counters "router.breaker_opens"))
        | B_open _ -> ());
        b.bstate <- B_open (Unix.gettimeofday ())
      end)

let health_request t =
  {
    Wire.id = fresh_id t;
    verb = Wire.Health;
    query = None;
    options = Wire.default_options;
  }

(* Try every endpoint of one shard once (starting at the one that answered
   last), with the given absolute deadline shared across the attempts.
   [stale] and [overloaded] answers rotate like transport failures — a
   fresher / less loaded replica may be next in the list. *)
let attempt_endpoints t idx req ~abs_deadline =
  let shard = Shardmap.shard t.config.map idx in
  let eps = Array.of_list shard.Shardmap.endpoints in
  let n = Array.length eps in
  let start = with_lock t.lock (fun () -> t.breakers.(idx).preferred) in
  let line = Wire.encode_request req in
  let transport_or_stale = ref false in
  let rec go k =
    if k >= n then begin
      if !transport_or_stale then record_failure t idx;
      D_unavailable
    end
    else begin
      let ei = (start + k) mod n in
      match try_endpoint eps.(ei) line ~abs_deadline with
      | Error _ ->
        transport_or_stale := true;
        go (k + 1)
      | Ok resp_line -> (
        match Json.parse resp_line with
        | Error _ ->
          (* A peer that frames garbage is as good as dead. *)
          transport_or_stale := true;
          go (k + 1)
        | Ok json -> (
          match Json.member "ok" json with
          | Some (Json.Bool true) ->
            record_success t idx ~endpoint_index:ei;
            D_ok json
          | Some (Json.Bool false) -> (
            let code =
              match
                Option.bind (Json.member "error" json) (Json.member "code")
              with
              | Some (Json.String c) -> c
              | _ -> "internal"
            in
            let message =
              match
                Option.bind (Json.member "error" json) (Json.member "message")
              with
              | Some (Json.String m) -> m
              | _ -> "shard error"
            in
            if code = Wire.error_code_name Wire.Stale then begin
              transport_or_stale := true;
              go (k + 1)
            end
            else if code = Wire.error_code_name Wire.Overloaded then
              (* Shedding load is proof of life: rotate without charging
                 the breaker. *)
              go (k + 1)
            else begin
              (* A definite answer (query_error, infeasible, ...): the
                 shard is alive and has spoken. *)
              record_success t idx ~endpoint_index:ei;
              D_wire (code, message)
            end)
          | _ ->
            transport_or_stale := true;
            go (k + 1)))
    end
  in
  go 0

(* One breaker-gated dispatch of [req] to shard [idx]. *)
let dispatch t idx req ~abs_deadline =
  c_incr t "router.dispatches";
  let now = Unix.gettimeofday () in
  let cooldown = t.config.breaker_cooldown_ms /. 1000.0 in
  let fault, gate =
    with_lock t.lock (fun () ->
        let b = t.breakers.(idx) in
        b.dispatches <- b.dispatches + 1;
        let fault =
          match Hashtbl.find_opt t.faults idx with
          | Some f when b.dispatches >= f.at -> Some f.fkind
          | _ -> None
        in
        let gate =
          match b.bstate with
          | B_closed -> `Proceed
          | B_open since when now -. since < cooldown -> `Fast_fail
          | B_open _ -> `Probe
        in
        (fault, gate))
  in
  let abs_deadline =
    Float.min abs_deadline (now +. (t.config.shard_timeout_ms /. 1000.0))
  in
  let apply_fault k =
    match fault with
    | None -> k ()
    | Some F_kill ->
      record_failure t idx;
      D_unavailable
    | Some F_hang ->
      (* The shard accepted and went silent: burn the whole per-shard
         deadline, exactly like [recv_line] would against a wedged peer. *)
      let pause = Float.max 0.0 (abs_deadline -. Unix.gettimeofday ()) in
      Thread.delay pause;
      record_failure t idx;
      D_unavailable
    | Some (F_slow ms) ->
      Thread.delay (ms /. 1000.0);
      k ()
  in
  match gate with
  | `Fast_fail ->
    c_incr t "router.breaker_fastfails";
    D_unavailable
  | `Probe ->
    (* Half-open: one cheap health probe decides. On success the real
       request proceeds on the now-closed breaker; on failure the breaker
       reopens and the cooldown clock restarts. *)
    let probe_deadline =
      Unix.gettimeofday () +. (t.config.probe_timeout_ms /. 1000.0)
    in
    apply_fault (fun () ->
        match
          attempt_endpoints t idx (health_request t) ~abs_deadline:probe_deadline
        with
        | D_ok _ | D_wire _ -> attempt_endpoints t idx req ~abs_deadline
        | D_unavailable ->
          with_lock t.lock (fun () ->
              t.breakers.(idx).bstate <- B_open (Unix.gettimeofday ()));
          D_unavailable)
  | `Proceed -> apply_fault (fun () -> attempt_endpoints t idx req ~abs_deadline)

(* Dispatch to several shards concurrently; order of the result list is
   the order of [targets]. *)
let scatter t targets mk_req ~abs_deadline =
  match targets with
  | [] -> []
  | [ idx ] ->
    [ (idx, (try dispatch t idx (mk_req ()) ~abs_deadline with _ -> D_unavailable)) ]
  | _ ->
    let cells =
      List.map
        (fun idx ->
          let cell = ref D_unavailable in
          let th =
            Thread.create
              (fun () ->
                cell :=
                  try dispatch t idx (mk_req ()) ~abs_deadline
                  with _ -> D_unavailable)
              ()
          in
          (idx, cell, th))
        targets
    in
    List.map
      (fun (idx, cell, th) ->
        Thread.join th;
        (idx, !cell))
      cells

(* --- Frontier narrowing and shard targeting ------------------------------ *)

let all_shards map = List.init (Shardmap.n_shards map) Fun.id

let owners map names =
  List.sort_uniq compare (List.map (Shardmap.owner map) names)

let inter_names xs frontier =
  let f = StrSet.of_list frontier in
  List.filter (fun x -> StrSet.mem x f) xs

let diff_names frontier xs =
  let x = StrSet.of_list xs in
  List.filter (fun f -> not (StrSet.mem f x)) frontier

let texts = List.map (fun (n : Parser.name) -> n.Parser.text)
let tails triples = List.map (fun (t, _, _) -> t.Parser.text) triples

(* Narrow an atom against the frontier of head vertices flowing out of the
   join's left operand. Returns [None] when the narrowed atom is provably
   empty (no dispatch at all), otherwise the (possibly rewritten) atom and
   the shard indices that can own matching edges. Narrowing is a pure
   optimisation: a too-wide dispatch is filtered again by the router-side
   [Path_set.join], so the fallbacks (frontier wider than [frontier_cap],
   unquotable data-derived names) only cost work, never soundness. *)
let narrow_atom map ~frontier_cap frontier (atom : Parser.atom) =
  match (frontier, atom) with
  (* Unconstrained: target by the atom's own source position. *)
  | None, Parser.Pattern { src = Only ns; _ } ->
    Some (atom, owners map (texts ns))
  | None, Parser.Pattern _ -> Some (atom, all_shards map)
  | None, Parser.Edges triples -> Some (atom, owners map (tails triples))
  | Some frontier, Parser.Pattern p -> (
    let names =
      match p.src with
      | Any -> frontier
      | Only ns -> inter_names (texts ns) frontier
      | Except ns -> diff_names frontier (texts ns)
    in
    match names with
    | [] -> None
    | names ->
      let targets = owners map names in
      if List.length names <= frontier_cap then
        let src = List.map (fun text -> { Parser.text; pos = 0 }) names in
        Some (Parser.Pattern { p with src = Only src }, targets)
      else Some (atom, targets))
  | Some frontier, Parser.Edges triples -> (
    let f = StrSet.of_list frontier in
    let at_frontier (t, _, _) = StrSet.mem t.Parser.text f in
    match List.filter at_frontier triples with
    | [] -> None
    | kept -> Some (Parser.Edges kept, owners map (tails kept)))

(* A complemented {e label} position is the one construct a shard cannot
   answer soundly when it does not know the name: on that shard the
   complement is vacuously true (none of its edges carry a label it has
   never seen), so the correct contribution is {e non-empty} — but its
   graph-relative parser refuses the query instead. Complemented {e
   vertex} positions never hit this: the partitioner replicates the full
   vertex universe, so a vertex unknown on one shard is unknown on all —
   a global typo caught by the all-shards-error rule. *)
let atom_has_label_complement = function
  | Parser.Pattern { lbl = Except _; _ } -> true
  | Parser.Pattern _ | Parser.Edges _ -> false

(* --- Scatter-gather evaluation ------------------------------------------- *)

exception Fatal of Wire.error_code * string

type ctx = {
  rt : t;
  scratch : Digraph.t;  (* per-request; interns gathered names *)
  options : Wire.options;  (* clamped *)
  eff_max_length : int;
  abs_deadline : float option;
  mutable reasons : Err.reason list;
  mutable missing : StrSet.t;
  atom_cache : (string, Path_set.t) Hashtbl.t;
}

let note_reason ctx r =
  if not (List.mem r ctx.reasons) then ctx.reasons <- r :: ctx.reasons

let note_missing ctx idx =
  let name = (Shardmap.shard ctx.rt.config.map idx).Shardmap.name in
  if not (StrSet.mem name ctx.missing) then begin
    ctx.missing <- StrSet.add name ctx.missing;
    note_reason ctx Err.Shard_unavailable
  end

let reason_rank = function
  | Err.Shard_unavailable -> 0
  | Err.Deadline -> 1
  | Err.Fuel -> 2
  | Err.Memory -> 3
  | Err.Cancelled -> 4
  | Err.Limit -> 5

let final_verdict ctx =
  match
    List.sort (fun a b -> compare (reason_rank a) (reason_rank b)) ctx.reasons
  with
  | [] -> Err.Complete
  | r :: _ -> Err.Partial r

let deadline_expired ctx =
  match ctx.abs_deadline with
  | Some d -> Unix.gettimeofday () > d
  | None -> false

let cap ctx s =
  Path_set.filter (fun p -> Path.length p <= ctx.eff_max_length) s

(* The router's stand-in for the engine's live-path budget: materialised
   intermediates above [max_paths] are truncated to a sound subset. *)
let guard_mem ctx s =
  match ctx.options.Wire.max_paths with
  | Some m when Path_set.cardinal s > m ->
    note_reason ctx Err.Memory;
    Path_set.truncate m s
  | _ -> s

let dispatch_deadline ctx =
  match ctx.abs_deadline with
  | Some d -> d
  | None -> Unix.gettimeofday () +. (ctx.rt.config.shard_timeout_ms /. 1000.0)

(* Options forwarded with every atom dispatch: the shard only ever
   evaluates one selector (single-edge paths), so strategy / limit /
   simple / max_length are the router's business, while the governed
   budgets and the staleness bounds ride through so each shard enforces
   them locally. *)
let atom_options ctx ~remaining_ms =
  {
    ctx.options with
    Wire.strategy = None;
    limit = None;
    max_length = Some 1;
    simple = false;
    deadline_ms = remaining_ms;
    from_seq = None;
    epoch = None;
  }

let shard_verdict_of_result json =
  match
    Option.bind
      (Option.bind (Json.member "result" json) (Json.member "verdict"))
      Json.to_string_opt
  with
  | Some "complete" | None -> None
  | Some s ->
    let n = String.length s in
    let prefix = "partial:" in
    let pn = String.length prefix in
    if n > pn && String.sub s 0 pn = prefix then
      Err.reason_of_name (String.sub s pn (n - pn))
    else None

let edges_of_result json =
  match Option.bind (Json.member "result" json) (Json.member "paths") with
  | Some (Json.List paths) ->
    List.concat_map
      (fun p ->
        match Json.member "edges" p with
        | Some (Json.List [ e ]) -> (
          match
            ( Option.bind (Json.member "tail" e) Json.to_string_opt,
              Option.bind (Json.member "label" e) Json.to_string_opt,
              Option.bind (Json.member "head" e) Json.to_string_opt )
          with
          | Some a, Some b, Some c -> [ (a, b, c) ]
          | _ -> raise (Fatal (Wire.Internal, "malformed edge from shard")))
        | _ ->
          raise
            (Fatal
               ( Wire.Internal,
                 "unexpected non-single-edge path from a shard's selector \
                  dispatch" )))
      paths
  | _ -> raise (Fatal (Wire.Internal, "shard response carries no paths"))

let eval_atom ctx frontier atom =
  if ctx.eff_max_length < 1 then Path_set.empty
  else
    match
      narrow_atom ctx.rt.config.map ~frontier_cap:ctx.rt.config.frontier_cap
        frontier atom
    with
    | None -> Path_set.empty
    | Some (narrowed, targets) ->
      let text =
        match Unparse.atom narrowed with
        | Some s -> s
        | None -> (
          (* Data-derived names defeated quoting; fall back to the original
             un-narrowed atom (parsed from user text, always renderable). *)
          match Unparse.atom atom with
          | Some s -> s
          | None ->
            raise (Fatal (Wire.Internal, "unrenderable selector atom")))
      in
      let key = text ^ "@" ^ String.concat "," (List.map string_of_int targets) in
      (match Hashtbl.find_opt ctx.atom_cache key with
      | Some cached -> cached
      | None ->
        let abs_deadline = dispatch_deadline ctx in
        let remaining_ms =
          Option.map
            (fun d -> Float.max 1.0 ((d -. Unix.gettimeofday ()) *. 1000.0))
            ctx.abs_deadline
        in
        let mk_req () =
          {
            Wire.id = fresh_id ctx.rt;
            verb = Wire.Query;
            query = Some text;
            options = atom_options ctx ~remaining_ms;
          }
        in
        let outcomes = scatter ctx.rt targets mk_req ~abs_deadline in
        let edges = ref [] in
        let qerrs = ref [] in
        let answered = ref 0 in
        List.iter
          (fun (idx, outcome) ->
            match outcome with
            | D_ok json ->
              incr answered;
              (match shard_verdict_of_result json with
              | Some r -> note_reason ctx r
              | None -> ());
              edges := List.rev_append (edges_of_result json) !edges
            | D_wire (code, msg) when code = Wire.error_code_name Wire.Query_error
              ->
              if atom_has_label_complement atom then
                raise
                  (Fatal
                     ( Wire.Query_error,
                       Printf.sprintf
                         "shard %s: %s (a complemented label position cannot \
                          be answered soundly by a shard that does not know \
                          the name)"
                         (Shardmap.shard ctx.rt.config.map idx).Shardmap.name
                         msg ))
              else qerrs := (idx, msg) :: !qerrs
            | D_wire (code, msg) ->
              raise
                (Fatal
                   ( (if code = Wire.error_code_name Wire.Infeasible then
                        Wire.Infeasible
                      else Wire.Internal),
                     Printf.sprintf "shard %s: %s"
                       (Shardmap.shard ctx.rt.config.map idx).Shardmap.name msg
                   ))
            | D_unavailable -> note_missing ctx idx)
          outcomes;
        (* A name unknown on one shard while another matched it is just an
           empty contribution; unknown on {e every} shard that answered —
           and every shard answered — is the typo the single-server parser
           would have caught. *)
        (match (!qerrs, !answered) with
        | (_, msg) :: _, 0 when List.length !qerrs = List.length targets ->
          raise (Fatal (Wire.Query_error, msg))
        | _ -> ());
        let pset =
          Path_set.of_list
            (List.map
               (fun (a, b, c) -> Path.of_edge (Digraph.add ctx.scratch a b c))
               !edges)
        in
        Hashtbl.replace ctx.atom_cache key pset;
        pset)

(* Heads of the left operand's paths, as names, for the frontier handoff.
   [None] when the set contains ε (a path starting anywhere may follow). *)
let frontier_of ctx pset =
  let exception Eps in
  match
    Path_set.fold
      (fun p acc ->
        match Path.head p with
        | None -> raise Eps
        | Some v -> StrSet.add (Digraph.vertex_name ctx.scratch v) acc)
      pset StrSet.empty
  with
  | s -> Some (StrSet.elements s)
  | exception Eps -> None

(* Mirrors {!Mrpa_core.Expr.denote}: the length cap applies to {e every}
   selector / join / product result, and the star is the bounded closure.
   The incoming [frontier] only ever {e narrows dispatches} — every
   algebraic filter happens here, so narrowing can never change the
   result, only the bytes on the wire. *)
let rec eval ctx frontier (e : Parser.tree) =
  if deadline_expired ctx then begin
    note_reason ctx Err.Deadline;
    Path_set.empty
  end
  else
    match e.Spanned.node with
    | Spanned.Empty -> Path_set.empty
    | Spanned.Epsilon -> Path_set.epsilon
    | Spanned.Sel atom -> eval_atom ctx frontier atom
    | Spanned.Union (a, b) ->
      guard_mem ctx
        (Path_set.union (eval ctx frontier a) (eval ctx frontier b))
    | Spanned.Join (a, b) ->
      let pa = eval ctx frontier a in
      if Path_set.is_empty pa then Path_set.empty
      else
        let fr = frontier_of ctx pa in
        let pb = eval ctx fr b in
        guard_mem ctx (cap ctx (Path_set.join pa pb))
    | Spanned.Product (a, b) ->
      let pa = eval ctx frontier a in
      if Path_set.is_empty pa then Path_set.empty
      else guard_mem ctx (cap ctx (Path_set.product pa (eval ctx None b)))
    | Spanned.Star a ->
      (* The closure wanders: its inner paths may start anywhere, so the
         frontier does not pass through (the parent join still filters). *)
      let pa = eval ctx None a in
      guard_mem ctx
        (Path_set.star_bounded pa ~max_length:ctx.eff_max_length)

(* --- Verb handling ------------------------------------------------------- *)

let esc = Render.escape_string

let missing_json ctx =
  match StrSet.elements ctx.missing with
  | [] -> None
  | names -> Some ("[" ^ String.concat "," (List.map esc names) ^ "]")

let effective_max_length t (o : Wire.options) =
  match o.Wire.max_length with
  | Some m -> m
  | None -> min Engine.default_max_length t.config.limits.Wire.max_length_cap

let handle_query t (req : Wire.request) (o : Wire.options) =
  let started = Unix.gettimeofday () in
  let query_text = Option.value ~default:"" req.Wire.query in
  match Parser.syntax query_text with
  | Error e ->
    Wire.response_error ~id:req.Wire.id ~code:Wire.Query_error
      (Format.asprintf "%a" Parser.pp_error e)
  | Ok { Parser.body; _ } -> (
    let ctx =
      {
        rt = t;
        scratch = Digraph.create ();
        options = o;
        eff_max_length = effective_max_length t o;
        abs_deadline =
          Option.map (fun ms -> started +. (ms /. 1000.0)) o.Wire.deadline_ms;
        reasons = [];
        missing = StrSet.empty;
        atom_cache = Hashtbl.create 8;
      }
    in
    match eval ctx None body with
    | exception Fatal (code, msg) ->
      Wire.response_error ~id:req.Wire.id ~code msg
    | pset ->
      let pset = if o.Wire.simple then Path_set.restrict_simple pset else pset in
      let pset =
        match o.Wire.limit with
        | Some k when Path_set.cardinal pset > k ->
          note_reason ctx Err.Limit;
          Path_set.truncate k pset
        | _ -> pset
      in
      let verdict = final_verdict ctx in
      (match verdict with
      | Err.Complete -> ()
      | Err.Partial _ -> c_incr t "router.partial");
      if not (StrSet.is_empty ctx.missing) then c_incr t "router.degraded";
      let missing_frag =
        match missing_json ctx with
        | None -> ""
        | Some j -> ",\"missing_shards\":" ^ j
      in
      let elapsed_ms = (Unix.gettimeofday () -. started) *. 1000.0 in
      (match req.Wire.verb with
      | Wire.Count ->
        c_incr t "router.counts";
        Wire.response_ok ~id:req.Wire.id
          ([
             ("count", string_of_int (Path_set.cardinal pset));
             ("verdict", esc (Err.verdict_name verdict));
           ]
          @
          match missing_json ctx with
          | None -> []
          | Some j -> [ ("missing_shards", j) ])
      | _ ->
        c_incr t "router.queries";
        let result =
          Printf.sprintf
            {|{"paths":%s,"count":%d,"elapsed_ms":%.3f,"strategy":"scatter","verdict":%s%s}|}
            (Render.paths_json ctx.scratch pset)
            (Path_set.cardinal pset) elapsed_ms
            (esc (Err.verdict_name verdict))
            missing_frag
        in
        Wire.response_ok ~id:req.Wire.id [ ("result", result) ]))

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> esc k ^ ":" ^ v) fields) ^ "}"

(* Gather a per-shard payload member ("stats" / "health") from every
   shard; unreachable shards render as null. *)
let gather_member t ~verb ~member ~abs_deadline =
  let mk_req () =
    { Wire.id = fresh_id t; verb; query = None; options = Wire.default_options }
  in
  let outcomes = scatter t (all_shards t.config.map) mk_req ~abs_deadline in
  List.map
    (fun (idx, outcome) ->
      let name = (Shardmap.shard t.config.map idx).Shardmap.name in
      let value =
        match outcome with
        | D_ok json -> (
          match Json.member member json with
          | Some j -> Json.to_string j
          | None -> "null")
        | D_wire _ | D_unavailable -> "null"
      in
      (idx, name, value))
    outcomes

let handle_stats t (req : Wire.request) =
  let abs_deadline =
    Unix.gettimeofday () +. (t.config.shard_timeout_ms /. 1000.0)
  in
  let shards = gather_member t ~verb:Wire.Stats ~member:"stats" ~abs_deadline in
  let router_fields =
    with_lock t.lock (fun () ->
        [
          ("router.shards", string_of_int (Shardmap.n_shards t.config.map));
          ( "router.connections",
            string_of_int (c_get t "router.connections") );
          ("router.requests", string_of_int (c_get t "router.requests"));
          ("router.queries", string_of_int (c_get t "router.queries"));
          ("router.counts", string_of_int (c_get t "router.counts"));
          ("router.dispatches", string_of_int (c_get t "router.dispatches"));
          ("router.partial", string_of_int (c_get t "router.partial"));
          ("router.degraded", string_of_int (c_get t "router.degraded"));
          ( "router.breaker_opens",
            string_of_int (c_get t "router.breaker_opens") );
          ( "router.breaker_fastfails",
            string_of_int (c_get t "router.breaker_fastfails") );
          ( "router.idle_timeouts",
            string_of_int (c_get t "router.idle_timeouts") );
          ( "router.oversized_requests",
            string_of_int (c_get t "router.oversized_requests") );
          ( "router.blank_floods",
            string_of_int (c_get t "router.blank_floods") );
          ( "router.uptime_ms",
            Printf.sprintf "%.0f"
              ((Unix.gettimeofday () -. t.started) *. 1000.0) );
        ])
  in
  Wire.response_ok ~id:req.Wire.id
    [
      ("stats", json_obj router_fields);
      ( "shards",
        json_obj (List.map (fun (_, name, v) -> (name, v)) shards) );
    ]

let handle_health t (req : Wire.request) =
  let abs_deadline =
    Unix.gettimeofday () +. (t.config.probe_timeout_ms /. 1000.0)
  in
  let shards =
    gather_member t ~verb:Wire.Health ~member:"health" ~abs_deadline
  in
  let shard_objs =
    List.map
      (fun (idx, name, health) ->
        let b, disp =
          with_lock t.lock (fun () ->
              (t.breakers.(idx), t.breakers.(idx).dispatches))
        in
        let state =
          match b.bstate with
          | B_closed -> "closed"
          | B_open since ->
            if
              Unix.gettimeofday () -. since
              >= t.config.breaker_cooldown_ms /. 1000.0
            then "half_open"
            else "open"
        in
        json_obj
          [
            ("name", esc name);
            ("breaker", esc state);
            ("failures", string_of_int b.failures);
            ("dispatches", string_of_int disp);
            ("reachable", if health = "null" then "false" else "true");
            ("health", health);
          ])
      shards
  in
  Wire.response_ok ~id:req.Wire.id
    [
      ( "health",
        json_obj
          [
            ("role", esc "router");
            ("shards", "[" ^ String.concat "," shard_objs ^ "]");
          ] );
    ]

(* Lint has no shard-placement question — any shard's static analyzer can
   answer over its own name tables, and the first reachable one does. *)
let handle_lint t (req : Wire.request) =
  let abs_deadline =
    Unix.gettimeofday () +. (t.config.shard_timeout_ms /. 1000.0)
  in
  let rec go = function
    | [] ->
      Wire.response_error ~id:req.Wire.id ~code:Wire.Internal
        "no shard reachable to answer lint"
    | idx :: rest -> (
      let forwarded =
        { req with Wire.id = fresh_id t; options = req.Wire.options }
      in
      match dispatch t idx forwarded ~abs_deadline with
      | D_ok json -> (
        (* Relay the shard's payload under the caller's id. *)
        match json with
        | Json.Obj fields ->
          Json.to_string
            (Json.Obj
               (List.map
                  (fun (k, v) -> if k = "id" then (k, req.Wire.id) else (k, v))
                  fields))
        | _ -> Json.to_string json)
      | D_wire (code, msg) ->
        let code =
          if code = Wire.error_code_name Wire.Query_error then Wire.Query_error
          else Wire.Internal
        in
        Wire.response_error ~id:req.Wire.id ~code msg
      | D_unavailable -> go rest)
  in
  go (all_shards t.config.map)

let handle_line ?(remote = false) t line =
  match Wire.decode_request line with
  | Error msg -> Wire.response_error ~id:Json.Null ~code:Wire.Bad_request msg
  | Ok req -> (
    c_incr t "router.requests";
    let o = Wire.clamp t.config.limits req.Wire.options in
    match req.Wire.verb with
    | Wire.Ping -> Wire.response_ok ~id:req.Wire.id [ ("pong", "true") ]
    | Wire.Query | Wire.Count -> handle_query t req o
    | Wire.Stats -> handle_stats t req
    | Wire.Health -> handle_health t req
    | Wire.Lint -> handle_lint t req
    | Wire.Shutdown ->
      if not (Listener.shutdown_allowed t.config.front ~remote) then
        Wire.response_error ~id:req.Wire.id ~code:Wire.Unauthorized
          "shutdown over TCP requires --allow-remote-shutdown"
      else begin
        stop t;
        Wire.response_ok ~id:req.Wire.id [ ("stopping", "true") ]
      end
    | Wire.Sub | Wire.Views _ ->
      Wire.response_error ~id:req.Wire.id ~code:Wire.Bad_request
        (Printf.sprintf
           "verb %S is not supported by the router; address a shard directly"
           (Wire.verb_name req.Wire.verb)))

(* --- Listening ----------------------------------------------------------- *)

let serve t =
  Listener.serve t.listener
    ~on_farewell:(fun f -> c_incr t ("router." ^ Listener.farewell_counter f))
    (fun ~remote fd ->
      c_incr t "router.connections";
      {
        Listener.handle =
          (fun line ->
            Listener.send_line fd (handle_line ~remote t line);
            if Listener.stopping t.listener then `Close else `Continue);
        send = Listener.send_line fd;
        close = ignore;
      })
