open Mrpa_engine

let version = "mrpa.wire/1"

type endpoint = Unix_socket of string | Tcp of string * int

let endpoint_to_string = function
  | Unix_socket path -> Printf.sprintf "unix:%s" path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let endpoint_of_string s =
  let strip prefix =
    if String.starts_with ~prefix s then
      Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
    else None
  in
  let host_port rest =
    match String.rindex_opt rest ':' with
    | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p <= 65535 && host <> "" -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad TCP endpoint %S: want HOST:PORT" s))
    | None -> Error (Printf.sprintf "bad TCP endpoint %S: want HOST:PORT" s)
  in
  match strip "unix:" with
  | Some path when path <> "" -> Ok (Unix_socket path)
  | Some _ -> Error (Printf.sprintf "bad endpoint %S: empty socket path" s)
  | None -> (
    match strip "tcp:" with
    | Some rest -> host_port rest
    | None ->
      (* Bare HOST:PORT is accepted as TCP shorthand. *)
      host_port s)

(* --- Requests ---------------------------------------------------------- *)

type view_action =
  | V_register
  | V_drop
  | V_list
  | V_edges
  | V_counts
  | V_analytics

let view_action_name = function
  | V_register -> "register"
  | V_drop -> "drop"
  | V_list -> "list"
  | V_edges -> "edges"
  | V_counts -> "counts"
  | V_analytics -> "analytics"

let view_action_of_name = function
  | "register" -> Some V_register
  | "drop" -> Some V_drop
  | "list" -> Some V_list
  | "edges" -> Some V_edges
  | "counts" -> Some V_counts
  | "analytics" -> Some V_analytics
  | _ -> None

type view_req = {
  action : view_action;
  view_name : string option;
  word : string list option;
  view_query : string option;
  measure : string option;
  top : int option;
}

type verb =
  | Query
  | Count
  | Lint
  | Stats
  | Ping
  | Shutdown
  | Health
  | Sub
  | Views of view_req

let verb_name = function
  | Query -> "query"
  | Count -> "count"
  | Lint -> "lint"
  | Stats -> "stats"
  | Ping -> "ping"
  | Shutdown -> "shutdown"
  | Health -> "health"
  | Sub -> "sub"
  | Views _ -> "views"

let verb_of_name = function
  | "query" -> Some Query
  | "count" -> Some Count
  | "lint" -> Some Lint
  | "stats" -> Some Stats
  | "ping" -> Some Ping
  | "shutdown" -> Some Shutdown
  | "health" -> Some Health
  | "sub" -> Some Sub
  | _ -> None

type options = {
  strategy : Plan.strategy option;
  limit : int option;
  max_length : int option;
  simple : bool;
  deadline_ms : float option;
  fuel : int option;
  max_paths : int option;
  min_seq : int option;
  max_staleness_ms : float option;
  from_seq : int option;
  epoch : int option;
}

let default_options =
  {
    strategy = None;
    limit = None;
    max_length = None;
    simple = false;
    deadline_ms = None;
    fuel = None;
    max_paths = None;
    min_seq = None;
    max_staleness_ms = None;
    from_seq = None;
    epoch = None;
  }

type request = {
  id : Json.t;
  verb : verb;
  query : string option;
  options : options;
}

(* Each option field is either absent (keep the default) or must have the
   right type — a mistyped option is a hard error, not a silent default,
   so a client that misspells nothing but mistypes something finds out. *)
let decode_options json =
  let ( let* ) = Result.bind in
  let field name project wrap acc =
    match Json.member name json with
    | None -> Ok acc
    | Some v -> (
      match project v with
      | Some x -> Ok (wrap acc x)
      | None -> Error (Printf.sprintf "option %S is malformed" name))
  in
  let pos_int name project wrap acc =
    field name
      (fun v ->
        match project v with Some x when x >= 0 -> Some x | _ -> None)
      wrap acc
  in
  let* o =
    field "strategy"
      (fun v ->
        Option.bind (Json.to_string_opt v) Plan.strategy_of_string)
      (fun o s -> { o with strategy = Some s })
      default_options
  in
  let* o = pos_int "limit" Json.to_int_opt (fun o v -> { o with limit = Some v }) o in
  let* o =
    pos_int "max_length" Json.to_int_opt
      (fun o v -> { o with max_length = Some v })
      o
  in
  let* o = field "simple" Json.to_bool_opt (fun o v -> { o with simple = v }) o in
  let* o =
    field "deadline_ms"
      (fun v ->
        match Json.to_float_opt v with
        | Some f when f >= 0.0 -> Some f
        | _ -> None)
      (fun o v -> { o with deadline_ms = Some v })
      o
  in
  let* o = pos_int "fuel" Json.to_int_opt (fun o v -> { o with fuel = Some v }) o in
  let* o =
    pos_int "max_paths" Json.to_int_opt
      (fun o v -> { o with max_paths = Some v })
      o
  in
  let* o =
    pos_int "min_seq" Json.to_int_opt (fun o v -> { o with min_seq = Some v }) o
  in
  let* o =
    field "max_staleness_ms"
      (fun v ->
        match Json.to_float_opt v with
        | Some f when f >= 0.0 -> Some f
        | _ -> None)
      (fun o v -> { o with max_staleness_ms = Some v })
      o
  in
  let* o =
    pos_int "from_seq" Json.to_int_opt (fun o v -> { o with from_seq = Some v }) o
  in
  let* o =
    pos_int "epoch" Json.to_int_opt (fun o v -> { o with epoch = Some v }) o
  in
  Ok o

(* The "view" object of a views request. The word may be a JSON array of
   label names or the "a.b.c" shorthand; both normalise to the list. *)
let decode_view json =
  let ( let* ) = Result.bind in
  let str name =
    match Json.member name json with
    | None -> Ok None
    | Some v -> (
      match Json.to_string_opt v with
      | Some s when s <> "" -> Ok (Some s)
      | _ -> Error (Printf.sprintf "view field %S must be a non-empty string" name))
  in
  let* action =
    match Json.member "action" json with
    | Some (Json.String name) -> (
      match view_action_of_name name with
      | Some a -> Ok a
      | None -> Error (Printf.sprintf "unknown view action %S" name))
    | _ -> Error "a views request needs a view \"action\" string"
  in
  let* view_name = str "name" in
  let* word =
    match Json.member "word" json with
    | None -> Ok None
    | Some (Json.String s) ->
      Ok (Some (String.split_on_char '.' s |> List.filter (fun l -> l <> "")))
    | Some (Json.List items) ->
      let rec go acc = function
        | [] -> Ok (Some (List.rev acc))
        | Json.String s :: rest when s <> "" -> go (s :: acc) rest
        | _ -> Error "view \"word\" must be a list of non-empty label names"
      in
      go [] items
    | Some _ -> Error "view \"word\" must be a list or an \"a.b.c\" string"
  in
  let* view_query = str "query" in
  let* measure = str "measure" in
  let* top =
    match Json.member "top" json with
    | None -> Ok None
    | Some v -> (
      match Json.to_int_opt v with
      | Some k when k > 0 -> Ok (Some k)
      | _ -> Error "view \"top\" must be a positive integer")
  in
  let* () =
    match action with
    | V_register -> (
      match (view_name, word, view_query) with
      | None, _, _ -> Error "view action \"register\" needs a \"name\""
      | Some _, Some _, Some _ ->
        Error "view registration takes a \"word\" or a \"query\", not both"
      | Some _, None, None ->
        Error "view registration needs a \"word\" or a \"query\""
      | Some _, _, _ -> Ok ())
    | V_drop | V_edges | V_counts | V_analytics ->
      if view_name = None then
        Error
          (Printf.sprintf "view action %S needs a \"name\""
             (view_action_name action))
      else Ok ()
    | V_list -> Ok ()
  in
  Ok { action; view_name; word; view_query; measure; top }

let decode_request line =
  let ( let* ) = Result.bind in
  let* json =
    Result.map_error (fun m -> "bad JSON: " ^ m) (Json.parse line)
  in
  let* () =
    match Json.member "mrpa" json with
    | Some (Json.String v) when v = version -> Ok ()
    | Some (Json.String v) ->
      Error (Printf.sprintf "unsupported protocol version %S (want %S)" v version)
    | _ -> Error (Printf.sprintf "missing %S version field" "mrpa")
  in
  let id = Option.value ~default:Json.Null (Json.member "id" json) in
  let* verb =
    match Json.member "verb" json with
    | Some (Json.String "views") -> (
      match Json.member "view" json with
      | Some (Json.Obj _ as v) -> Result.map (fun vr -> Views vr) (decode_view v)
      | Some _ -> Error "\"view\" must be an object"
      | None -> Error "verb \"views\" requires a \"view\" object")
    | Some (Json.String name) -> (
      match verb_of_name name with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "unknown verb %S" name))
    | _ -> Error "missing \"verb\" field"
  in
  let query = Option.bind (Json.member "query" json) Json.to_string_opt in
  let* () =
    match (verb, query) with
    | (Query | Count | Lint), None ->
      Error (Printf.sprintf "verb %S requires a \"query\" field" (verb_name verb))
    | _ -> Ok ()
  in
  let* options =
    match Json.member "options" json with
    | None -> Ok default_options
    | Some (Json.Obj _ as o) -> decode_options o
    | Some _ -> Error "\"options\" must be an object"
  in
  Ok { id; verb; query; options }

let encode_request r =
  let opt name render = function
    | None -> []
    | Some v -> [ (name, render v) ]
  in
  let option_fields =
    opt "strategy"
      (fun s -> Json.String (Plan.strategy_name s))
      r.options.strategy
    @ opt "limit" (fun v -> Json.Number (float_of_int v)) r.options.limit
    @ opt "max_length"
        (fun v -> Json.Number (float_of_int v))
        r.options.max_length
    @ (if r.options.simple then [ ("simple", Json.Bool true) ] else [])
    @ opt "deadline_ms" (fun v -> Json.Number v) r.options.deadline_ms
    @ opt "fuel" (fun v -> Json.Number (float_of_int v)) r.options.fuel
    @ opt "max_paths" (fun v -> Json.Number (float_of_int v)) r.options.max_paths
    @ opt "min_seq" (fun v -> Json.Number (float_of_int v)) r.options.min_seq
    @ opt "max_staleness_ms" (fun v -> Json.Number v) r.options.max_staleness_ms
    @ opt "from_seq" (fun v -> Json.Number (float_of_int v)) r.options.from_seq
    @ opt "epoch" (fun v -> Json.Number (float_of_int v)) r.options.epoch
  in
  let view_fields =
    match r.verb with
    | Views v ->
      let fields =
        [ ("action", Json.String (view_action_name v.action)) ]
        @ opt "name" (fun s -> Json.String s) v.view_name
        @ opt "word"
            (fun w -> Json.List (List.map (fun l -> Json.String l) w))
            v.word
        @ opt "query" (fun s -> Json.String s) v.view_query
        @ opt "measure" (fun s -> Json.String s) v.measure
        @ opt "top" (fun k -> Json.Number (float_of_int k)) v.top
      in
      [ ("view", Json.Obj fields) ]
    | Query | Count | Lint | Stats | Ping | Shutdown | Health | Sub -> []
  in
  Json.to_string
    (Json.Obj
       ([ ("mrpa", Json.String version) ]
       @ (match r.id with Json.Null -> [] | id -> [ ("id", id) ])
       @ [ ("verb", Json.String (verb_name r.verb)) ]
       @ view_fields
       @ (match r.query with None -> [] | Some q -> [ ("query", Json.String q) ])
       @
       match option_fields with
       | [] -> []
       | fields -> [ ("options", Json.Obj fields) ]))

(* --- Limits and clamping ----------------------------------------------- *)

type limits = {
  max_deadline_ms : float option;
  max_fuel : int option;
  max_live_paths : int option;
  max_limit : int option;
  max_length_cap : int;
  min_staleness_ms : float option;
}

let default_limits =
  {
    max_deadline_ms = None;
    max_fuel = None;
    max_live_paths = None;
    max_limit = None;
    max_length_cap = 16;
    min_staleness_ms = None;
  }

(* The server's ceiling always applies: an unset request inherits it, a set
   request is capped by it. *)
let cap_by le cap requested =
  match (cap, requested) with
  | None, r -> r
  | Some c, None -> Some c
  | Some c, Some r -> Some (if le r c then r else c)

let clamp limits o =
  {
    o with
    deadline_ms = cap_by ( <= ) limits.max_deadline_ms o.deadline_ms;
    fuel = cap_by ( <= ) limits.max_fuel o.fuel;
    max_paths = cap_by ( <= ) limits.max_live_paths o.max_paths;
    limit = cap_by ( <= ) limits.max_limit o.limit;
    max_length =
      Some
        (match o.max_length with
        | None -> min Engine.default_max_length limits.max_length_cap
        | Some m -> min m limits.max_length_cap);
    (* Staleness is the one knob clamped from below: asking for data
       fresher than the server is willing to promise gets the server's
       floor, not an error. An unset request stays unset — the client did
       not opt into bounded staleness. *)
    max_staleness_ms =
      (match (o.max_staleness_ms, limits.min_staleness_ms) with
      | None, _ -> None
      | Some r, None -> Some r
      | Some r, Some floor -> Some (Float.max r floor));
  }

(* A count returns no paths, so the returned-paths ceiling binds it only
   when the client asked for a limit itself: a plain count keeps the
   Counting DP whatever [max_limit] says. *)
let clamp_request limits (req : request) =
  let o = clamp limits req.options in
  match req.verb with
  | Count when req.options.limit = None -> { o with limit = None }
  | _ -> o

let budget_of_options o =
  Budget.create ?deadline_ms:o.deadline_ms ?fuel:o.fuel ?max_live:o.max_paths ()

(* --- Responses --------------------------------------------------------- *)

type error_code =
  | Bad_request
  | Query_error
  | Overloaded
  | Shutting_down
  | Internal
  | Request_too_large
  | Idle_timeout
  | Infeasible
  | Unauthorized
  | Stale
  | Unknown_view

let error_code_name = function
  | Bad_request -> "bad_request"
  | Query_error -> "query_error"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"
  | Request_too_large -> "request_too_large"
  | Idle_timeout -> "idle_timeout"
  | Infeasible -> "infeasible"
  | Unauthorized -> "unauthorized"
  | Stale -> "stale"
  | Unknown_view -> "unknown_view"

let esc = Metrics.escape_string

let envelope ~id ~ok fields =
  Render.obj
    ([ ("mrpa", esc version); ("id", Json.to_string id);
       ("ok", if ok then "true" else "false") ]
    @ fields)

let response_ok ~id fields = envelope ~id ~ok:true fields

let response_error ~id ~code message =
  envelope ~id ~ok:false
    [
      ( "error",
        Render.obj
          [ ("code", esc (error_code_name code)); ("message", esc message) ] );
    ]
