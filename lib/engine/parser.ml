open Mrpa_graph
open Mrpa_core

type error = { message : string; position : int }

exception Parse_failure of error

let fail pos fmt =
  Format.kasprintf (fun message -> raise (Parse_failure { message; position = pos })) fmt

type name = { text : string; pos : int }
type position = Any | Only of name list | Except of name list

type atom =
  | Pattern of { src : position; lbl : position; dst : position }
  | Edges of (name * name * name) list

type tree = atom Spanned.tree
type query = { lets : tree list; body : tree }

type state = {
  tokens : Lexer.located array;
  mutable cursor : int;
  mutable macros : (string * tree) list;
  mutable lets : tree list;  (* macro bodies, most recent first *)
}

let peek st = st.tokens.(st.cursor)
let advance st = st.cursor <- st.cursor + 1

(* Start offset of the upcoming token / end offset of the last consumed
   token: every production wraps its result in the span they delimit. *)
let tok_start st = (peek st).Lexer.pos
let prev_stop st = st.tokens.(st.cursor - 1).Lexer.stop
let span_from st start = Span.make ~start ~stop:(prev_stop st)

let expect st token what =
  let { Lexer.token = t; pos; _ } = peek st in
  if t = token then advance st else fail pos "expected %s" what

let name_of_token st =
  let { Lexer.token; pos; _ } = peek st in
  match token with
  | Lexer.IDENT text ->
    advance st;
    { text; pos }
  | Lexer.INT i ->
    advance st;
    { text = string_of_int i; pos }
  | _ -> fail pos "expected a name"

(* names ::= name | '{' name (',' name)* '}' *)
let parse_names st =
  match (peek st).Lexer.token with
  | Lexer.LBRACE ->
    advance st;
    let rec more acc =
      let x = name_of_token st in
      match (peek st).Lexer.token with
      | Lexer.COMMA ->
        advance st;
        more (x :: acc)
      | _ ->
        expect st Lexer.RBRACE "'}'";
        List.rev (x :: acc)
    in
    more []
  | _ -> [ name_of_token st ]

(* vpos / lpos ::= '_' | names | '!' names *)
let parse_position st =
  match (peek st).Lexer.token with
  | Lexer.UNDERSCORE ->
    advance st;
    Any
  | Lexer.BANG ->
    advance st;
    Except (parse_names st)
  | _ -> Only (parse_names st)

let parse_selector st =
  expect st Lexer.LBRACKET "'['";
  let src = parse_position st in
  expect st Lexer.COMMA "','";
  let lbl = parse_position st in
  expect st Lexer.COMMA "','";
  let dst = parse_position st in
  expect st Lexer.RBRACKET "']'";
  Pattern { src; lbl; dst }

let parse_triple st =
  expect st Lexer.LPAREN "'('";
  let tail = name_of_token st in
  expect st Lexer.COMMA "','";
  let label = name_of_token st in
  expect st Lexer.COMMA "','";
  let head = name_of_token st in
  expect st Lexer.RPAREN "')'";
  (tail, label, head)

let parse_edge_set st =
  expect st Lexer.LBRACE "'{'";
  let rec more acc =
    let e = parse_triple st in
    match (peek st).Lexer.token with
    | Lexer.SEMI ->
      advance st;
      more (e :: acc)
    | _ ->
      expect st Lexer.RBRACE "'}'";
      List.rev (e :: acc)
  in
  Edges (more [])

let rec parse_expr st =
  let start = tok_start st in
  let left = parse_cat st in
  match (peek st).Lexer.token with
  | Lexer.PIPE ->
    advance st;
    let right = parse_expr st in
    Spanned.mk (span_from st start) (Spanned.Union (left, right))
  | _ -> left

and parse_cat st =
  let start = tok_start st in
  let rec loop left =
    match (peek st).Lexer.token with
    | Lexer.DOT ->
      advance st;
      let right = parse_postfix st in
      loop (Spanned.mk (span_from st start) (Spanned.Join (left, right)))
    | Lexer.CROSS ->
      advance st;
      let right = parse_postfix st in
      loop (Spanned.mk (span_from st start) (Spanned.Product (left, right)))
    | _ -> left
  in
  loop (parse_postfix st)

and parse_postfix st =
  let start = tok_start st in
  let rec loop e =
    match (peek st).Lexer.token with
    | Lexer.STAR ->
      advance st;
      loop (Spanned.mk (span_from st start) (Spanned.Star e))
    | Lexer.PLUS ->
      advance st;
      loop (Spanned.plus ~span:(span_from st start) e)
    | Lexer.QUESTION ->
      advance st;
      loop (Spanned.opt ~span:(span_from st start) e)
    | Lexer.LBRACE -> (
      (* '{' here is a repetition only when followed by an INT; otherwise it
         belongs to a following atom and must not be consumed. *)
      match st.tokens.(st.cursor + 1).Lexer.token with
      | Lexer.INT lo ->
        advance st;
        advance st;
        let e =
          match (peek st).Lexer.token with
          | Lexer.COMMA ->
            advance st;
            let { Lexer.token; pos; _ } = peek st in
            (match token with
            | Lexer.INT hi ->
              if hi < lo then
                fail pos "upper repetition bound %d is below the lower bound %d"
                  hi lo;
              advance st;
              expect st Lexer.RBRACE "'}'";
              Spanned.repeat_range ~span:(span_from st start) e ~min:lo ~max:hi
            | _ -> fail pos "expected an upper repetition bound")
          | _ ->
            expect st Lexer.RBRACE "'}'";
            Spanned.repeat ~span:(span_from st start) e lo
        in
        loop e
      | _ -> e)
    | _ -> e
  in
  loop (parse_atom st)

and parse_atom st =
  let { Lexer.token; pos; _ } = peek st in
  match token with
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.RPAREN "')'";
    (* the parenthesised expression covers the parentheses *)
    Spanned.with_span (span_from st pos) e
  | Lexer.IDENT "eps" ->
    advance st;
    Spanned.mk (span_from st pos) Spanned.Epsilon
  | Lexer.IDENT "empty" ->
    advance st;
    Spanned.mk (span_from st pos) Spanned.Empty
  | Lexer.IDENT "E" ->
    advance st;
    Spanned.mk (span_from st pos)
      (Spanned.Sel (Pattern { src = Any; lbl = Any; dst = Any }))
  | Lexer.IDENT (("let" | "in") as kw) -> fail pos "reserved word %S" kw
  | Lexer.IDENT name -> (
    match List.assoc_opt name st.macros with
    | Some e ->
      advance st;
      (* the root of the expansion points at the use site; inner nodes keep
         their definition-site spans (both live in the same source) *)
      Spanned.with_span (span_from st pos) e
    | None -> fail pos "unknown macro %S" name)
  | Lexer.LBRACKET ->
    let s = parse_selector st in
    Spanned.mk (span_from st pos) (Spanned.Sel s)
  | Lexer.LBRACE ->
    let s = parse_edge_set st in
    Spanned.mk (span_from st pos) (Spanned.Sel s)
  | _ -> fail pos "expected an expression"

(* query ::= ('let' name '=' expr 'in')* expr *)
let rec parse_query st =
  match (peek st).Lexer.token with
  | Lexer.IDENT "let" ->
    advance st;
    let { text = name; pos } = name_of_token st in
    if name = "let" || name = "in" then fail pos "reserved word %S" name;
    expect st Lexer.EQUAL "'='";
    let body = parse_expr st in
    let { Lexer.token; pos; _ } = peek st in
    (match token with
    | Lexer.IDENT "in" -> advance st
    | _ -> fail pos "expected 'in'");
    st.macros <- (name, body) :: st.macros;
    st.lets <- body :: st.lets;
    parse_query st
  | _ -> parse_expr st

(* Run [production] over the whole of [input]: lexing, the production
   itself, and the check that nothing trails it. *)
let run_syntax production input =
  match Lexer.tokenize input with
  | exception Lexer.Lex_error (message, position) -> Error { message; position }
  | tokens -> (
    let st =
      { tokens = Array.of_list tokens; cursor = 0; macros = []; lets = [] }
    in
    match production st with
    | exception Parse_failure e -> Error e
    | result ->
      let { Lexer.token; pos; _ } = peek st in
      if token = Lexer.EOF then Ok result
      else Error { message = "trailing input"; position = pos })

let syntax input =
  run_syntax
    (fun st ->
      let body = parse_query st in
      { lets = List.rev st.lets; body })
    input

(* --- Resolution: names against one graph --------------------------------- *)

let resolve_vertex g { text; pos } =
  match Digraph.find_vertex g text with
  | Some v -> v
  | None -> fail pos "unknown vertex %S" text

let resolve_label g { text; pos } =
  match Digraph.find_label g text with
  | Some l -> l
  | None -> fail pos "unknown label %S" text

let vertex_position g = function
  | Any -> None
  | Only ns -> Some (Vertex.Set.of_list (List.map (resolve_vertex g) ns))
  | Except ns ->
    let vs = Vertex.Set.of_list (List.map (resolve_vertex g) ns) in
    Some (Vertex.Set.diff (Vertex.Set.of_list (Digraph.vertices g)) vs)

let label_position g = function
  | Any -> None
  | Only ns -> Some (Label.Set.of_list (List.map (resolve_label g) ns))
  | Except ns ->
    let ls = Label.Set.of_list (List.map (resolve_label g) ns) in
    Some (Label.Set.diff (Label.Set.of_list (Digraph.labels g)) ls)

(* Names resolve left to right, so the first unknown one is reported. *)
let resolve_atom g = function
  | Pattern { src; lbl; dst } ->
    let src = vertex_position g src in
    let lbl = label_position g lbl in
    let dst = vertex_position g dst in
    Selector.pattern ?src ?lbl ?dst ()
  | Edges triples ->
    Selector.edges
      (List.fold_left
         (fun acc (t, l, h) ->
           let tail = resolve_vertex g t in
           let label = resolve_label g l in
           let head = resolve_vertex g h in
           Edge.Set.add (Edge.make ~tail ~label ~head) acc)
         Edge.Set.empty triples)

let resolve_tree g tree = Spanned.map_sel (resolve_atom g) tree

(* Every [let] body is checked, used or not, before the expression: a typo
   in a definition is reported where it was written. *)
let resolve g { lets; body } =
  match
    List.iter (fun t -> ignore (resolve_tree g t)) lets;
    resolve_tree g body
  with
  | exception Parse_failure e -> Error e
  | spanned -> Ok spanned

let parse_spanned graph input = Result.bind (syntax input) (resolve graph)

let parse graph input = Result.map Spanned.strip (parse_spanned graph input)

(* CRPQ concrete syntax: select vars where (var, expr, var), ... *)
let parse_variable st =
  let { Lexer.token; pos; _ } = peek st in
  match token with
  | Lexer.IDENT name when name <> "select" && name <> "where" ->
    advance st;
    name
  | _ -> fail pos "expected a variable name"

let expect_keyword st kw =
  let { Lexer.token; pos; _ } = peek st in
  match token with
  | Lexer.IDENT name when name = kw -> advance st
  | _ -> fail pos "expected %S" kw

let parse_crpq_atom st =
  expect st Lexer.LPAREN "'('";
  let source = parse_variable st in
  expect st Lexer.COMMA "','";
  let expr = parse_expr st in
  expect st Lexer.COMMA "','";
  let target = parse_variable st in
  expect st Lexer.RPAREN "')'";
  (source, expr, target)

let parse_crpq_body st =
  expect_keyword st "select";
  let rec vars acc =
    let v = parse_variable st in
    match (peek st).Lexer.token with
    | Lexer.COMMA ->
      advance st;
      vars (v :: acc)
    | _ -> List.rev (v :: acc)
  in
  let head = vars [] in
  expect_keyword st "where";
  let rec atoms acc =
    let a = parse_crpq_atom st in
    match (peek st).Lexer.token with
    | Lexer.COMMA ->
      advance st;
      atoms (a :: acc)
    | _ -> List.rev (a :: acc)
  in
  (head, atoms [])

let parse_crpq_raw graph input =
  match run_syntax parse_crpq_body input with
  | Error _ as e -> e
  | Ok (head, atoms) -> (
    match
      List.map
        (fun (src, tree, dst) ->
          (src, Spanned.strip (resolve_tree graph tree), dst))
        atoms
    with
    | exception Parse_failure e -> Error e
    | atoms -> Ok (head, atoms))

let pp_error fmt e =
  Format.fprintf fmt "parse error at offset %d: %s" e.position e.message

let render_error ~source e =
  let span = Span.point e.position in
  match Mrpa_lint.Diagnostic.excerpt ~source span with
  | None -> Format.asprintf "%a" pp_error e
  | Some excerpt -> Format.asprintf "%a@\n%s" pp_error e excerpt

let parse_exn graph input =
  match parse graph input with
  | Ok e -> e
  | Error e -> Format.kasprintf failwith "%a" pp_error e
