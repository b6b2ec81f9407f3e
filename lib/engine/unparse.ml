open Mrpa_graph
open Mrpa_core

(* Bare iff it lexes back as one IDENT: letters, digits and underscores
   with a non-digit start, and not the wildcard. Digit-led names are
   quoted, since they would lex as INT and lose leading zeros. Quoting
   always re-lexes to the same IDENT because the lexer's strings have no
   escapes, so a name holding both quote characters has no spelling. *)
let is_bare s =
  s <> ""
  && s <> "_"
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let quote s =
  if is_bare s then Some s
  else if not (String.contains s '\'') then Some ("'" ^ s ^ "'")
  else if not (String.contains s '"') then Some ("\"" ^ s ^ "\"")
  else None

let name s = match quote s with Some q -> q | None -> "\"" ^ s ^ "\""

let vertex_name g v = name (Digraph.vertex_name g v)
let label_name g l = name (Digraph.label_name g l)

let position render = function
  | None -> "_"
  | Some [ x ] -> render x
  | Some xs -> "{" ^ String.concat "," (List.map render xs) ^ "}"

let triple a b c = Printf.sprintf "(%s,%s,%s)" a b c

let edge_triple g e =
  triple (vertex_name g (Edge.tail e))
    (label_name g (Edge.label e))
    (vertex_name g (Edge.head e))

let edge_set triples = "{" ^ String.concat "; " triples ^ "}"
let explicit g es = edge_set (List.map (edge_triple g) (Edge.Set.elements es))

(* Selector forms the grammar cannot spell are flattened to their explicit
   edge set over the graph; empty extents have no selector syntax and are
   handled at the expression level (-> "empty"). *)
let selector g s =
  match s with
  | Selector.Pattern { src = None; lbl = None; dst = None } -> "E"
  | Selector.Pattern { src; lbl; dst } ->
    Printf.sprintf "[%s,%s,%s]"
      (position (vertex_name g) (Option.map Vertex.Set.elements src))
      (position (label_name g) (Option.map Label.Set.elements lbl))
      (position (vertex_name g) (Option.map Vertex.Set.elements dst))
  | Selector.Explicit es when not (Edge.Set.is_empty es) -> explicit g es
  | Selector.Explicit _ | Selector.Union _ | Selector.Inter _ | Selector.Diff _
    ->
    explicit g (Selector.enumerate_set g s)

let rec expr g (e : Expr.t) =
  match e with
  | Empty -> "empty"
  | Epsilon -> "eps"
  | Sel s -> (
    match s with
    | Selector.Pattern { src; lbl; dst }
      when (match src with Some vs -> Vertex.Set.is_empty vs | None -> false)
           || (match lbl with Some ls -> Label.Set.is_empty ls | None -> false)
           || (match dst with Some vs -> Vertex.Set.is_empty vs | None -> false)
      ->
      (* an empty position set matches nothing and has no selector syntax *)
      "empty"
    | Selector.Pattern _ -> selector g s
    | Selector.Explicit es ->
      if Edge.Set.is_empty es then "empty" else explicit g es
    | Selector.Union _ | Selector.Inter _ | Selector.Diff _ ->
      let extent = Selector.enumerate_set g s in
      if Edge.Set.is_empty extent then "empty" else explicit g extent)
  | Union (a, b) -> Printf.sprintf "(%s | %s)" (expr g a) (expr g b)
  | Join (a, b) -> Printf.sprintf "(%s . %s)" (expr g a) (expr g b)
  | Product (a, b) -> Printf.sprintf "(%s >< %s)" (expr g a) (expr g b)
  | Star a -> (
    match a with
    | Empty | Epsilon | Sel (Selector.Pattern _) -> expr g a ^ "*"
    | _ -> Printf.sprintf "(%s)*" (expr g a))

(* --- Name-level atoms ---------------------------------------------------- *)

let rec all_some = function
  | [] -> Some []
  | None :: _ -> None
  | Some x :: rest -> Option.map (fun xs -> x :: xs) (all_some rest)

let quoted (n : Parser.name) = quote n.Parser.text

let names ns =
  Option.map
    (fun qs -> position Fun.id (Some qs))
    (all_some (List.map quoted ns))

let atom_position = function
  | Parser.Any -> Some "_"
  | Parser.Only ns -> names ns
  | Parser.Except ns -> Option.map (( ^ ) "!") (names ns)

let atom = function
  | Parser.Pattern { src = Any; lbl = Any; dst = Any } -> Some "E"
  | Parser.Pattern { src; lbl; dst } -> (
    match (atom_position src, atom_position lbl, atom_position dst) with
    | Some s, Some l, Some d -> Some (Printf.sprintf "[%s,%s,%s]" s l d)
    | _ -> None)
  | Parser.Edges triples ->
    Option.map edge_set
      (all_some
         (List.map
            (fun (t, l, h) ->
              match (quoted t, quoted l, quoted h) with
              | Some a, Some b, Some c -> Some (triple a b c)
              | _ -> None)
            triples))
