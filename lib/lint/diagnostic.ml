open Mrpa_core

type severity = Hint | Warning | Error

type t = { code : string; severity : severity; span : Span.t; message : string }

let make ?(span = Span.dummy) ~code ~severity message =
  { code; severity; span; message }

let severity_label = function
  | Hint -> "hint"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Hint -> 0 | Warning -> 1 | Error -> 2

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let count severity ds = List.length (List.filter (fun d -> d.severity = severity) ds)

(* Source order, then severity (most severe first), then code: reads like a
   compiler's output when printed. *)
let compare a b =
  let c = Span.compare a.span b.span in
  if c <> 0 then c
  else
    let c = Int.compare (severity_rank b.severity) (severity_rank a.severity) in
    if c <> 0 then c
    else
      let c = String.compare a.code b.code in
      if c <> 0 then c else String.compare a.message b.message

let pp fmt d =
  if Span.is_dummy d.span then
    Format.fprintf fmt "%s[%s]: %s" (severity_label d.severity) d.code d.message
  else
    Format.fprintf fmt "%s[%s] at %a: %s" (severity_label d.severity) d.code
      Span.pp d.span d.message

let excerpt ~source (span : Span.t) =
  if Span.is_dummy span then None
  else begin
    let n = String.length source in
    let start = min (max span.start 0) n in
    let stop = min (max span.stop start) n in
    (* the line containing [start] *)
    let rec back i = if i <= 0 then 0 else if source.[i - 1] = '\n' then i else back (i - 1) in
    let rec fwd i = if i >= n || source.[i] = '\n' then i else fwd (i + 1) in
    let line_start = back start in
    let line_end = fwd start in
    let line = String.sub source line_start (line_end - line_start) in
    let col = start - line_start in
    (* clip the caret run to the line; a caret one past the end marks
       errors at end of input *)
    let width = max 1 (min stop line_end - start) in
    Some
      (Printf.sprintf "  %s\n  %s%s" line (String.make col ' ')
         (String.make width '^'))
  end

let render ~source d =
  let header = Format.asprintf "%a" pp d in
  match excerpt ~source d.span with
  | None -> header
  | Some e -> header ^ "\n" ^ e

let summary ds =
  let part severity =
    match count severity ds with
    | 0 -> []
    | n -> [ Printf.sprintf "%d %s(s)" n (severity_label severity) ]
  in
  match ds with
  | [] -> "no findings"
  | _ ->
    Printf.sprintf "%d finding(s): %s" (List.length ds)
      (String.concat ", " (part Error @ part Warning @ part Hint))
