type token =
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | DOT
  | CROSS
  | PIPE
  | STAR
  | PLUS
  | QUESTION
  | BANG
  | UNDERSCORE
  | EQUAL
  | IDENT of string
  | INT of int
  | EOF

type located = { token : token; pos : int; stop : int }

exception Lex_error of string * int

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_letter c || is_digit c || c = '_'

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit pos stop token = tokens := { token; pos; stop } :: !tokens in
  let emit1 i token = emit i (i + 1) token in
  let rec scan i =
    if i >= n then emit i i EOF
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> scan (i + 1)
      | '[' -> emit1 i LBRACKET; scan (i + 1)
      | ']' -> emit1 i RBRACKET; scan (i + 1)
      | '{' -> emit1 i LBRACE; scan (i + 1)
      | '}' -> emit1 i RBRACE; scan (i + 1)
      | '(' -> emit1 i LPAREN; scan (i + 1)
      | ')' -> emit1 i RPAREN; scan (i + 1)
      | ',' -> emit1 i COMMA; scan (i + 1)
      | ';' -> emit1 i SEMI; scan (i + 1)
      | '.' -> emit1 i DOT; scan (i + 1)
      | '|' -> emit1 i PIPE; scan (i + 1)
      | '*' -> emit1 i STAR; scan (i + 1)
      | '+' -> emit1 i PLUS; scan (i + 1)
      | '?' -> emit1 i QUESTION; scan (i + 1)
      | '!' -> emit1 i BANG; scan (i + 1)
      | '=' -> emit1 i EQUAL; scan (i + 1)
      | '>' ->
        if i + 1 < n && input.[i + 1] = '<' then begin
          emit i (i + 2) CROSS;
          scan (i + 2)
        end
        else raise (Lex_error ("expected '><'", i))
      | ('"' | '\'') as quote ->
        let rec find_close j =
          if j >= n then raise (Lex_error ("unterminated string", i))
          else if input.[j] = quote then j
          else find_close (j + 1)
        in
        let close = find_close (i + 1) in
        emit i (close + 1) (IDENT (String.sub input (i + 1) (close - i - 1)));
        scan (close + 1)
      | c when is_digit c ->
        let rec stop j = if j < n && is_digit input.[j] then stop (j + 1) else j in
        let j = stop i in
        (match int_of_string_opt (String.sub input i (j - i)) with
        | Some v -> emit i j (INT v)
        | None -> raise (Lex_error ("integer literal out of range", i)));
        scan j
      | c when is_letter c || c = '_' ->
        let rec stop j =
          if j < n && is_ident_char input.[j] then stop (j + 1) else j
        in
        let j = stop i in
        let word = String.sub input i (j - i) in
        emit i j (if word = "_" then UNDERSCORE else IDENT word);
        scan j
      | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, i))
  in
  scan 0;
  List.rev !tokens

let pp_token fmt = function
  | LBRACKET -> Format.pp_print_string fmt "["
  | RBRACKET -> Format.pp_print_string fmt "]"
  | LBRACE -> Format.pp_print_string fmt "{"
  | RBRACE -> Format.pp_print_string fmt "}"
  | LPAREN -> Format.pp_print_string fmt "("
  | RPAREN -> Format.pp_print_string fmt ")"
  | COMMA -> Format.pp_print_string fmt ","
  | SEMI -> Format.pp_print_string fmt ";"
  | DOT -> Format.pp_print_string fmt "."
  | CROSS -> Format.pp_print_string fmt "><"
  | PIPE -> Format.pp_print_string fmt "|"
  | STAR -> Format.pp_print_string fmt "*"
  | PLUS -> Format.pp_print_string fmt "+"
  | QUESTION -> Format.pp_print_string fmt "?"
  | BANG -> Format.pp_print_string fmt "!"
  | UNDERSCORE -> Format.pp_print_string fmt "_"
  | EQUAL -> Format.pp_print_string fmt "="
  | IDENT s -> Format.fprintf fmt "%S" s
  | INT i -> Format.pp_print_int fmt i
  | EOF -> Format.pp_print_string fmt "<eof>"
