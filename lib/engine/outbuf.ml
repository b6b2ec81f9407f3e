type t = { mutable bytes : Bytes.t; mutable len : int; initial : int }

let create n =
  let n = max 16 n in
  { bytes = Bytes.create n; len = 0; initial = n }

let length b = b.len
let capacity b = Bytes.length b.bytes
let clear b = b.len <- 0

let reset b =
  b.len <- 0;
  if Bytes.length b.bytes <> b.initial then b.bytes <- Bytes.create b.initial

let truncate b n =
  if n < 0 || n > b.len then invalid_arg "Outbuf.truncate";
  b.len <- n

(* Double until [more] bytes fit, so a large response is copied a
   logarithmic number of times while it grows, and never again. *)
let grow b more =
  let need = b.len + more in
  let size = ref (Bytes.length b.bytes) in
  while !size < need do
    size := 2 * !size
  done;
  let bytes = Bytes.create !size in
  Bytes.blit b.bytes 0 bytes 0 b.len;
  b.bytes <- bytes

let add_char b c =
  if b.len >= Bytes.length b.bytes then grow b 1;
  Bytes.unsafe_set b.bytes b.len c;
  b.len <- b.len + 1

let add_string b s =
  let n = String.length s in
  if b.len + n > Bytes.length b.bytes then grow b n;
  Bytes.unsafe_blit_string s 0 b.bytes b.len n;
  b.len <- b.len + n

let add_int b n = add_string b (string_of_int n)

let escape_char = function
  | '"' -> Some "\\\""
  | '\\' -> Some "\\\\"
  | '\n' -> Some "\\n"
  | '\r' -> Some "\\r"
  | '\t' -> Some "\\t"
  | c when Char.code c < 0x20 -> Some (Printf.sprintf "\\u%04x" (Char.code c))
  | _ -> None

(* Names are almost always plain, so they are added whole. *)
let plain s =
  let rec go i =
    i >= String.length s
    || (let c = String.unsafe_get s i in
        c <> '"' && c <> '\\' && Char.code c >= 0x20 && go (i + 1))
  in
  go 0

let add_json_string b s =
  add_char b '"';
  if plain s then add_string b s
  else
    String.iter
      (fun c ->
        match escape_char c with None -> add_char b c | Some e -> add_string b e)
      s;
  add_char b '"'

let sub b pos len =
  if pos < 0 || len < 0 || pos + len > b.len then invalid_arg "Outbuf.sub";
  Bytes.sub_string b.bytes pos len

let contents b = Bytes.sub_string b.bytes 0 b.len

let to_string ?(size = 256) write =
  let b = create size in
  write b;
  contents b

let write_to b write =
  let rec go pos = if pos < b.len then go (pos + write b.bytes pos (b.len - pos)) in
  go 0
