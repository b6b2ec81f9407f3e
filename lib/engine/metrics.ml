(* Monotonic clock: CLOCK_MONOTONIC via the bechamel stub, immune to NTP
   slews and wall-clock steps (the whole point of this module). *)
let now_ns = Monotonic_clock.now

let elapsed_ns ~since = Int64.sub (now_ns ()) since
let ns_to_ms ns = Int64.to_float ns /. 1e6

type t = {
  mutable stage_order : string list;  (* reversed insertion order *)
  stage_ns : (string, int64) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
}

let create () =
  { stage_order = []; stage_ns = Hashtbl.create 8; counters = Hashtbl.create 16 }

let add_stage_ns t name ns =
  if not (Hashtbl.mem t.stage_ns name) then
    t.stage_order <- name :: t.stage_order;
  let prior = Option.value ~default:0L (Hashtbl.find_opt t.stage_ns name) in
  Hashtbl.replace t.stage_ns name (Int64.add prior (Int64.max 0L ns))

let time t name f =
  let t0 = now_ns () in
  Fun.protect ~finally:(fun () -> add_stage_ns t name (elapsed_ns ~since:t0)) f

let stage_ns t name = Hashtbl.find_opt t.stage_ns name

let stages t =
  List.rev_map (fun name -> (name, Hashtbl.find t.stage_ns name)) t.stage_order

let incr ?(by = 1) t name =
  let prior = Option.value ~default:0 (Hashtbl.find_opt t.counters name) in
  Hashtbl.replace t.counters name (prior + by)

let set t name v = Hashtbl.replace t.counters name v

let set_max t name v =
  let prior = Option.value ~default:min_int (Hashtbl.find_opt t.counters name) in
  Hashtbl.replace t.counters name (max prior v)

let counter t name = Hashtbl.find_opt t.counters name

let counters t =
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp fmt t =
  Format.fprintf fmt "@[<v>profile:";
  List.iter
    (fun (name, ns) ->
      Format.fprintf fmt "@,  %-10s %8.3f ms" (name ^ ":") (ns_to_ms ns))
    (stages t);
  (match counters t with
  | [] -> ()
  | cs ->
    Format.fprintf fmt "@,counters:";
    List.iter
      (fun (name, v) -> Format.fprintf fmt "@,  %-26s %d" name v)
      cs);
  Format.fprintf fmt "@]"

let escape_string s =
  Outbuf.to_string ~size:(String.length s + 2) (fun b ->
      Outbuf.add_json_string b s)

let schema_version = "mrpa.profile/1"

let to_json t =
  let stage (name, ns) =
    Printf.sprintf "{\"stage\":%s,\"ns\":%Ld}" (escape_string name) ns
  in
  let counter (name, v) = Printf.sprintf "%s:%d" (escape_string name) v in
  Printf.sprintf "{\"schema\":%s,\"stages\":[%s],\"counters\":{%s}}"
    (escape_string schema_version)
    (String.concat "," (List.map stage (stages t)))
    (String.concat "," (List.map counter (counters t)))
