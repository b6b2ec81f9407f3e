(* Socket plumbing shared by {!Server}, {!Client} and {!Replication}'s
   follower loop. Pulled out of server.ml/client.ml so the two sides stop
   duplicating resolve/write loops and so process-wide setup (SIGPIPE) has
   exactly one owner. *)

(* A peer that disconnects mid-write must surface as EPIPE from the write
   call, not kill the process. Library setup, not [bin] setup: embedders
   and the replica's follower thread need it too. Lazy so it runs once, at
   first socket use, and never at module load of a program that does no
   networking. *)
let sigpipe =
  lazy
    (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
     with Invalid_argument _ | Sys_error _ -> ())

let ignore_sigpipe () = Lazy.force sigpipe

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
      failwith (Printf.sprintf "cannot resolve host %S" host)
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found ->
      failwith (Printf.sprintf "cannot resolve host %S" host))

(* Pipelined wire requests are small (tens of bytes) and latency-bound;
   Nagle's algorithm holds each one hostage to the previous ACK. Harmless
   no-op on Unix-domain sockets. *)
let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true
  with Unix.Unix_error _ | Invalid_argument _ -> ()

(* Open a connected stream socket; raises [Unix.Unix_error] (connect
   failures) or [Failure] (unresolvable host). *)
let connect_fd endpoint =
  ignore_sigpipe ();
  match endpoint with
  | Wire.Unix_socket path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  | Wire.Tcp (host, port) ->
    let addr = resolve host in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (addr, port));
       set_nodelay fd
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd

let write_all fd s =
  let len = String.length s in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write_substring fd s !written (len - !written)
  done
