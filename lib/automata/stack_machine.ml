open Mrpa_graph
open Mrpa_core

type trace_entry = { depth : int; state : int; stack_top : Path_set.t }

type stats = {
  mutable pops : int;
  mutable pushes : int;
  mutable levels : int;
  mutable max_live_branches : int;
  mutable peak_stack_paths : int;
  mutable peak_live_paths : int;
}

let fresh_stats () =
  {
    pops = 0;
    pushes = 0;
    levels = 0;
    max_live_branches = 0;
    peak_stack_paths = 0;
    peak_live_paths = 0;
  }

exception Limit_reached

let run_automaton ?trace ?stats ?(guard = Guard.none) ?(simple = false) ?limit
    g (a : Glushkov.t) ~max_length =
  if max_length < 0 then invalid_arg "Stack_machine.run: negative max_length";
  (match limit with
  | Some k when k < 0 -> invalid_arg "Stack_machine.run: negative limit"
  | _ -> ());
  if limit = Some 0 then Path_set.empty
  else begin
    let observe depth state stack_top =
      match trace with
      | None -> ()
      | Some f -> f { depth; state; stack_top }
    in
    let bump f = match stats with None -> () | Some s -> f s in
    (* Live-path count of the last completed level, reported to the guard at
       every transition so memory verdicts don't wait for a level boundary. *)
    let last_live = ref 1 in
    (* Edge sets denoted by each position's transition label, fetched once. *)
    let edge_paths =
      Array.init (a.n_positions + 1) (fun p ->
          if p = 0 then Path_set.empty
          else Path_set.of_edges (Selector.enumerate g a.selector_of.(p)))
    in
    let cap s = Path_set.filter (fun pa -> Path.length pa <= max_length) s in
    let keep s = if simple then Path_set.restrict_simple s else s in
    let collected = ref Path_set.empty in
    let n_collected = ref 0 in
    (* Accepted stack tops land here. With a limit, paths are added one at a
       time and the whole run aborts (Limit_reached) the moment the limit is
       met, so no further level is joined. *)
    let collect stack_top =
      match limit with
      | None -> collected := Path_set.union !collected (keep stack_top)
      | Some k ->
        Path_set.iter
          (fun p ->
            if !n_collected >= k then raise Limit_reached;
            if not (Path_set.mem p !collected) then begin
              collected := Path_set.add p !collected;
              incr n_collected
            end)
          (keep stack_top);
        if !n_collected >= k then raise Limit_reached
    in
    (* level : state -> stack top of the merged branch sitting at that state *)
    let initial_level = [ (0, Path_set.epsilon) ] in
    let step_level depth level =
      bump (fun s -> s.levels <- max s.levels depth);
      let next : (int, Path_set.t ref) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (state, stack_top) ->
          List.iter
            (fun (q, kind) ->
              (* The machine is set-at-a-time, so a flat per-transition cost
                 would undercount by the size of the sets flowing through:
                 charge the stack top about to be joined, which is the unit
                 the path-at-a-time backends charge one by one. *)
              guard.Guard.poll
                ~cost:(max 1 (Path_set.cardinal stack_top))
                ~live:!last_live;
              bump (fun s -> s.pops <- s.pops + 1);
              (* Pop, join with the transition label's path set, push. *)
              let joined =
                match kind with
                | Glushkov.Joint -> Path_set.join stack_top edge_paths.(q)
                | Glushkov.Free -> Path_set.product stack_top edge_paths.(q)
              in
              let joined = cap joined in
              if not (Path_set.is_empty joined) then begin
                bump (fun s ->
                    s.pushes <- s.pushes + 1;
                    s.peak_stack_paths <-
                      max s.peak_stack_paths (Path_set.cardinal joined));
                (* Short-circuit: under a limit, accepted paths are banked
                   per transition, before the rest of the level is joined. *)
                if limit <> None && Glushkov.final a q then collect joined;
                match Hashtbl.find_opt next q with
                | Some r -> r := Path_set.union !r joined
                | None -> Hashtbl.add next q (ref joined)
              end)
            (Glushkov.successors a state))
        level;
      let merged =
        Hashtbl.fold (fun q r acc -> (q, !r) :: acc) next []
        |> List.sort (fun (q1, _) (q2, _) -> Int.compare q1 q2)
      in
      let live =
        List.fold_left
          (fun acc (_, top) -> acc + Path_set.cardinal top)
          (Path_set.cardinal !collected)
          merged
      in
      last_live := live;
      bump (fun s ->
          s.max_live_branches <- max s.max_live_branches (List.length merged);
          s.peak_live_paths <- max s.peak_live_paths live);
      guard.Guard.poll ~cost:0 ~live;
      List.iter
        (fun (q, stack_top) ->
          observe depth q stack_top;
          if limit = None && Glushkov.final a q then collect stack_top)
        merged;
      merged
    in
    let rec loop depth level =
      if depth > max_length || level = [] then ()
      else loop (depth + 1) (step_level depth level)
    in
    (* Both stop conditions degrade the same way: the banked answers so far
       are a sound subset of the denotation, so return them. The budget
       layer upstream reads the abort reason off its own state. *)
    (try
       observe 0 0 Path_set.epsilon;
       if Glushkov.final a 0 then collect Path_set.epsilon;
       bump (fun s -> s.peak_live_paths <- max s.peak_live_paths 1);
       loop 1 initial_level
     with Limit_reached | Guard.Abort _ -> ());
    (* A limit can abort a level mid-sweep, between the per-transition
       banking and the per-level live accounting; the collected set is
       always live, so fold it in before reporting. *)
    bump (fun s ->
        s.peak_live_paths <-
          max s.peak_live_paths (Path_set.cardinal !collected));
    !collected
  end

let run ?trace ?stats ?guard ?simple ?limit g expr ~max_length =
  run_automaton ?trace ?stats ?guard ?simple ?limit g (Glushkov.build expr)
    ~max_length
