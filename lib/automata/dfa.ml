open Mrpa_graph

(* Position-set transition on a quotient letter (signature mask, adjacency
   bit). [pos_sig.(q)] is the bit index of position [q]'s selector. *)
let step_mask (a : Glushkov.t) pos_sig config mask adj =
  let next = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun (q, kind) ->
          if
            (kind = Glushkov.Free || adj)
            && mask land (1 lsl pos_sig.(q)) <> 0
            && not (List.mem q !next)
          then next := q :: !next)
        (Glushkov.successors a p))
    config;
  List.sort Int.compare !next

let pos_signature_indices (a : Glushkov.t) alpha =
  Array.init (a.n_positions + 1) (fun p ->
      if p = 0 then 0 else Edge_signature.selector_index alpha a.selector_of.(p))

type t = {
  glushkov : Glushkov.t;
  alpha : Edge_signature.t;
  pos_sig : int array;
  masks : int array;
  mask_ids : (int, int) Hashtbl.t;
  trans : int array array; (* trans.(state).(mask_id * 2 + adj_bit) *)
  accept : bool array;
  members : int list array;
}

let create ?alpha g expr =
  let glushkov = Glushkov.build expr in
  let alpha =
    match alpha with Some a -> a | None -> Edge_signature.of_expr expr
  in
  let pos_sig = pos_signature_indices glushkov alpha in
  let masks = Array.of_list (Edge_signature.masks_of_graph alpha g) in
  let mask_ids = Hashtbl.create (Array.length masks) in
  Array.iteri (fun i m -> Hashtbl.add mask_ids m i) masks;
  let n_letters = 2 * Array.length masks in
  let state_ids : (int list, int) Hashtbl.t = Hashtbl.create 64 in
  let states = ref [] in
  let n_states = ref 0 in
  let pending = Queue.create () in
  let intern config =
    match Hashtbl.find_opt state_ids config with
    | Some id -> id
    | None ->
      let id = !n_states in
      incr n_states;
      Hashtbl.add state_ids config id;
      states := config :: !states;
      Queue.add (id, config) pending;
      id
  in
  let initial = intern [ 0 ] in
  assert (initial = 0);
  let trans_acc = ref [] in
  while not (Queue.is_empty pending) do
    let _, config = Queue.pop pending in
    let row = Array.make n_letters 0 in
    Array.iteri
      (fun mi mask ->
        let next_f = step_mask glushkov pos_sig config mask false in
        let next_t = step_mask glushkov pos_sig config mask true in
        row.(2 * mi) <- intern next_f;
        row.((2 * mi) + 1) <- intern next_t)
      masks;
    trans_acc := row :: !trans_acc
  done;
  let members = Array.of_list (List.rev !states) in
  (* trans rows were produced in discovery order *)
  let trans = Array.of_list (List.rev !trans_acc) in
  let accept = Array.map (Glushkov.accepting glushkov) members in
  { glushkov; alpha; pos_sig; masks; mask_ids; trans; accept; members }

let n_states t = Array.length t.trans
let n_letters t = 2 * Array.length t.masks

let accepts t path =
  let edges = Path.to_array path in
  let n = Array.length edges in
  (* Dynamic fallback: continue on raw position sets once a signature not in
     the construction alphabet is met. *)
  let rec run_dynamic config prev i =
    if config = [] then false
    else if i >= n then Glushkov.accepting t.glushkov config
    else
      let mask = Edge_signature.mask_of_edge t.alpha edges.(i) in
      let adj = match prev with None -> true | Some pe -> Edge.adjacent pe edges.(i) in
      run_dynamic (step_mask t.glushkov t.pos_sig config mask adj) (Some edges.(i)) (i + 1)
  in
  let rec run state prev i =
    if i >= n then t.accept.(state)
    else
      let mask = Edge_signature.mask_of_edge t.alpha edges.(i) in
      match Hashtbl.find_opt t.mask_ids mask with
      | None -> run_dynamic t.members.(state) prev i
      | Some mi ->
        let adj =
          match prev with None -> true | Some pe -> Edge.adjacent pe edges.(i)
        in
        let letter = (2 * mi) + if adj then 1 else 0 in
        run t.trans.(state).(letter) (Some edges.(i)) (i + 1)
  in
  run 0 None 0

(* Walk the synchronous product of the two DFAs (shared alphabet); [bad]
   decides which accept-flag combinations refute the relation under test. *)
let product_check ~bad g e1 e2 =
  let alpha =
    Edge_signature.of_selectors
      (Mrpa_core.Expr.selectors e1 @ Mrpa_core.Expr.selectors e2)
  in
  let d1 = create ~alpha g e1 in
  let d2 = create ~alpha g e2 in
  let letters = n_letters d1 in
  if letters <> n_letters d2 then false
  else begin
    let seen = Hashtbl.create 64 in
    let rec walk pairs =
      match pairs with
      | [] -> true
      | (s1, s2) :: rest ->
        if Hashtbl.mem seen (s1, s2) then walk rest
        else begin
          Hashtbl.add seen (s1, s2) ();
          if bad d1.accept.(s1) d2.accept.(s2) then false
          else begin
            let next = ref rest in
            for l = 0 to letters - 1 do
              next := (d1.trans.(s1).(l), d2.trans.(s2).(l)) :: !next
            done;
            walk !next
          end
        end
    in
    walk [ (0, 0) ]
  end

let equivalent g e1 e2 = product_check ~bad:(fun a1 a2 -> a1 <> a2) g e1 e2
let included g e1 e2 = product_check ~bad:(fun a1 a2 -> a1 && not a2) g e1 e2

let minimize t =
  let n = n_states t in
  let letters = n_letters t in
  if n = 0 then t
  else begin
    let class_of = Array.map (fun a -> if a then 1 else 0) t.accept in
    let n_classes = ref 2 in
    let changed = ref true in
    while !changed do
      let table : (int * int list, int) Hashtbl.t = Hashtbl.create n in
      let next_class = Array.make n 0 in
      let count = ref 0 in
      for s = 0 to n - 1 do
        let key =
          ( class_of.(s),
            List.init letters (fun l -> class_of.(t.trans.(s).(l))) )
        in
        let c =
          match Hashtbl.find_opt table key with
          | Some c -> c
          | None ->
            let c = !count in
            incr count;
            Hashtbl.add table key c;
            c
        in
        next_class.(s) <- c
      done;
      changed := !count <> !n_classes;
      n_classes := !count;
      Array.blit next_class 0 class_of 0 n
    done;
    (* Renumber so the class of the old initial state is 0. *)
    let k = !n_classes in
    let perm = Array.make k (-1) in
    let next = ref 0 in
    let renum c =
      if perm.(c) < 0 then begin
        perm.(c) <- !next;
        incr next
      end;
      perm.(c)
    in
    let init_class = renum class_of.(0) in
    assert (init_class = 0);
    for s = 0 to n - 1 do
      ignore (renum class_of.(s))
    done;
    let rep = Array.make k (-1) in
    for s = n - 1 downto 0 do
      rep.(perm.(class_of.(s))) <- s
    done;
    let trans =
      Array.init k (fun c ->
          let s = rep.(c) in
          Array.init letters (fun l -> perm.(class_of.(t.trans.(s).(l)))))
    in
    let accept = Array.init k (fun c -> t.accept.(rep.(c))) in
    let members = Array.init k (fun c -> t.members.(rep.(c))) in
    { t with trans; accept; members }
  end

let pp fmt t =
  Format.fprintf fmt "dfa: %d states, %d letters (%d signatures)" (n_states t)
    (n_letters t) (Array.length t.masks)
