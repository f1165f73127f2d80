type edge = {
  gate : int;
  pin : int;
  src : int;
}

(* Tarjan's SCC over gate nodes.  Successors of gate g are the gates
   reading g's output. *)
let sccs c =
  let n = Circuit.n_nodes c in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (Circuit.fanouts c v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  Array.iter
    (fun g -> if index.(g) = -1 then strongconnect g)
    (Circuit.gates c);
  List.rev !components

let has_self_loop c g =
  Array.exists (fun src -> src = g) (Circuit.fanins c g)

let cyclic_gates c =
  List.concat_map
    (function
      | [ g ] -> if has_self_loop c g then [ g ] else []
      | comp -> comp)
    (sccs c)

(* DFS over gates; a fanin pin reading a node currently on the DFS stack
   is a back edge and gets cut.  Implicit C-element self-feedback is a
   semantic (not structural) loop, so it needs no cutting. *)
let feedback_edges c =
  let n = Circuit.n_nodes c in
  let colour = Array.make n 0 in
  (* 0 white, 1 on stack, 2 done *)
  let cut = ref [] in
  let rec visit g =
    colour.(g) <- 1;
    Array.iteri
      (fun pin src ->
        if not (Circuit.is_env c src) then
          if colour.(src) = 1 then cut := { gate = g; pin; src } :: !cut
          else if colour.(src) = 0 then visit src)
      (Circuit.fanins c g);
    colour.(g) <- 2
  in
  Array.iter (fun g -> if colour.(g) = 0 then visit g) (Circuit.gates c);
  List.rev !cut

let levels c ~break =
  let n = Circuit.n_nodes c in
  let is_cut g pin = List.exists (fun e -> e.gate = g && e.pin = pin) break in
  let level = Array.make n (-1) in
  Array.iter (fun env -> level.(env) <- 0) (Circuit.inputs c);
  let rec compute v =
    if level.(v) >= 0 then level.(v)
    else if Circuit.is_env c v then begin
      level.(v) <- 0;
      0
    end
    else begin
      level.(v) <- -2;
      (* mark in progress to detect remaining cycles *)
      let worst = ref 0 in
      Array.iteri
        (fun pin src ->
          if not (is_cut v pin) then begin
            if level.(src) = -2 then
              invalid_arg "Structure.levels: cycle not broken";
            worst := max !worst (compute src)
          end)
        (Circuit.fanins c v);
      level.(v) <- !worst + 1;
      level.(v)
    end
  in
  Array.iter (fun g -> ignore (compute g)) (Circuit.gates c);
  level

let longest_path c =
  let break = feedback_edges c in
  let lv = levels c ~break in
  Array.fold_left max 0 lv

let default_k c = max 8 (4 * Circuit.n_gates c)

let reaches_output c i =
  let is_output = Array.make (Circuit.n_nodes c) false in
  Array.iter (fun o -> is_output.(o) <- true) (Circuit.outputs c);
  let seen = Array.make (Circuit.n_nodes c) false in
  let rec visit = function
    | [] -> false
    | v :: rest when seen.(v) -> visit rest
    | v :: rest ->
      seen.(v) <- true;
      is_output.(v) || visit (Circuit.fanouts c v @ rest)
  in
  visit [ i ]
