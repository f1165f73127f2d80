open Satg_guard
open Satg_circuit

type edge = {
  vector : bool array;
  target : int;
}

type t = {
  circuit : Circuit.t;
  k : int;
  states : bool array array;
  succ : edge list array;
  initial : int list;
  deterministic : bool array;
  truncated : Guard.reason option;
}

let reachable_via_edges succ initial n =
  let seen = Array.make n false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter (fun e -> visit e.target) succ.(i)
    end
  in
  List.iter visit initial;
  seen

let make ?truncated ~circuit ~k ~states ~succ ~initial () =
  let n = Array.length states in
  if Array.length succ <> n then invalid_arg "Cssg.make: succ length mismatch";
  List.iter
    (fun i -> if i < 0 || i >= n then invalid_arg "Cssg.make: bad initial id")
    initial;
  Array.iter
    (fun edges ->
      List.iter
        (fun e ->
          if e.target < 0 || e.target >= n then
            invalid_arg "Cssg.make: bad edge target")
        edges)
    succ;
  {
    circuit;
    k;
    states;
    succ;
    initial;
    deterministic = reachable_via_edges succ initial n;
    truncated;
  }

let circuit t = t.circuit
let k t = t.k
let truncated t = t.truncated
let n_states t = Array.length t.states
let n_edges t = Array.fold_left (fun acc es -> acc + List.length es) 0 t.succ
let state t i = Array.copy t.states.(i)

let id_of_state t s = Array.find_index (( = ) s) t.states

let initial t = t.initial
let successors t i = t.succ.(i)

let apply t i v =
  List.find_map
    (fun e -> if e.vector = v then Some e.target else None)
    t.succ.(i)

let deterministically_reachable t i = t.deterministic.(i)

let justify t ?from ~target () =
  let sources = match from with Some l -> l | None -> t.initial in
  let n = Array.length t.states in
  let parent = Array.make n None in
  let seen = Array.make n false in
  let queue = Queue.create () in
  let found = ref None in
  List.iter
    (fun i ->
      if not seen.(i) then begin
        seen.(i) <- true;
        Queue.add i queue
      end)
    sources;
  (try
     while not (Queue.is_empty queue) do
       let i = Queue.take queue in
       if target i then begin
         found := Some i;
         raise Exit
       end;
       List.iter
         (fun e ->
           if not seen.(e.target) then begin
             seen.(e.target) <- true;
             parent.(e.target) <- Some (i, e.vector);
             Queue.add e.target queue
           end)
         t.succ.(i)
     done
   with Exit -> ());
  match !found with
  | None -> None
  | Some goal ->
    let rec unwind i acc =
      match parent.(i) with
      | None -> acc
      | Some (p, v) -> unwind p (v :: acc)
    in
    Some (unwind goal [], goal)

let pp_stats fmt t =
  let det =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.deterministic
  in
  Format.fprintf fmt
    "CSSG(%s, k=%d): %d stable states (%d deterministically reachable), %d valid edges%s"
    (Circuit.name t.circuit) t.k (n_states t) det (n_edges t)
    (match t.truncated with
    | None -> ""
    | Some r -> Printf.sprintf " [TRUNCATED: %s]" (Guard.reason_to_string r))

(* Initial membership as a flat mask (mirrors [has_incoming] below):
   [List.mem] per state would make printing O(states × initials). *)
let initial_mask t =
  let is_initial = Array.make (Array.length t.states) false in
  List.iter (fun i -> is_initial.(i) <- true) t.initial;
  is_initial

let pp fmt t =
  pp_stats fmt t;
  Format.pp_print_newline fmt ();
  let is_initial = initial_mask t in
  Array.iteri
    (fun i s ->
      Format.fprintf fmt "  [%d]%s %s ->" i
        (if is_initial.(i) then "*" else "")
        (Circuit.state_to_string t.circuit s);
      List.iter
        (fun e ->
          let v =
            String.init (Array.length e.vector) (fun j ->
                if e.vector.(j) then '1' else '0')
          in
          Format.fprintf fmt " %s:[%d]" v e.target)
        t.succ.(i);
      Format.pp_print_newline fmt ())
    t.states

let to_dot t =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph \"%s\" {\n  rankdir=LR;\n" (Circuit.name t.circuit);
  let has_incoming = Array.make (Array.length t.states) false in
  Array.iter
    (List.iter (fun e -> has_incoming.(e.target) <- true))
    t.succ;
  let is_initial = initial_mask t in
  Array.iteri
    (fun i s ->
      let initial = is_initial.(i) in
      pr "  s%d [label=\"%s\"%s%s];\n" i
        (Circuit.state_to_string t.circuit s)
        (if initial then ", peripheries=2" else "")
        (if (not initial) && not has_incoming.(i) then
           ", style=filled, fillcolor=lightgrey"
         else "")
    )
    t.states;
  Array.iteri
    (fun i edges ->
      List.iter
        (fun e ->
          let v =
            String.init (Array.length e.vector) (fun j ->
                if e.vector.(j) then '1' else '0')
          in
          pr "  s%d -> s%d [label=\"%s\"];\n" i e.target v)
        edges)
    t.succ;
  pr "}\n";
  Buffer.contents buf
