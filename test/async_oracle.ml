(* The reference implementation of test-mode exploration: every frontier
   and visited set is a set of '0'/'1' strings and every visited state
   re-evaluates every gate.  Slow, and obviously the unbounded gate-delay
   semantics; the packed kernel of [Satg_sim.Async_sim] must agree with
   it on verdicts, [Frontier_limit] points and guard charges. *)

open Satg_guard
open Satg_circuit

module StringSet = Set.Make (String)

let key = Circuit.state_to_string

let state_of_key k =
  Array.init (String.length k) (fun i -> k.[i] = '1')

let fireable c can_fire s =
  List.filter (fun g -> can_fire s g) (Circuit.excited_gates c s)

(* One layer of the R_delta frontier: every excited (and fireable) gate
   of every state may fire; states with nothing fireable persist
   (self-loop). *)
let step_frontier c can_fire frontier =
  StringSet.fold
    (fun sk acc ->
      let s = state_of_key sk in
      match fireable c can_fire s with
      | [] -> StringSet.add sk acc
      | excited ->
        List.fold_left
          (fun acc g -> StringSet.add (key c (Circuit.fire c s g)) acc)
          acc excited)
    frontier StringSet.empty

let all_stable c can_fire frontier =
  StringSet.for_all (fun sk -> fireable c can_fire (state_of_key sk) = []) frontier

let fire_all _ _ = true

(* The veto of a gross delay fault: gate [gate] never completes a
   transition to [slow_to]. *)
let slow_gate c ~gate ~slow_to s g =
  not (g = gate && Circuit.eval_gate c s g = slow_to && s.(g) <> slow_to)

let states_after ?(max_frontier = max_int) ?(can_fire = fire_all)
    ?(guard = Guard.none) c ~k s =
  let rec go i frontier =
    let width = StringSet.cardinal frontier in
    if width > max_frontier then raise Satg_sim.Async_sim.Frontier_limit;
    if i >= k then frontier
    else if all_stable c can_fire frontier then frontier
    else begin
      Guard.spend_transitions guard width;
      go (i + 1) (step_frontier c can_fire frontier)
    end
  in
  let final = go 0 (StringSet.singleton (key c s)) in
  StringSet.elements final |> List.map state_of_key

exception Verdict of Satg_sim.Async_sim.classification

(* The paper's verdict by the rule the kernel's depth-first search
   takes, with nothing of the kernel: TCR_k is one stable state iff the
   pair reaches exactly one stable state, no cycle of unstable states
   and no path of [k + 1] unstable states.  [explore] returns the number
   of states on the longest unstable path from an unstable state, which
   [heights] keeps for every finished state (0 for a stable one) and
   [path] lacks while the state is being explored.  Gates fire in
   [Circuit.gates] order, the kernel's, one transition charged per
   firing, and more than [max_frontier] distinct states caps the pair. *)
let classify_vector ?(max_frontier = max_int) ?(guard = Guard.none) c ~k s v =
  let open Satg_sim.Async_sim in
  if not (Circuit.is_stable c s) then
    invalid_arg "Async_sim.classify_vector: state not stable";
  let seen = ref 0 and stable = ref None in
  let path = ref StringSet.empty and heights = Hashtbl.create 64 in
  let enter sk depth =
    incr seen;
    if Circuit.is_stable c (state_of_key sk) then begin
      if !stable <> None then raise (Verdict C_invalid);
      stable := Some sk;
      Hashtbl.replace heights sk 0
    end
    else if depth > k then raise (Verdict C_invalid);
    if !seen > max_frontier then raise (Verdict C_capped)
  in
  let rec explore sk depth =
    path := StringSet.add sk !path;
    let s = state_of_key sk in
    let height =
      List.fold_left
        (fun height g ->
          Guard.spend_transition guard;
          let next = key c (Circuit.fire c s g) in
          if StringSet.mem next !path then raise (Verdict C_invalid);
          match Hashtbl.find_opt heights next with
          | Some h ->
            if depth + h > k then raise (Verdict C_invalid);
            max height (h + 1)
          | None ->
            enter next (depth + 1);
            if Hashtbl.mem heights next then height
            else max height (explore next (depth + 1) + 1))
        1 (Circuit.excited_gates c s)
    in
    path := StringSet.remove sk !path;
    Hashtbl.replace heights sk height;
    height
  in
  let start = key c (Circuit.apply_input_vector c s v) in
  try
    enter start 1;
    if not (Hashtbl.mem heights start) then ignore (explore start 1 : int);
    C_settles (state_of_key (Option.get !stable))
  with Verdict r -> r
