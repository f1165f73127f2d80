(* The reference implementation of test-mode exploration: every frontier
   is a set of '0'/'1' strings and every visited state re-evaluates every
   gate.  Slow, and obviously the unbounded gate-delay semantics; the
   packed kernel of [Satg_sim.Async_sim] must agree with it on verdicts,
   [Frontier_limit] points and guard charges. *)

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

let classify_vector ?(max_frontier = max_int) ?(guard = Guard.none) c ~k s v =
  let open Satg_sim.Async_sim in
  if not (Circuit.is_stable c s) then
    invalid_arg "Async_sim.classify_vector: state not stable";
  let s1 = Circuit.apply_input_vector c s v in
  (* Every stable state seen in any layer so far; the kernel counts
     only the current layer's, which the self-loop makes the same. *)
  let stables = Hashtbl.create 4 in
  let note_stables frontier =
    StringSet.iter
      (fun sk ->
        if (not (Hashtbl.mem stables sk)) && Circuit.is_stable c (state_of_key sk)
        then Hashtbl.replace stables sk ())
      frontier
  in
  let seen_frontiers = Hashtbl.create 16 in
  let rec go i frontier =
    Guard.spend_transitions guard (StringSet.cardinal frontier);
    note_stables frontier;
    if Hashtbl.length stables >= 2 then
      (* Two distinct final stable states are already reachable. *)
      C_invalid
    else if StringSet.cardinal frontier > max_frontier then C_capped
    else if all_stable c fire_all frontier then
      (* Single stable state (cardinality 1 since stables < 2). *)
      C_settles (state_of_key (StringSet.choose frontier))
    else if i >= k then C_invalid
    else if StringSet.cardinal frontier <= 4096 then begin
      (* Cycle detection (cheap only while the frontier is small): a
         repeated frontier that is not all-stable never settles. *)
      let key = String.concat ";" (StringSet.elements frontier) in
      if Hashtbl.mem seen_frontiers key then C_invalid
      else begin
        Hashtbl.replace seen_frontiers key ();
        go (i + 1) (step_frontier c fire_all frontier)
      end
    end
    else go (i + 1) (step_frontier c fire_all frontier)
  in
  go 0 (StringSet.singleton (key c s1))
