(* The reference CSSG builder: a plain breadth-first search that
   classifies one (state, vector) pair at a time and interns each
   target the moment it is found, so a budget trips exactly where the
   pair that exceeds it is classified.  [Satg_sg.Explicit.build]
   classifies the frontier in batches on a domain pool and merges them
   on the caller; at every pool width it must produce this graph: the
   same states, numbering, edges and truncation reason. *)

open Satg_guard
open Satg_circuit
open Satg_sim
open Satg_sg

let vector n mask = Array.init n (fun b -> mask land (1 lsl b) <> 0)

(* [`Settles target] is a valid edge; [`Harvest stables] an invalid
   pair whose reachable stable states still enter the graph;
   [`Nothing] a pair the hybrid classifier capped. *)
let classify ~exploration ~max_frontier ~guard kern c ~k s v =
  match exploration with
  | `Pure -> (
    let finals =
      Async_sim.Kernel.states_after ~guard kern ~k (Circuit.apply_input_vector c s v)
    in
    match (finals, List.filter (Circuit.is_stable c) finals) with
    | [ _ ], [ target ] -> `Settles target
    | _, stables -> `Harvest stables)
  | `Hybrid -> (
    match Async_sim.Kernel.classify_vector ~max_frontier ~guard kern ~k s v with
    | Async_sim.C_settles target -> `Settles target
    | Async_sim.C_invalid stables -> `Harvest stables
    | Async_sim.C_capped -> `Nothing)

let build ?k ?(exploration = `Hybrid) ?(max_frontier = 20_000)
    ?(guard = Guard.none) c =
  let k = match k with Some k -> k | None -> Structure.default_k c in
  let n_in = Circuit.n_inputs c in
  let kern = Async_sim.Kernel.compile c in
  let index = Hashtbl.create 64 in
  let rev_states = ref [] in
  let queue = Queue.create () in
  (* Spend before registering, so a truncated graph never holds a state
     past the budget; the reset state is exempt. *)
  let enqueue s =
    let key = Circuit.state_to_string c s in
    match Hashtbl.find_opt index key with
    | Some i -> i
    | None ->
      let i = Hashtbl.length index in
      if i > 0 then Guard.spend_state guard;
      Hashtbl.replace index key i;
      rev_states := s :: !rev_states;
      Queue.add (i, s) queue;
      i
  in
  let edges = Hashtbl.create 64 in
  let truncated = ref None in
  (* A trip drops the in-flight state's edges; everything recorded
     before it stays. *)
  (try
     ignore (enqueue (Option.get (Circuit.initial c)));
     while not (Queue.is_empty queue) do
       Guard.check_time guard;
       let i, s = Queue.take queue in
       let current = Circuit.input_vector_of_state c s in
       let out = ref [] in
       for mask = 0 to (1 lsl n_in) - 1 do
         let v = vector n_in mask in
         if v <> current then
           match classify ~exploration ~max_frontier ~guard kern c ~k s v with
           | `Settles target ->
             out := { Cssg.vector = v; target = enqueue target } :: !out
           | `Harvest stables -> List.iter (fun s' -> ignore (enqueue s')) stables
           | `Nothing -> ()
       done;
       Hashtbl.replace edges i (List.rev !out)
     done
   with Guard.Exhausted r -> truncated := Some r);
  let states = Array.of_list (List.rev !rev_states) in
  let succ =
    Array.init (Array.length states) (fun i ->
        Option.value ~default:[] (Hashtbl.find_opt edges i))
  in
  Cssg.make ?truncated:!truncated ~circuit:c ~k ~states ~succ ~initial:[ 0 ] ()

(* Everything the contract compares, in one string: [Cssg.pp] prints
   the truncation reason, every state in id order and every edge. *)
let dump g = Format.asprintf "%a" Cssg.pp g
