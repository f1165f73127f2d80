(* The reference CSSG builder: a plain breadth-first search that
   classifies one (state, vector) pair at a time and interns each
   target the moment it is found, so a budget trips exactly where the
   pair that exceeds it is classified.  [Satg_sg.Explicit.build]
   classifies the frontier in batches on a domain pool and merges them
   on the caller; at every pool width it must produce this graph: the
   same states, numbering, edges and truncation reason.

   Only a valid edge's target enters the graph, so an untruncated graph
   is the subgraph reachable from reset over valid edges.  [`Pure]
   classifies each pair by the paper's definition of [TCR_k] directly:
   every state the interleavings reach in exactly [k] firings, with no
   early exit and no frontier cap.  It is the reference the depth-first
   classifier ([`Hybrid], the kernel's, the one [Explicit.build] uses)
   and the symbolic engine are checked against.  [`Strings] classifies
   by the string-set depth-first search of [Async_oracle], the kernel's
   rule and charges without the kernel, so budgeted figures can be
   pinned independently of it. *)

open Satg_guard
open Satg_circuit
open Satg_sim
open Satg_sg

let vector n mask = Array.init n (fun b -> mask land (1 lsl b) <> 0)

(* The paper's verdict on one pair: [Some target] iff every state
   exactly [k] firings reach is the one stable [target]. *)
let pure ?guard kern ~k s v =
  match Async_oracle.apply_vector ?guard kern ~k s v with
  | Async_sim.Settles target -> Some target
  | Async_sim.Non_confluent _ | Async_sim.Exceeds_budget -> None

(* [Some target] is a valid edge; [None] an invalid pair, or one the
   hybrid classifier capped. *)
let classify ~exploration ~max_frontier ~guard kern c ~k s v =
  match exploration with
  | `Pure -> pure ~guard kern ~k s v
  | `Hybrid -> (
    match Async_sim.Kernel.classify_vector ~max_frontier ~guard kern ~k s v with
    | Async_sim.C_settles target -> Some target
    | Async_sim.C_invalid | Async_sim.C_capped -> None)
  | `Strings -> (
    match Async_oracle.classify_vector ~max_frontier ~guard c ~k s v with
    | Async_sim.C_settles target -> Some target
    | Async_sim.C_invalid | Async_sim.C_capped -> None)

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
           | Some target ->
             out := { Cssg.vector = v; target = enqueue target } :: !out
           | None -> ()
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

(* What two builders must agree on, whatever their numbering: the
   sorted states and the sorted labelled edges (source, vector,
   target), as strings. *)
let canonical g =
  let c = Cssg.circuit g in
  let str i = Circuit.state_to_string c (Cssg.state g i) in
  let vec v = String.init (Array.length v) (fun j -> if v.(j) then '1' else '0') in
  let ids = List.init (Cssg.n_states g) Fun.id in
  ( List.sort Stdlib.compare (List.map str ids),
    List.concat_map
      (fun i ->
        List.map (fun e -> (str i, vec e.Cssg.vector, str e.Cssg.target)) (Cssg.successors g i))
      ids
    |> List.sort Stdlib.compare )
