open Satg_guard
open Satg_fault
open Satg_sg

type config = {
  max_depth : int;
  max_product_states : int;
  max_activation_tries : int;
}

let default_config =
  { max_depth = 24; max_product_states = 4_000; max_activation_tries = 8 }

(* BFS distances and parents over valid CSSG edges from reset. *)
let bfs_tree g =
  let n = Cssg.n_states g in
  let dist = Array.make n (-1) in
  let parent = Array.make n None in
  let queue = Queue.create () in
  List.iter
    (fun i ->
      dist.(i) <- 0;
      Queue.add i queue)
    (Cssg.initial g);
  while not (Queue.is_empty queue) do
    let i = Queue.take queue in
    List.iter
      (fun e ->
        if dist.(e.Cssg.target) < 0 then begin
          dist.(e.Cssg.target) <- dist.(i) + 1;
          parent.(e.Cssg.target) <- Some (i, e.Cssg.vector);
          Queue.add e.Cssg.target queue
        end)
      (Cssg.successors g i)
  done;
  (dist, parent)

let path_to parent i =
  let rec unwind i acc =
    match parent.(i) with
    | None -> acc
    | Some (p, v) -> unwind p (v :: acc)
  in
  unwind i []

(* Replay a justification prefix, tracking the exact faulty-state set.
   A definite full-set output difference along the way is the
   "corruption always" case of figure 3(a) and shortens the test. *)
let replay_prefix guard g fm f0 prefix =
  let rec go i fstates applied = function
    | [] ->
      if Detect.exact_differs g i fm fstates then `Detected (List.rev applied)
      else `At fstates
    | v :: rest -> (
      Guard.tick guard;
      if Detect.exact_differs g i fm fstates then `Detected (List.rev applied)
      else
        match Cssg.apply g i v with
        | None -> `Abort
        | Some j -> (
          match Detect.exact_apply fm fstates v with
          | None -> `Abort
          | Some fstates' -> go j fstates' (v :: applied) rest))
  in
  match Cssg.initial g with
  | i :: _ -> go i f0 [] prefix
  | [] -> `Abort

(* Differentiation: BFS over (good state, exact faulty-state set), a
   product state keyed by the good state and the set's id.
   Hitting [max_product_states] is fail-soft: edges to known states and
   difference checks still run, but once the frontier was truncated a
   "no result" answer is no longer trustworthy, so it degrades like any
   other guard trip instead of reporting undetectable. *)
let differentiate g guard config fm ~start:start_good ~fstates =
  let seen = Hashtbl.create 256 in
  let queue = Queue.create () in
  Hashtbl.replace seen (Detect.product_key g start_good fstates) ();
  Queue.add (start_good, fstates, [], 0) queue;
  let result = ref None in
  let capped = ref false in
  while !result = None && not (Queue.is_empty queue) do
    let i, fsts, path, depth = Queue.take queue in
    if depth < config.max_depth then
      List.iter
        (fun e ->
          if !result = None then begin
            Guard.spend_transition guard;
            let j = e.Cssg.target in
            match Detect.exact_apply fm fsts e.Cssg.vector with
            | None -> ()
            | Some fsts' ->
              if Detect.exact_differs g j fm fsts' then
                result := Some (List.rev (e.Cssg.vector :: path))
              else begin
                let k = Detect.product_key g j fsts' in
                if not (Hashtbl.mem seen k) then
                  if Hashtbl.length seen >= config.max_product_states then
                    capped := true
                  else begin
                    Hashtbl.replace seen k ();
                    Queue.add (j, fsts', e.Cssg.vector :: path, depth + 1)
                      queue
                  end
              end
          end)
        (Cssg.successors g i)
  done;
  if !result = None && !capped then
    raise (Guard.Exhausted Guard.State_limit);
  !result

(* A pluggable justification/differentiation engine.  [None] fields
   fall back to the explicit algorithms above; every backend must agree
   with them on *detectability* (identical detected/undetected
   partitions), only the witness sequences may differ. *)
type backend = {
  backend_name : string;
  backend_justify : Guard.t -> int -> bool array list option;
  backend_differentiate :
    (Guard.t ->
    config ->
    Detect.machine ->
    start:int ->
    fstates:Detect.set ->
    bool array list option)
    option;
}

let symbolic_backend g sym =
  {
    backend_name = "bdd";
    backend_justify =
      (fun guard act ->
        (* The symbolic engine's manager still carries its build-time
           guard; swap in this fault's budget so a BDD blowup during
           justification charges (and aborts) only this fault. *)
        match
          Symbolic.with_guard sym guard (fun () ->
              Symbolic.justify sym
                ~target:(Symbolic.state_to_bdd sym (Cssg.state g act)))
        with
        | Some (vectors, _) -> Some vectors
        | None -> None);
    backend_differentiate = None;
  }

(* The search proper: activation, justification, differentiation. *)
let search config guard ?backend g f =
  let good = Cssg.circuit g in
  let site = Fault.site_signal good f in
  let stuck = Fault.stuck_value f in
  let fm, f0 = Detect.exact_start g f in
  let dist, parent = bfs_tree g in
  let justification_prefix act =
    match backend with
    | None -> Some (path_to parent act)
    | Some b -> b.backend_justify guard act
  in
  (* Activation states: fault site opposite to the stuck value,
     deterministically reachable, nearest first.  The reset state is
     always appended as a last resort, which also covers the "never
     excited in a stable state" faults of §5.1. *)
  let activation =
    List.init (Cssg.n_states g) Fun.id
    |> List.filter (fun i ->
           dist.(i) >= 0 && (Cssg.state g i).(site) <> stuck)
    |> List.sort (fun a b -> compare dist.(a) dist.(b))
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let reset_candidates = List.filter (fun i -> dist.(i) = 0) (Cssg.initial g) in
  let candidates =
    take config.max_activation_tries activation
    @ List.filter (fun i -> not (List.mem i activation)) reset_candidates
  in
  let try_candidate act =
    match justification_prefix act with
    | None -> None
    | Some prefix -> (
      match replay_prefix guard g fm f0 prefix with
      | `Detected seq -> Some seq
      | `Abort -> None
      | `At fstates ->
        let diff =
          match backend with
          | Some { backend_differentiate = Some diff; _ } -> diff
          | _ -> differentiate g
        in
        Option.map (fun suffix -> prefix @ suffix) (diff guard config fm ~start:act ~fstates))
  in
  List.find_map try_candidate candidates

let find_test ?(config = default_config) ?(guard = Guard.none) ?backend g f =
  (* An already-expired deadline must abort even on graphs too small for
     the per-edge ticks below to ever fire (e.g. an edgeless truncated
     CSSG). *)
  Guard.check_time guard;
  (* No output in the faulty gate's fanout: the outputs' fanin cone is
     the same circuit in both machines, from the same power-up values,
     so some faulty behaviour always shows the good outputs and no
     sequence detects the fault.  No search can say otherwise. *)
  let gate =
    match f with Fault.Input_sa { gate; _ } | Fault.Output_sa { gate; _ } -> gate
  in
  if Satg_circuit.Structure.reaches_output (Cssg.circuit g) gate then
    search config guard ?backend g f
  else None
