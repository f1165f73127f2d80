open Satg_guard
open Satg_circuit
open Satg_sim
open Satg_pool

(* --- input-vector masks ---------------------------------------------------- *)

(* Input vectors are enumerated as integer masks (bit [i] = input [i]),
   never materialised as a [2^n] list of arrays: one scratch array per
   enumerator is refilled in place, and only vectors that actually
   label an edge are copied out. *)

let fill_from_mask v mask =
  Array.iteri (fun i _ -> v.(i) <- mask land (1 lsl i) <> 0) v

let mask_of_vector v =
  let m = ref 0 in
  Array.iteri (fun i b -> if b then m := !m lor (1 lsl i)) v;
  !m

let check_reset c =
  let reset =
    match Circuit.initial c with
    | Some s -> s
    | None -> invalid_arg "Explicit.build: circuit has no reset state"
  in
  if not (Circuit.is_stable c reset) then
    invalid_arg "Explicit.build: reset state not stable";
  reset

(* --- construction ----------------------------------------------------------- *)

(* One worker-side valid edge: its vector, its target, and the
   transitions the classification spent, so the merge can re-spend
   them against the shared guard in deterministic order.  An invalid
   or capped pair contributes nothing but its cost, which folds into
   the next valid pair ([carried]) instead of allocating an item. *)
type item = {
  carried : int;  (* transitions, this pair plus preceding invalid ones *)
  vec_mask : int;
  target : bool array;
}

type state_task = {
  items : item list;  (* mask-ascending *)
  residual : int;  (* transitions after the last valid pair *)
  worker_trip : Guard.reason option;  (* the task stopped early *)
}

(* How many frontier states fan out between merge barriers.  A fixed
   constant, never derived from the pool width: that keeps the barrier
   schedule identical for every [-j], and bounds speculative waste
   after a budget trip to one batch. *)
let batch_states = 32

let build ?k ?(max_frontier = 20_000) ?(guard = Guard.none) ?pool c =
  Pool.with_pool ?pool ~jobs:1 @@ fun pool ->
  let k = match k with Some k -> k | None -> Structure.default_k c in
  let reset = check_reset c in
  let n_in = Circuit.n_inputs c in
  let n_vec = 1 lsl n_in in
  let kernels = Array.init (Pool.jobs pool) (fun _ -> Async_sim.Kernel.compile c) in
  (* States are interned by their packed kernel words ([Kernel.pack]
     reads no kernel scratch, so any kernel packs).  A state is spent
     before it is registered, so a truncated graph never holds more
     than [max_states] states and every recorded edge points at a
     registered state; the reset state is exempt, so even a
     zero-budget build yields a valid one-state graph. *)
  let index = Async_sim.Words.Tbl.create 64 in
  let rev_states = ref [] in
  let edges = Hashtbl.create 64 in
  let queue = Queue.create () in
  let enqueue s =
    let key = Async_sim.Kernel.pack kernels.(0) s in
    match Async_sim.Words.Tbl.find_opt index key with
    | Some i -> i
    | None ->
      let i = Async_sim.Words.Tbl.length index in
      if i > 0 then Guard.spend_state guard;
      Async_sim.Words.Tbl.replace index key i;
      rev_states := s :: !rev_states;
      Queue.add (i, s) queue;
      i
  in
  (* Classify one frontier state against every vector.  Pure function
     of [(c, s, k)] plus its private sub-guard: no interning, no shared
     writes — safe on any worker.  The sub-guard carries the shared
     deadline, the family cancel token and this batch's transition
     allowance, so a budget blowup stops the worker without poisoning
     the shared counters.

     The state budget needs its own worker-side cutoff: workers cannot
     intern (that is the merge's job), so without a bound a worker
     would classify the whole vector space of a state — minutes of
     speculation a [--max-states] run cuts after a few hundred pairs.
     Only under a state budget, a task counts the distinct targets the
     intern table does not hold yet (a read-only probe: the merge is
     the table's only writer and never runs during [Pool.map]) and
     stops with a [State_limit] trip once that count exceeds the
     batch-start allowance.  Each of those targets costs the merge one
     state when it interns this task's items (or an earlier task's),
     so the merge trips at or before the worker's stop point: the
     worker's trip is never the one observed, and the graph is the
     plain BFS's.  Each worker explores on its own kernel: kernel
     scratch memory never crosses domains. *)
  let classify_state kern t_allowance s_allowance s =
    let local = Guard.sub ?max_transitions:t_allowance guard in
    let scratch = Array.make n_in false in
    let current = mask_of_vector (Circuit.input_vector_of_state c s) in
    let items = ref [] in
    let carried = ref 0 in
    let spent = ref 0 in
    let seen = Async_sim.Words.Tbl.create 16 in
    let note_target s' =
      if s_allowance <> None then begin
        let key = Async_sim.Kernel.pack kern s' in
        if not (Async_sim.Words.Tbl.mem index key || Async_sim.Words.Tbl.mem seen key) then
          Async_sim.Words.Tbl.replace seen key ()
      end
    in
    let trip = ref None in
    (try
       for mask = 0 to n_vec - 1 do
         if mask <> current then begin
           (match s_allowance with
           | Some a when Async_sim.Words.Tbl.length seen > a ->
             raise (Guard.Exhausted Guard.State_limit)
           | _ -> ());
           fill_from_mask scratch mask;
           let verdict =
             Async_sim.Kernel.classify_vector ~max_frontier ~guard:local kern ~k
               s scratch
           in
           let now = Guard.transitions_used local in
           carried := !carried + (now - !spent);
           spent := now;
           match verdict with
           | Async_sim.C_settles target ->
             note_target target;
             items := { carried = !carried; vec_mask = mask; target } :: !items;
             carried := 0
           | Async_sim.C_invalid | Async_sim.C_capped -> ()
         end
       done
     with Guard.Exhausted r ->
       trip := Some r;
       (* the in-flight pair's spending, so the merge re-spends the
          worker's full bill *)
       carried := !carried + (Guard.transitions_used local - !spent));
    { items = List.rev !items; residual = !carried; worker_trip = !trip }
  in
  let truncated = ref None in
  (try
     let (_ : int) = enqueue reset in
     while not (Queue.is_empty queue) do
       Guard.check_time guard;
       (* Take a fixed-size batch off the BFS frontier and classify it
          on the pool.  Workers read a frozen snapshot of each state;
          their verdicts do not depend on the intern table, so batch
          classification commutes with a plain BFS's state-by-state
          discovery. *)
       let batch =
         Array.make (min batch_states (Queue.length queue)) (Queue.peek queue)
       in
       for b = 0 to Array.length batch - 1 do
         batch.(b) <- Queue.take queue
       done;
       let t_allowance = Guard.remaining_transitions guard in
       let s_allowance = Guard.remaining_states guard in
       let tasks =
         Pool.map pool
           (fun wid (_, s) ->
             classify_state kernels.(wid) t_allowance s_allowance s)
           batch
       in
       (* Deterministic merge: walk states in frontier order and pairs
          in vector order, re-spending each recorded cost against the
          shared guard before interning the pair's target.  Budget
          trips therefore land on the pair where a plain BFS trips; a
          mid-state trip drops that state's in-flight edges, and
          everything recorded before it is exact. *)
       Array.iteri
         (fun bi (i, _) ->
           let task = tasks.(bi) in
           let out = ref [] in
           List.iter
             (fun { carried; vec_mask; target } ->
               Guard.spend_transitions guard carried;
               let vec = Array.make n_in false in
               fill_from_mask vec vec_mask;
               out := { Cssg.vector = vec; target = enqueue target } :: !out)
             task.items;
           Guard.spend_transitions guard task.residual;
           (match task.worker_trip with
           | Some r ->
             (* The worker stopped before exhausting the vector space
                and the merge's own re-spend did not trip first (a
                deadline, cancel or injected trip): truncate here with
                the worker's reason.  Raised directly — not through the
                shared guard — so a trip inside the build does not
                poison later phases that share this guard family. *)
             raise (Guard.Exhausted r)
           | None -> ());
           Hashtbl.replace edges i (List.rev !out))
         batch
     done
   with Guard.Exhausted r -> truncated := Some r);
  let states = Array.of_list (List.rev !rev_states) in
  let succ =
    Array.init (Array.length states) (fun i ->
        Option.value ~default:[] (Hashtbl.find_opt edges i))
  in
  Cssg.make ?truncated:!truncated ~circuit:c ~k ~states ~succ ~initial:[ 0 ] ()
