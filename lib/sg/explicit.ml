open Satg_guard
open Satg_circuit
open Satg_sim
open Satg_pool

(* --- packed state interning ------------------------------------------------ *)

(* The intern path used to format every probed state into a string
   ([Circuit.state_to_string]) just to use it as a Hashtbl key — one
   byte per node plus an allocation per *lookup*.  States are packed
   into a bit-per-node [Bytes] scratch buffer instead: lookups reuse
   the scratch (zero allocation when the state is already known) and
   only a fresh intern copies the key. *)
module Intern = struct
  type t = {
    scratch : Bytes.t;
    index : (Bytes.t, int) Hashtbl.t;
    mutable rev_states : bool array list;
    mutable count : int;
  }

  let create ~n_nodes =
    {
      scratch = Bytes.make ((n_nodes + 7) lsr 3) '\000';
      index = Hashtbl.create 64;
      rev_states = [];
      count = 0;
    }

  (* One store per eight nodes: each output byte is accumulated in a
     register, so there is no clear pass and no read-modify-write. *)
  let pack_into buf s =
    let n = Array.length s in
    for byte = 0 to Bytes.length buf - 1 do
      let base = byte lsl 3 in
      let stop = min 8 (n - base) in
      let v = ref 0 in
      for bit = 0 to stop - 1 do
        if Array.unsafe_get s (base + bit) then v := !v lor (1 lsl bit)
      done;
      Bytes.unsafe_set buf byte (Char.unsafe_chr !v)
    done

  (* Spend before registering, so a truncated graph never holds more
     than [max_states] states and every recorded edge points at a
     registered state.  The first state (reset) is exempt: even a
     zero-budget build yields a valid one-state graph. *)
  let intern t ~guard s =
    pack_into t.scratch s;
    match Hashtbl.find_opt t.index t.scratch with
    | Some i -> (i, false)
    | None ->
      if t.count > 0 then Guard.spend_state guard;
      let i = t.count in
      t.count <- i + 1;
      Hashtbl.replace t.index (Bytes.copy t.scratch) i;
      t.rev_states <- s :: t.rev_states;
      (i, true)

  (* The worker-side probe: a fresh packed key per call, so no domain
     ever writes [scratch], and a read-only lookup. *)
  let key t s =
    let buf = Bytes.create (Bytes.length t.scratch) in
    pack_into buf s;
    buf

  let mem t key = Hashtbl.mem t.index key
  let count t = t.count
  let states t = Array.of_list (List.rev t.rev_states)
end

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

(* --- per-pair classification ----------------------------------------------- *)

(* The verdict of one (stable state, vector) pair, with the stable
   states it harvested on the way.  [Settles] is the valid-edge case;
   [Harvest] covers invalid pairs whose reachable stable states still
   enter the graph as TCSG nodes; [Nothing] is a capped pair. *)
type verdict =
  | Settles of bool array
  | Harvest of bool array list
  | Nothing

let classify_pair ~exploration ~max_frontier ~guard kern ~k s v =
  match exploration with
  | `Pure -> (
    let c = Async_sim.Kernel.circuit kern in
    let s1 = Circuit.apply_input_vector c s v in
    let finals = Async_sim.Kernel.states_after ~guard kern ~k s1 in
    let stables = List.filter (Circuit.is_stable c) finals in
    match (finals, stables) with
    | [ _ ], [ target ] -> Settles target
    | _ -> Harvest stables)
  | `Hybrid -> (
    match Async_sim.Kernel.classify_vector ~max_frontier ~guard kern ~k s v with
    | Async_sim.C_settles final -> Settles final
    | Async_sim.C_invalid stables -> Harvest stables
    | Async_sim.C_capped -> Nothing)

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

(* One worker-side result for one (state, vector) pair: the verdict
   plus the transitions the classification spent, so the merge can
   re-spend them against the shared guard in deterministic order.
   Runs of [Nothing] verdicts fold their cost into the next
   interesting pair ([carried]) instead of allocating an item each. *)
type item = {
  carried : int;  (* transitions, this pair plus preceding boring ones *)
  vec_mask : int;
  verdict : verdict;
}

type state_task = {
  items : item list;  (* mask-ascending *)
  residual : int;  (* transitions after the last interesting pair *)
  worker_trip : Guard.reason option;  (* the task stopped early *)
}

(* How many frontier states fan out between merge barriers.  A fixed
   constant, never derived from the pool width: that keeps the barrier
   schedule identical for every [-j], and bounds speculative waste
   after a budget trip to one batch. *)
let batch_states = 32

let build ?k ?(exploration = `Hybrid) ?(max_frontier = 20_000)
    ?(guard = Guard.none) ?pool c =
  Pool.with_pool ?pool ~jobs:1 @@ fun pool ->
  let k = match k with Some k -> k | None -> Structure.default_k c in
  let reset = check_reset c in
  let n_in = Circuit.n_inputs c in
  let n_vec = 1 lsl n_in in
  let it = Intern.create ~n_nodes:(Circuit.n_nodes c) in
  let edges = Hashtbl.create 64 in
  let queue = Queue.create () in
  let enqueue s =
    let i, fresh = Intern.intern it ~guard s in
    if fresh then Queue.add (i, s) queue;
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
  let kernels = Array.init (Pool.jobs pool) (fun _ -> Async_sim.Kernel.compile c) in
  let classify_state kern t_allowance s_allowance s =
    let local = Guard.sub ?max_transitions:t_allowance guard in
    let scratch = Array.make n_in false in
    let current = mask_of_vector (Circuit.input_vector_of_state c s) in
    let items = ref [] in
    let carried = ref 0 in
    let spent = ref 0 in
    let seen = Hashtbl.create 16 in
    let note_target s' =
      if s_allowance <> None then begin
        let key = Intern.key it s' in
        if not (Intern.mem it key || Hashtbl.mem seen key) then
          Hashtbl.replace seen key ()
      end
    in
    let trip = ref None in
    (try
       for mask = 0 to n_vec - 1 do
         if mask <> current then begin
           (match s_allowance with
           | Some a when Hashtbl.length seen > a ->
             raise (Guard.Exhausted Guard.State_limit)
           | _ -> ());
           fill_from_mask scratch mask;
           let verdict =
             classify_pair ~exploration ~max_frontier ~guard:local kern ~k s
               scratch
           in
           let now = Guard.transitions_used local in
           let cost = now - !spent in
           spent := now;
           carried := !carried + cost;
           match verdict with
           | Nothing -> ()
           | Settles target ->
             note_target target;
             items := { carried = !carried; vec_mask = mask; verdict } :: !items;
             carried := 0
           | Harvest stables ->
             List.iter note_target stables;
             items := { carried = !carried; vec_mask = mask; verdict } :: !items;
             carried := 0
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
          shared guard before interning the pair's harvest.  Budget
          trips therefore land on the pair where a plain BFS trips; a
          mid-state trip drops that state's in-flight edges, and
          everything recorded before it is exact. *)
       Array.iteri
         (fun bi (i, _) ->
           let task = tasks.(bi) in
           let out = ref [] in
           List.iter
             (fun { carried; vec_mask; verdict } ->
               Guard.spend_transitions guard carried;
               match verdict with
               | Settles target ->
                 let vec = Array.make n_in false in
                 fill_from_mask vec vec_mask;
                 out := { Cssg.vector = vec; target = enqueue target } :: !out
               | Harvest stables ->
                 List.iter (fun s' -> ignore (enqueue s')) stables
               | Nothing -> ())
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
  let states = Intern.states it in
  let succ =
    Array.init (Array.length states) (fun i ->
        Option.value ~default:[] (Hashtbl.find_opt edges i))
  in
  Cssg.make ?truncated:!truncated ~circuit:c ~k ~states ~succ ~initial:[ 0 ] ()
