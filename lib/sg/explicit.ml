open Satg_guard
open Satg_circuit
open Satg_sim

(* --- input-vector masks ---------------------------------------------------- *)

(* Input vectors are enumerated as integer masks (bit [i] = input [i]),
   never materialised as a [2^n] list of arrays: one scratch array is
   refilled in place, and only vectors that actually label an edge are
   copied out.  A mask is a non-negative int, so it holds at most
   [Sys.int_size - 1] inputs. *)

let max_inputs = Sys.int_size - 1

let fill_from_mask v mask =
  Array.iteri (fun i _ -> v.(i) <- mask land (1 lsl i) <> 0) v

let mask_of_vector v =
  let m = ref 0 in
  Array.iteri (fun i b -> if b then m := !m lor (1 lsl i)) v;
  !m

let explorable_reset c =
  match Circuit.initial c with
  | None -> Error "circuit has no reset state"
  | Some s when not (Circuit.is_stable c s) -> Error "reset state not stable"
  | Some _ when Circuit.n_inputs c > max_inputs ->
    Error
      (Printf.sprintf "%d inputs; an input-vector mask holds at most %d"
         (Circuit.n_inputs c) max_inputs)
  | Some s -> Ok s

let check c = Result.map ignore (explorable_reset c)

(* --- construction ----------------------------------------------------------- *)

let build ?k ?(max_frontier = 20_000) ?(guard = Guard.none) c =
  let k = match k with Some k -> k | None -> Structure.default_k c in
  let reset =
    match explorable_reset c with
    | Ok s -> s
    | Error m -> invalid_arg ("Explicit.build: " ^ m)
  in
  let n_in = Circuit.n_inputs c in
  let kern = Async_sim.Kernel.compile c in
  (* States are interned by their packed kernel words the moment they
     are found.  A state is spent before it is registered, so a
     truncated graph never holds more than [max_states] states and
     every recorded edge points at a registered state; the reset state
     is exempt, so even a zero-budget build yields a valid one-state
     graph. *)
  let index = Async_sim.Words.Tbl.create 64 in
  let rev_states = ref [] in
  let queue = Queue.create () in
  let enqueue s =
    let key = Async_sim.Kernel.pack kern s in
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
  let edges = Hashtbl.create 64 in
  let scratch = Array.make n_in false in
  let truncated = ref None in
  (* A trip drops the in-flight state's edges: a state's edges are
     recorded once the state completes, so everything recorded is
     exact. *)
  (try
     ignore (enqueue reset);
     while not (Queue.is_empty queue) do
       Guard.check_time guard;
       let i, s = Queue.take queue in
       let current = mask_of_vector (Circuit.input_vector_of_state c s) in
       let out = ref [] in
       (* the last mask is [n_in] one bits *)
       for mask = 0 to max_int lsr (max_inputs - n_in) do
         if mask <> current then begin
           fill_from_mask scratch mask;
           match
             Async_sim.Kernel.classify_vector ~max_frontier ~guard kern ~k s scratch
           with
           | Async_sim.C_settles target ->
             out := { Cssg.vector = Array.copy scratch; target = enqueue target } :: !out
           | Async_sim.C_invalid | Async_sim.C_capped -> ()
         end
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
