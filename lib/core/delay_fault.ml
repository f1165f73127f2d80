open Satg_guard
open Satg_circuit
open Satg_sim
open Satg_sg

type t = {
  gate : int;
  slow_to : bool;
}

let universe c =
  Array.fold_right
    (fun gid acc ->
      { gate = gid; slow_to = false } :: { gate = gid; slow_to = true } :: acc)
    (Circuit.gates c) []

let to_string c f =
  Printf.sprintf "%s/slow-%s"
    (Circuit.node_name c f.gate)
    (if f.slow_to then "rise" else "fall")

(* The delayed machine: the faulty gate never completes a transition to
   [slow_to] within a cycle.  The kernel masks that transition out of
   its excitation word, so a state whose only excited gate is held
   behaves as stable. *)
let machine ~max_set g f =
  Detect.machine ~max_set ~k:(Cssg.k g)
    (Async_sim.Kernel.compile ~slow:(f.gate, f.slow_to) (Cssg.circuit g))

(* The delayed gate holds its (correct) reset value, so the faulty
   machine starts exactly in the reset state. *)
let start g m =
  match Circuit.initial (Cssg.circuit g) with
  | Some s -> Detect.of_states m [ s ]
  | None -> invalid_arg "Delay_fault: circuit has no reset state"

let find_test ?(max_depth = 24) ?(max_states = 4_000) ?(max_set = 128)
    ?(guard = Guard.none) g f =
  Guard.check_time guard;
  match Cssg.initial g with
  | [] -> None
  | i :: _ ->
    let config =
      { Three_phase.default_config with max_depth; max_product_states = max_states }
    in
    let m = machine ~max_set g f in
    Three_phase.differentiate g guard config m ~start:i ~fstates:(start g m)

let check g f seq =
  let m = machine ~max_set:128 g f in
  Detect.replay_exact g m (start g m) seq

type status =
  | Found of Testset.sequence
  | Not_found
  | Aborted of Guard.reason

type result = {
  circuit : Circuit.t;
  outcomes : (t * status) list;
  cpu_seconds : float;
}

let run ?max_depth ?max_states ?(guard = Guard.none) g =
  let t0 = Sys.time () in
  let c = Cssg.circuit g in
  let outcomes =
    List.map
      (fun f ->
        match
          Guard.guarded guard (fun () ->
              find_test ?max_depth ?max_states ~guard g f)
        with
        | Ok (Some seq) -> (f, Found seq)
        | Ok None -> (f, Not_found)
        | Error reason -> (f, Aborted reason))
      (universe c)
  in
  { circuit = c; outcomes; cpu_seconds = Sys.time () -. t0 }

let detected r =
  List.length
    (List.filter (fun (_, s) -> match s with Found _ -> true | _ -> false)
       r.outcomes)

let aborted r =
  List.length
    (List.filter (fun (_, s) -> match s with Aborted _ -> true | _ -> false)
       r.outcomes)

let total r = List.length r.outcomes

let pp_summary fmt r =
  Format.fprintf fmt "%s: %d/%d gross delay faults detected (%.2fs)"
    (Circuit.name r.circuit) (detected r) (total r) r.cpu_seconds;
  if aborted r > 0 then Format.fprintf fmt " [%d aborted]" (aborted r)
