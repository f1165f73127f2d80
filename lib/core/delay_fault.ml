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
let start g =
  let c = Cssg.circuit g in
  match Circuit.initial c with
  | Some s -> [ s ]
  | None -> invalid_arg "Delay_fault: circuit has no reset state"

let find_test ?(max_depth = 24) ?(max_states = 4_000) ?(max_set = 128)
    ?(guard = Guard.none) g f =
  Guard.check_time guard;
  let m = machine ~max_set g f in
  let seen = Async_sim.Words.Tbl.create 256 in
  let queue = Queue.create () in
  let result = ref None in
  (match Cssg.initial g with
  | i :: _ ->
    let f0 = start g in
    Async_sim.Words.Tbl.replace seen (Detect.product_key m i f0) ();
    Queue.add (i, f0, [], 0) queue
  | [] -> ());
  while !result = None && not (Queue.is_empty queue) do
    let i, fsts, path, depth = Queue.take queue in
    if depth < max_depth then
      List.iter
        (fun e ->
          if !result = None && Async_sim.Words.Tbl.length seen < max_states then begin
            Guard.spend_transition guard;
            let j = e.Cssg.target in
            match Detect.exact_apply m fsts e.Cssg.vector with
            | None -> ()
            | Some fsts' ->
              if Detect.exact_differs g j m fsts' then
                result := Some (List.rev (e.Cssg.vector :: path))
              else begin
                let key = Detect.product_key m j fsts' in
                if not (Async_sim.Words.Tbl.mem seen key) then begin
                  Async_sim.Words.Tbl.replace seen key ();
                  Queue.add (j, fsts', e.Cssg.vector :: path, depth + 1) queue
                end
              end
          end)
        (Cssg.successors g i)
  done;
  !result

let check g f seq =
  match Detect.good_trace g seq with
  | None -> false
  | Some trace ->
    let m = machine ~max_set:128 g f in
    let rec go trace fsts vectors =
      match trace with
      | [] -> false
      | i :: trace' ->
        Detect.exact_differs g i m fsts
        ||
        (match vectors with
        | [] -> false
        | v :: vs -> (
          match Detect.exact_apply m fsts v with
          | None -> false
          | Some fsts' -> go trace' fsts' vs))
    in
    go trace (start g) seq

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
