open Satg_logic
open Satg_circuit
open Satg_fault
open Satg_sim
open Satg_sg

let good_trace g seq =
  let rec follow i acc = function
    | [] -> Some (List.rev acc)
    | v :: rest -> (
      match Cssg.apply g i v with
      | Some j -> follow j (j :: acc) rest
      | None -> None)
  in
  match Cssg.initial g with
  | [ i ] -> follow i [ i ] seq
  | i :: _ -> follow i [ i ] seq
  | [] -> None

let reset_of g =
  match Circuit.initial (Cssg.circuit g) with
  | Some s -> s
  | None -> invalid_arg "Detect: circuit has no reset state"

let faulty_start good f =
  let reset =
    match Circuit.initial good with
    | Some s -> s
    | None -> invalid_arg "Detect.faulty_start: no reset state"
  in
  let fc = Fault.inject good f in
  let init =
    Ternary_sim.of_bool_state (Fault.initial_faulty_state good f reset)
  in
  (* Settle conservatively: re-apply the unchanged input vector. *)
  let v0 = Circuit.input_vector_of_state good reset in
  (fc, Ternary_sim.apply_vector fc init v0)

let definite_difference good_out faulty_out =
  let n = Array.length good_out in
  let rec scan i =
    i < n
    &&
    match (Ternary.of_bool good_out.(i), faulty_out.(i)) with
    | Ternary.One, Ternary.Zero | Ternary.Zero, Ternary.One -> true
    | _ -> scan (i + 1)
  in
  scan 0

let check g f seq =
  let good = Cssg.circuit g in
  match good_trace g seq with
  | None -> false
  | Some trace ->
    let fc, fstate = faulty_start good f in
    let good_outputs i = Circuit.output_values good (Cssg.state g i) in
    let fault_outputs st = Ternary_sim.outputs fc st in
    let rec step trace fstate vectors =
      match trace with
      | [] -> false
      | i :: trace' ->
        definite_difference (good_outputs i) (fault_outputs fstate)
        ||
        (match vectors with
        | [] -> false
        | v :: vs ->
          step trace' (Ternary_sim.apply_vector fc fstate v) vs)
    in
    step trace fstate seq

(* Repack once the survivors fit in half the words the pack currently
   sweeps: the copy is O(nodes * survivors), amortized against every
   subsequent per-word fixpoint (see docs/PERF.md). *)
let maybe_repack pack =
  if
    Parallel_sim.n_words pack > 1
    && Parallel_sim.n_live pack
       <= Parallel_sim.n_words pack / 2 * Parallel_sim.word_size
  then Parallel_sim.repack pack
  else pack

let sweep g seq faults =
  if faults = [] then ([], [])
  else
    let good = Cssg.circuit g in
    let reset = reset_of g in
    match good_trace g seq with
    | None -> ([], faults)
    | Some trace ->
      let trace = Array.of_list trace in
      let detected = Hashtbl.create 16 in
      (* One pack for the whole fault list; detected machines are
         dropped on the spot, and the pack is recompacted as it
         thins. *)
      let pack = ref (Parallel_sim.create good (Array.of_list faults) ~reset) in
      let observe i =
        let good_out =
          Array.map Ternary.of_bool (Circuit.output_values good (Cssg.state g i))
        in
        List.iter
          (fun m -> Hashtbl.replace detected (Parallel_sim.fault !pack m) ())
          (Parallel_sim.detected !pack ~good_outputs:good_out)
      in
      if Array.length trace > 0 then observe trace.(0);
      (try
         List.iteri
           (fun step v ->
             if Parallel_sim.n_live !pack = 0 then raise Exit;
             pack := maybe_repack !pack;
             Parallel_sim.apply_vector !pack v;
             if step + 1 < Array.length trace then observe trace.(step + 1))
           seq
       with Exit -> ());
      List.partition (fun f -> Hashtbl.mem detected f) faults

(* --- exact faulty-state sets ---------------------------------------------- *)

type machine = {
  fc : Circuit.t;
  kern : Async_sim.Kernel.t;
  k : int;
  max_set : int;
  memo : bool array list option Async_sim.Words.Tbl.t;
      (* packed state after the vector -> k-step frontier (None = blow-up) *)
}

let machine ?(max_set = 128) ~k kern =
  { fc = Async_sim.Kernel.circuit kern; kern; k; max_set; memo = Async_sim.Words.Tbl.create 256 }

let dedup_states m states =
  let seen = Async_sim.Words.Tbl.create 16 in
  List.filter
    (fun s ->
      let key = Async_sim.Kernel.pack m.kern s in
      if Async_sim.Words.Tbl.mem seen key then false
      else begin
        Async_sim.Words.Tbl.replace seen key ();
        true
      end)
    states

let product_key m i states =
  let words = List.map (Async_sim.Kernel.pack m.kern) states in
  Array.concat ([| i |] :: List.sort Async_sim.Words.compare words)

let exact_start ?max_set g f =
  let good = Cssg.circuit g in
  let reset = reset_of g in
  let fc = Fault.inject good f in
  let init = Fault.initial_faulty_state good f reset in
  let m = machine ?max_set ~k:(Cssg.k g) (Async_sim.Kernel.compile fc) in
  let start =
    try Async_sim.Kernel.states_after ~max_frontier:m.max_set m.kern ~k:m.k init
    with Async_sim.Frontier_limit -> []
    (* An empty start set means "unknown"; exact_differs treats it as
       inconclusive and exact_apply keeps it empty. *)
  in
  (m, start)

(* The k-step frontier depends only on the state after the vector, so
   that state's packed words are the memo key. *)
let step_one m s v =
  let s1 = Circuit.apply_input_vector m.fc s v in
  let key = Async_sim.Kernel.pack m.kern s1 in
  match Async_sim.Words.Tbl.find_opt m.memo key with
  | Some r -> r
  | None ->
    let r =
      try Some (Async_sim.Kernel.states_after ~max_frontier:m.max_set m.kern ~k:m.k s1)
      with Async_sim.Frontier_limit -> None
    in
    Async_sim.Words.Tbl.replace m.memo key r;
    r

(* The union lists the last member's frontier first, each frontier in
   its sorted order, and keeps a state's first occurrence. *)
let exact_apply m states v =
  let rec go acc count = function
    | [] ->
      let deduped = dedup_states m (List.concat acc) in
      if List.length deduped > m.max_set then None else Some deduped
    | s :: rest -> (
      match step_one m s v with
      | None -> None
      | Some finals ->
        let count = count + List.length finals in
        if count > 8 * m.max_set then None else go (finals :: acc) count rest)
  in
  if states = [] then Some [] else go [] 0 states

let exact_differs g i m states =
  let good = Cssg.circuit g in
  let expected = Circuit.output_values good (Cssg.state g i) in
  states <> []
  && List.for_all
       (fun s -> Array.map (fun o -> s.(o)) (Circuit.outputs m.fc) <> expected)
       states

let replay_exact g m start seq =
  match good_trace g seq with
  | None -> false
  | Some trace ->
    let rec step trace fstates vectors =
      match trace with
      | [] -> false
      | i :: trace' ->
        exact_differs g i m fstates
        ||
        (match vectors with
        | [] -> false
        | v :: vs -> (
          match exact_apply m fstates v with
          | None -> false
          | Some fstates' -> step trace' fstates' vs))
    in
    step trace start seq

let check_exact g f seq =
  let m, f0 = exact_start g f in
  replay_exact g m f0 seq
