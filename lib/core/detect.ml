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

(* A set is interned: its members are kernel graph ids, sorted
   ascending, and two sets of one machine with the same members are one
   record with one dense [id]. *)
type set = {
  id : int;
  members : int array;
  mutable applied : (int * set option) list;  (* vector mask -> [exact_apply] *)
}

type frontier =
  | Unexplored
  | Capped
  | Frontier of int array

type machine = {
  fc : Circuit.t;
  kern : Async_sim.Kernel.t;
  k : int;
  max_set : int;
  sets : set Async_sim.Words.Tbl.t;  (* sorted members -> interned set *)
  mutable frontiers : frontier array;  (* per graph id: its k-step frontier *)
}

let machine ?(max_set = 128) ~k kern =
  let fc = Async_sim.Kernel.circuit kern in
  if Circuit.n_inputs fc >= Sys.int_size then
    invalid_arg "Detect.machine: more inputs than a vector mask holds";
  { fc; kern; k; max_set; sets = Async_sim.Words.Tbl.create 64; frontiers = [||] }

let intern m members =
  match Async_sim.Words.Tbl.find_opt m.sets members with
  | Some s -> s
  | None ->
    let s =
      { id = Async_sim.Words.Tbl.length m.sets; members; applied = [] }
    in
    Async_sim.Words.Tbl.replace m.sets members s;
    s

(* The members of [ids], sorted and each once, as a set. *)
let set_of_ids m ids =
  Array.sort Int.compare ids;
  let n = ref 0 in
  Array.iteri
    (fun i e ->
      if i = 0 || e <> ids.(i - 1) then begin
        ids.(!n) <- e;
        incr n
      end)
    ids;
  intern m (Array.sub ids 0 !n)

let of_states m states =
  set_of_ids m (Array.of_list (List.map (Async_sim.Kernel.intern m.kern) states))

let set_id s = s.id

let members m s =
  Array.to_list (Array.map (Async_sim.Kernel.state m.kern) s.members) |> List.sort compare

let product_key g i s = i + (Cssg.n_states g * s.id)

(* The k-step frontier of graph id [e], kept per id: it depends on
   nothing else. *)
let frontier m e =
  if e >= Array.length m.frontiers then begin
    let a = Array.make (max (e + 1) (2 * Array.length m.frontiers)) Unexplored in
    Array.blit m.frontiers 0 a 0 (Array.length m.frontiers);
    m.frontiers <- a
  end;
  match m.frontiers.(e) with
  | Frontier ids -> Some ids
  | Capped -> None
  | Unexplored ->
    let r =
      match Async_sim.Kernel.frontier ~max_frontier:m.max_set m.kern ~k:m.k e with
      | ids -> Frontier ids
      | exception Async_sim.Frontier_limit -> Capped
    in
    m.frontiers.(e) <- r;
    (match r with Frontier ids -> Some ids | _ -> None)

let exact_start ?max_set g f =
  let good = Cssg.circuit g in
  let reset = reset_of g in
  let fc = Fault.inject good f in
  let init = Fault.initial_faulty_state good f reset in
  let m = machine ?max_set ~k:(Cssg.k g) (Async_sim.Kernel.compile fc) in
  let start =
    match frontier m (Async_sim.Kernel.intern m.kern init) with
    | Some ids -> set_of_ids m (Array.copy ids)
    | None -> intern m [||]
    (* An empty start set means "unknown"; exact_differs treats it as
       inconclusive and exact_apply keeps it empty. *)
  in
  (m, start)

let mask_of_vector v =
  let x = ref 0 in
  Array.iteri (fun i b -> if b then x := !x lor (1 lsl i)) v;
  !x

(* The union of the members' frontiers after [v]; [None] as soon as a
   frontier is capped or their sizes sum past [8 * max_set], or when
   the union holds more than [max_set] states.  Each bound is a
   property of the members, not of the order they are taken in. *)
let step m s v =
  let n = Array.length s.members in
  let rec go i count fronts =
    if i = n then Some fronts
    else
      match frontier m (Async_sim.Kernel.apply_inputs m.kern s.members.(i) v) with
      | None -> None
      | Some ids ->
        let count = count + Array.length ids in
        if count > 8 * m.max_set then None else go (i + 1) count (ids :: fronts)
  in
  match go 0 0 [] with
  | None -> None
  | Some fronts ->
    let s' = set_of_ids m (Array.concat fronts) in
    if Array.length s'.members > m.max_set then None else Some s'

(* Kept per (set, vector): a set meets few distinct vectors, one per
   CSSG edge leaving the good states it is paired with. *)
let exact_apply m s v =
  if Array.length s.members = 0 then Some s
  else begin
    if Array.length v <> Circuit.n_inputs m.fc then
      invalid_arg "Circuit.apply_input_vector: wrong vector length";
    let mask = mask_of_vector v in
    let rec memo = function
      | [] -> None
      | (m', r) :: rest -> if m' = mask then Some r else memo rest
    in
    match memo s.applied with
    | Some r -> r
    | None ->
      let r = step m s v in
      s.applied <- (mask, r) :: s.applied;
      r
  end

let exact_differs g i m s =
  let expected = Circuit.output_values (Cssg.circuit g) (Cssg.state g i) in
  Array.length s.members > 0
  && Array.for_all
       (fun e -> Circuit.output_values m.fc (Async_sim.Kernel.state m.kern e) <> expected)
       s.members

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
