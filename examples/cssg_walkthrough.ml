(* Figure 2 of the paper: from the test-mode state graph to the CSSG.

   We use the cross-coupled NOR latch: most vectors are valid, but
   releasing both requests at once races the latch, so that edge is
   pruned.  The CSSG keeps the stable states reachable from reset over
   valid edges.  A state that only a race reaches (like s1 in the
   paper's figure) is left out, since no test can drive the circuit
   into it.  The latch has no such state: valid edges enter both
   outcomes of its race, so both stay nodes.

     dune exec examples/cssg_walkthrough.exe *)

open Satg_circuit
open Satg_sim
open Satg_sg
open Satg_bench

let vec_to_string v =
  String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')

let () =
  let c = Figures.mutex_latch () in
  let reset = Option.get (Circuit.initial c) in
  Format.printf "circuit: %a@." Circuit.pp_stats c;

  (* Classify every vector from every stable state: the TCSG view. *)
  let k = Structure.default_k c in
  let stables = Async_sim.reachable_stable_states c ~k ~from:[ reset ] in
  let race_outcomes = ref [] in
  Format.printf "@.test-mode classification of every (state, vector) pair:@.";
  List.iter
    (fun s ->
      List.iter
        (fun mask ->
          let v = Array.init 2 (fun i -> mask land (1 lsl i) <> 0) in
          if v <> Circuit.input_vector_of_state c s then begin
            let verdict =
              match Async_sim.apply_vector c ~k s v with
              | Async_sim.Settles s' ->
                Printf.sprintf "settles to %s" (Circuit.state_to_string c s')
              | Async_sim.Non_confluent finals ->
                race_outcomes := !race_outcomes @ finals;
                Printf.sprintf "NON-CONFLUENT (%d outcomes) - pruned"
                  (List.length finals)
              | Async_sim.Exceeds_budget -> "unstable at k - pruned"
            in
            Format.printf "   %s --%s--> %s@."
              (Circuit.state_to_string c s)
              (vec_to_string v) verdict
          end)
        [ 0; 1; 2; 3 ])
    stables;

  (* The surviving graph. *)
  let g = Explicit.build c in
  Format.printf "@.the resulting CSSG:@.%a@." Cssg.pp g;

  (* Where the race outcomes went: each is a node only if a valid edge
     enters it (or it is the reset state). *)
  let entries j =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun e ->
            if e.Cssg.target = j then
              Some
                (Printf.sprintf "%s from %s" (vec_to_string e.Cssg.vector)
                   (Circuit.state_to_string c (Cssg.state g i)))
            else None)
          (Cssg.successors g i))
      (List.init (Cssg.n_states g) Fun.id)
  in
  List.iter
    (fun s ->
      match Cssg.id_of_state g s with
      | None ->
        Format.printf "race outcome %s: not a node (no valid edge enters it)@."
          (Circuit.state_to_string c s)
      | Some j ->
        Format.printf "race outcome %s: node [%d]%s, entered by %s@."
          (Circuit.state_to_string c s) j
          (if List.mem j (Cssg.initial g) then " (reset)" else "")
          (String.concat ", " (entries j)))
    !race_outcomes;

  (* Justification: drive the latch to Q=0, QB=1 with both inputs low.
     The shortest route needs two vectors. *)
  let q = Option.get (Circuit.find_node c "Q") in
  let qb = Option.get (Circuit.find_node c "QB") in
  let target i =
    let s = Cssg.state g i in
    (not s.(q)) && s.(qb)
    && not (Circuit.input_vector_of_state c s).(0)
    && not (Circuit.input_vector_of_state c s).(1)
  in
  match Cssg.justify g ~target () with
  | Some (vectors, goal) ->
    Format.printf "@.justifying Q=0 QB=1 R=S=0: apply %s -> state %s@."
      (String.concat " then " (List.map vec_to_string vectors))
      (Circuit.state_to_string c (Cssg.state g goal))
  | None -> Format.printf "justification failed@."
