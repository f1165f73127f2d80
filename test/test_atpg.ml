(* Tests for the ATPG engine: random TPG, three-phase ATPG, fault
   simulation, the full pipeline, and the synchronous baseline. *)

open Satg_circuit
open Satg_fault
open Satg_sg
open Satg_core
open Satg_bench

let all_faults c = Fault.universe_input_sa c @ Fault.universe_output_sa c

(* Every claimed detection must replay: the sequence is a valid CSSG
   path, and the checker matching the phase confirms the detection
   (random / fault-sim detections come from ternary packs, so the
   scalar ternary check must agree; three-phase detections come from
   the exact-set search, so the exact checker must agree). *)
let check_result_sound r =
  let g = r.Engine.cssg in
  List.iter
    (fun o ->
      match o.Testset.status with
      | Testset.Undetected | Testset.Aborted _ -> ()
      | Testset.Detected { sequence; phase } ->
        Alcotest.(check bool)
          ("valid path for " ^ Fault.to_string r.Engine.circuit o.Testset.fault)
          true
          (Detect.good_trace g sequence <> None);
        let confirmed =
          match phase with
          | Testset.Three_phase -> Detect.check_exact g o.Testset.fault sequence
          | Testset.Random | Testset.Fault_simulation ->
            Detect.check g o.Testset.fault sequence
        in
        Alcotest.(check bool)
          ("replays for " ^ Fault.to_string r.Engine.circuit o.Testset.fault)
          true confirmed)
    r.Engine.outcomes

let test_engine_celem_full_coverage () =
  let c = Figures.celem_handshake () in
  let r = Engine.run c ~faults:(all_faults c) in
  Alcotest.(check int) "all faults detected" (Engine.total r) (Engine.detected r);
  check_result_sound r

let test_engine_fig1a () =
  let c = Figures.fig1a () in
  let r = Engine.run c ~faults:(all_faults c) in
  Alcotest.(check bool) "high coverage" true (Engine.coverage_pct r >= 90.0);
  check_result_sound r

let test_engine_mutex () =
  let c = Figures.mutex_latch () in
  let r = Engine.run c ~faults:(all_faults c) in
  Alcotest.(check bool) "decent coverage" true (Engine.coverage_pct r >= 75.0);
  check_result_sound r

let test_engine_oscillator_untestable () =
  (* fig1b's CSSG has no valid vectors at all: nothing can be detected
     synchronously except faults visible in the reset state itself. *)
  let c = Figures.fig1b () in
  let d = Option.get (Circuit.find_node c "d") in
  let faults =
    [
      Fault.Output_sa { gate = d; stuck = false };  (* visible at reset: d=1 *)
      Fault.Output_sa { gate = d; stuck = true };  (* invisible: d already 1 *)
    ]
  in
  let r = Engine.run c ~faults in
  Alcotest.(check int) "exactly one detected" 1 (Engine.detected r);
  check_result_sound r;
  match (List.hd r.Engine.outcomes).Testset.status with
  | Testset.Detected { sequence; _ } ->
    Alcotest.(check int) "empty sequence (reset observation)" 0
      (List.length sequence)
  | Testset.Undetected | Testset.Aborted _ ->
    Alcotest.fail "d/sa0 should be caught at reset"

let test_random_tpg_alone () =
  let c = Figures.celem_handshake () in
  let g = Explicit.build c in
  let detected, remaining = Random_tpg.run g ~faults:(all_faults c) in
  Alcotest.(check int) "partition"
    (List.length (all_faults c))
    (List.length detected + List.length remaining);
  Alcotest.(check bool) "random finds a lot" true
    (List.length detected >= List.length (all_faults c) / 2);
  (* Each random detection must replay. *)
  List.iter
    (fun (f, seq) ->
      Alcotest.(check bool) "random replays" true (Detect.check g f seq))
    detected

let test_random_deterministic_seed () =
  let c = Figures.mutex_latch () in
  let g = Explicit.build c in
  let run () =
    let detected, _ = Random_tpg.run g ~faults:(all_faults c) in
    List.map (fun (f, _) -> Fault.to_string c f) detected
  in
  Alcotest.(check (list string)) "same seed, same result" (run ()) (run ())

let test_three_phase_needs_justification () =
  (* C-element output stuck-at-0: the fault is excited only in states
     with c = 1, which need a (1,1) vector to reach — justification must
     produce at least one vector. *)
  let c = Figures.celem_handshake () in
  let g = Explicit.build c in
  let cel = Option.get (Circuit.find_node c "c") in
  let f = Fault.Output_sa { gate = cel; stuck = false } in
  match Three_phase.find_test g f with
  | Some seq ->
    Alcotest.(check bool) "nonempty" true (List.length seq >= 1);
    Alcotest.(check bool) "replays" true (Detect.check g f seq)
  | None -> Alcotest.fail "c/sa0 must be testable"

let test_three_phase_undetectable () =
  (* fig1b d/sa1: the only output already rests at 1 and no vector is
     valid, so no synchronous test exists. *)
  let c = Figures.fig1b () in
  let g = Explicit.build c in
  let d = Option.get (Circuit.find_node c "d") in
  Alcotest.(check bool) "no test" true
    (Three_phase.find_test g (Fault.Output_sa { gate = d; stuck = true }) = None)

(* A C-element with a third input D that no gate reads: the faults on
   D's buffer reach no output, so [find_test] settles them from the
   structure, spending nothing, not even under a guard with no
   transition to spend. *)
let test_three_phase_unobservable () =
  let c =
    match
      Parser.parse_string
        {|circuit celem_spare
input A B D
celem c A B
output c
initial A=0 B=0 D=0 c=0
end|}
    with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  let g = Explicit.build c in
  let node name = Option.get (Circuit.find_node c name) in
  Alcotest.(check bool) "A's buffer reaches c" true
    (Structure.reaches_output c (node "A"));
  Alcotest.(check bool) "D's buffer reaches nothing" false
    (Structure.reaches_output c (node "D"));
  List.iter
    (fun f ->
      let guard = Satg_guard.Guard.create ~max_transitions:0 () in
      Alcotest.(check bool) (Fault.to_string c f ^ ": no test, no search") true
        (Three_phase.find_test ~guard g f = None))
    (List.filter
       (fun f ->
         match f with
         | Fault.Input_sa { gate; _ } | Fault.Output_sa { gate; _ } ->
           gate = node "D")
       (all_faults c));
  Alcotest.(check bool) "c/sa0 still found" true
    (Three_phase.find_test g (Fault.Output_sa { gate = node "c"; stuck = false })
    <> None)

let test_fault_sim_sweep () =
  let c = Figures.celem_handshake () in
  let g = Explicit.build c in
  let cel = Option.get (Circuit.find_node c "c") in
  let f = Fault.Output_sa { gate = cel; stuck = false } in
  let seq = Option.get (Three_phase.find_test g f) in
  (* The same sequence covers several other faults. *)
  let detected, remaining = Detect.sweep g seq (all_faults c) in
  Alcotest.(check bool) "covers more than one" true (List.length detected > 1);
  Alcotest.(check int) "partition"
    (List.length (all_faults c))
    (List.length detected + List.length remaining);
  (* Scalar and parallel detection agree fault by fault. *)
  List.iter
    (fun f ->
      Alcotest.(check bool)
        ("agree " ^ Fault.to_string c f)
        (List.mem f detected) (Detect.check g f seq))
    (all_faults c)

(* A fault list far beyond one 62-bit word sweeps in a single pass:
   one multi-word pack, no batching, no cap — and the partition still
   agrees with the scalar checker fault by fault. *)
let test_big_pack_sweep () =
  let b = Circuit.Builder.create "wide" in
  let a = Circuit.Builder.add_input b "a" in
  let bb = Circuit.Builder.add_input b "b" in
  let n_chain = 60 in
  let last = ref [ a; bb ] in
  let gates =
    List.init n_chain (fun i ->
        let src = List.nth !last (i mod List.length !last) in
        let func = if i mod 2 = 0 then Gatefunc.Buf else Gatefunc.Not in
        let g =
          Circuit.Builder.add_gate b ~name:(Printf.sprintf "g%d" i) func [ src ]
        in
        last := [ g ];
        g)
  in
  List.iteri
    (fun i g -> if i >= n_chain - 2 then Circuit.Builder.mark_output b g)
    gates;
  let c = Circuit.Builder.finalize b in
  let n = Circuit.n_nodes c in
  let zero = Array.make n false in
  let reset =
    match Satg_sim.Async_sim.settle c ~max_steps:(4 * n) zero with
    | Some s -> s
    | None -> Alcotest.fail "chain circuit must settle"
  in
  let c = Circuit.with_initial c reset in
  let faults = all_faults c in
  Alcotest.(check bool) "universe is big" true (List.length faults >= 200);
  (* direct pack creation: no 62-fault ceiling *)
  let pack =
    Satg_sim.Parallel_sim.create c (Array.of_list faults) ~reset
  in
  Alcotest.(check bool) "several words" true
    (Satg_sim.Parallel_sim.n_words pack >= 4);
  Alcotest.(check int) "all machines live" (List.length faults)
    (Satg_sim.Parallel_sim.n_live pack);
  let g = Explicit.build c in
  let seq = [ [| true; true |]; [| false; false |]; [| true; false |] ] in
  Alcotest.(check bool) "valid path" true (Detect.good_trace g seq <> None);
  let detected, remaining = Detect.sweep g seq faults in
  Alcotest.(check int) "partition" (List.length faults)
    (List.length detected + List.length remaining);
  Alcotest.(check bool) "detects plenty" true (List.length detected > 62);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        ("agree " ^ Fault.to_string c f)
        (Detect.check g f seq) (List.mem f detected))
    faults

let test_engine_phases_accounted () =
  let c = Figures.celem_handshake () in
  let r = Engine.run c ~faults:(all_faults c) in
  let rnd = Engine.detected_by r Testset.Random in
  let tph = Engine.detected_by r Testset.Three_phase in
  let sim = Engine.detected_by r Testset.Fault_simulation in
  Alcotest.(check int) "phases partition detections" (Engine.detected r)
    (rnd + tph + sim);
  (* With random enabled and the default walk budget, random should do
     the bulk of the work on this easy circuit. *)
  Alcotest.(check bool) "random carries weight" true (rnd > 0)

let test_engine_no_random () =
  let c = Figures.celem_handshake () in
  let config = { Engine.default_config with enable_random = false } in
  let r = Engine.run ~config c ~faults:(all_faults c) in
  Alcotest.(check int) "random credited nothing" 0
    (Engine.detected_by r Testset.Random);
  Alcotest.(check int) "still full coverage" (Engine.total r) (Engine.detected r);
  check_result_sound r

let test_engine_reuses_cssg () =
  let c = Figures.celem_handshake () in
  let g = Explicit.build c in
  let r = Engine.run ~cssg:g c ~faults:(Fault.universe_output_sa c) in
  Alcotest.(check bool) "same graph" true (r.Engine.cssg == g)

(* --- baseline -------------------------------------------------------------- *)

let test_baseline_celem () =
  (* On a well-behaved circuit the baseline works fine: claims are
     mostly true. *)
  let c = Figures.celem_handshake () in
  let g = Explicit.build c in
  let r = Baseline.run c ~cssg:g ~faults:(Fault.universe_output_sa c) in
  Alcotest.(check bool) "claims something" true (Baseline.claimed r > 0);
  Alcotest.(check bool) "monotone: claimed >= validated" true
    (Baseline.claimed r >= Baseline.validated r);
  Alcotest.(check bool) "monotone: validated >= 0" true (Baseline.validated r >= 0)

let test_baseline_optimism_fig1a () =
  (* fig1a is the non-confluence showcase: the synchronous model never
     sees the pulse race, so the baseline claims tests that the exact
     model rejects, and unit-delay validation cannot catch them all
     (it sees one interleaving only). *)
  let c = Figures.fig1a () in
  let g = Explicit.build c in
  let r = Baseline.run c ~cssg:g ~faults:(all_faults c) in
  Alcotest.(check bool) "claimed > truly valid (optimism)" true
    (Baseline.claimed r > Baseline.truly_detected r);
  Alcotest.(check bool) "claimed >= validated" true
    (Baseline.claimed r >= Baseline.validated r)

(* --- exact faulty-state sets against the list rule ---------------------------- *)

(* The reference [k]-step frontier of the faulty circuit [fc]: the
   string-set exploration of [Async_oracle], capped at [max_set] like
   Detect's, kept per state so the walk stays fast. *)
let oracle_frontier fc ~k ~max_set =
  let memo = Hashtbl.create 64 in
  fun s ->
    let sk = Circuit.state_to_string fc s in
    let r =
      match Hashtbl.find_opt memo sk with
      | Some r -> r
      | None ->
        let r =
          match Async_oracle.states_after ~max_frontier:max_set fc ~k s with
          | states -> Some states
          | exception Satg_sim.Async_sim.Frontier_limit -> None
        in
        Hashtbl.add memo sk r;
        r
    in
    match r with Some states -> states | None -> raise Satg_sim.Async_sim.Frontier_limit

(* Walk every product edge up to [depth] vectors from reset for every
   fault of [faults], stepping Detect's interned sets and the list rule
   of [Async_oracle.exact_apply] side by side.  On each edge the members
   of Detect's set are the reference's, sorted, and Detect's step is
   [None] exactly when the reference's is; a (set, vector) pair met
   again, by a second call or along another path, gives the same set.
   [max_set] is Detect's cap, 128 by default.  Returns the edges walked
   and how many of them were [None]. *)
let walk_exact_sets ?(depth = 3) ?(max_set = 128) name g faults =
  let c = Cssg.circuit g in
  let reset = Option.get (Circuit.initial c) in
  let edges = ref 0 and nones = ref 0 in
  let show states = String.concat "," (List.map (Circuit.state_to_string c) states) in
  List.iter
    (fun f ->
      let what = Printf.sprintf "%s %s" name (Fault.to_string c f) in
      let fc = Fault.inject c f in
      let frontier = oracle_frontier fc ~k:(Cssg.k g) ~max_set in
      let m, start = Detect.exact_start ~max_set g f in
      let want =
        try frontier (Fault.initial_faulty_state c f reset)
        with Satg_sim.Async_sim.Frontier_limit -> []
      in
      Alcotest.(check (list string))
        (what ^ ": start set")
        (List.map (Circuit.state_to_string c) (List.sort compare want))
        (List.map (Circuit.state_to_string c) (Detect.members m start));
      let results = Hashtbl.create 64 in
      let rec walk d i set want =
        if d < depth then
          List.iter
            (fun e ->
              let v = e.Cssg.vector in
              let got = Detect.exact_apply m set v in
              let id = Option.map Detect.set_id got in
              let key = (Detect.set_id set, v) in
              (match Hashtbl.find_opt results key with
              | Some id' when id' <> id -> Alcotest.failf "%s: a repeated (set, vector) pair changed" what
              | Some _ -> ()
              | None -> Hashtbl.add results key id);
              if Option.map Detect.set_id (Detect.exact_apply m set v) <> id then
                Alcotest.failf "%s: a second call changed the set" what;
              incr edges;
              match (got, Async_oracle.exact_apply ~max_set ~frontier fc want v) with
              | None, None -> incr nones
              | Some s, Some want' ->
                let want' = List.sort compare want' in
                if Detect.members m s <> want' then
                  Alcotest.failf "%s: after %s: %s, reference %s" what
                    (Circuit.state_to_string c v) (show (Detect.members m s)) (show want');
                walk (d + 1) e.Cssg.target s want'
              | Some _, None -> Alcotest.failf "%s: a set where the reference has none" what
              | None, Some _ -> Alcotest.failf "%s: no set where the reference has one" what)
            (Cssg.successors g i)
      in
      walk 0 (List.hd (Cssg.initial g)) start want)
    faults;
  (!edges, !nones)

(* dff/bd and vbe6a/bd hold the hottest undetectable faults of the
   table netlists, and trimos-send/bd's faulty frontiers overrun the
   cap. *)
let test_exact_sets_table () =
  let edges = ref 0 and nones = ref 0 in
  List.iter
    (fun name ->
      let e = Option.get (Suite.find name) in
      let c =
        match Suite.bounded_delay e with Ok c -> c | Error m -> Alcotest.failf "%s: %s" name m
      in
      let g = Explicit.build c in
      let n, k = walk_exact_sets (name ^ "/bd") g (all_faults c) in
      edges := !edges + n;
      nones := !nones + k)
    [ "dff"; "vbe6a"; "trimos-send" ];
  Alcotest.(check bool) "edges walked" true (!edges > 1000);
  Alcotest.(check bool) "some steps overrun the cap" true (!nones > 0)

(* The summed-frontier bound, which no walk above reaches: seventeen
   members, each all ones but for one buffer of [a], all step to the one
   all-ones state when [a] stays high.  Past 8 x 2 summed frontier states
   the step is [None] although its union has one member; at a cap of 3
   it is that member. *)
let test_exact_sets_sum_bound () =
  let b = Circuit.Builder.create "buffers" in
  let a = Circuit.Builder.add_input b "a" in
  let bufs =
    List.init 17 (fun i -> Circuit.Builder.add_gate b ~name:(Printf.sprintf "b%d" i) Gatefunc.Buf [ a ])
  in
  Circuit.Builder.mark_output b (List.hd bufs);
  let c = Circuit.Builder.finalize b in
  let k = Structure.default_k c in
  let members = List.map (fun i -> Array.init (Circuit.n_nodes c) (fun n -> n <> i)) bufs in
  List.iter
    (fun (max_set, expected) ->
      let m = Detect.machine ~max_set ~k (Satg_sim.Async_sim.Kernel.compile c) in
      let got = Detect.exact_apply m (Detect.of_states m members) [| true |] in
      let want =
        Async_oracle.exact_apply ~max_set ~frontier:(oracle_frontier c ~k ~max_set) c members
          [| true |]
      in
      let show = function
        | None -> "none"
        | Some states -> String.concat "," (List.map (Circuit.state_to_string c) states)
      in
      Alcotest.(check string)
        (Printf.sprintf "reference at cap %d" max_set)
        expected (show want);
      Alcotest.(check string)
        (Printf.sprintf "interned at cap %d" max_set)
        expected
        (show (Option.map (Detect.members m) got)))
    [ (2, "none"); (3, String.make (Circuit.n_nodes c) '1') ]

let suites =
  [
    ( "atpg.engine",
      [
        Alcotest.test_case "celem full coverage" `Quick test_engine_celem_full_coverage;
        Alcotest.test_case "fig1a" `Quick test_engine_fig1a;
        Alcotest.test_case "mutex" `Quick test_engine_mutex;
        Alcotest.test_case "oscillator" `Quick test_engine_oscillator_untestable;
        Alcotest.test_case "phase accounting" `Quick test_engine_phases_accounted;
        Alcotest.test_case "no random" `Quick test_engine_no_random;
        Alcotest.test_case "cssg reuse" `Quick test_engine_reuses_cssg;
      ] );
    ( "atpg.random",
      [
        Alcotest.test_case "random alone" `Quick test_random_tpg_alone;
        Alcotest.test_case "deterministic seed" `Quick test_random_deterministic_seed;
      ] );
    ( "atpg.three_phase",
      [
        Alcotest.test_case "needs justification" `Quick test_three_phase_needs_justification;
        Alcotest.test_case "undetectable" `Quick test_three_phase_undetectable;
        Alcotest.test_case "unobservable gate" `Quick
          test_three_phase_unobservable;
      ] );
    ( "atpg.exact_sets",
      [
        Alcotest.test_case "table netlists = list rule" `Quick test_exact_sets_table;
        Alcotest.test_case "summed-frontier bound" `Quick test_exact_sets_sum_bound;
      ] );
    ( "atpg.fault_sim",
      [
        Alcotest.test_case "sweep" `Quick test_fault_sim_sweep;
        Alcotest.test_case "big pack one-pass sweep" `Quick test_big_pack_sweep;
      ] );
    ( "atpg.baseline",
      [
        Alcotest.test_case "celem" `Quick test_baseline_celem;
        Alcotest.test_case "optimism on fig1a" `Quick test_baseline_optimism_fig1a;
      ] );
  ]
