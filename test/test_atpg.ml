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
