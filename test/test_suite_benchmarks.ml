(* Suite-wide sanity tests: every bundled benchmark must parse,
   explore, satisfy CSC, synthesize in both styles, produce a usable
   CSSG, and round-trip through the netlist text format with identical
   behaviour.  Slower whole-pipeline checks run on a fixed subset. *)

open Satg_circuit
open Satg_fault
open Satg_stg
open Satg_sg
open Satg_core
open Satg_bench

let test_names_and_lookup () =
  Alcotest.(check int) "23 benchmarks" 23 (List.length Suite.names);
  List.iter
    (fun nm ->
      match Suite.find nm with
      | Some e -> Alcotest.(check string) "name matches" nm e.Suite.name
      | None -> Alcotest.failf "lookup failed for %s" nm)
    Suite.names;
  Alcotest.(check bool) "unknown name" true (Suite.find "nosuch" = None)

let test_all_explore_and_csc () =
  List.iter
    (fun e ->
      match Stg.explore e.Suite.stg with
      | Error m -> Alcotest.failf "%s: %s" e.Suite.name m
      | Ok sg -> (
        Alcotest.(check bool)
          (e.Suite.name ^ " has states")
          true
          (Array.length sg.Stg.states >= 4);
        match Stg.check_csc sg with
        | Ok () -> ()
        | Error m -> Alcotest.failf "%s: %s" e.Suite.name m))
    (Suite.all ())

let test_all_synthesize () =
  List.iter
    (fun e ->
      List.iter
        (fun (label, synth) ->
          match synth e with
          | Error m -> Alcotest.failf "%s (%s): %s" e.Suite.name label m
          | Ok c ->
            Alcotest.(check bool)
              (Printf.sprintf "%s (%s) validates" e.Suite.name label)
              true
              (Circuit.validate c = Ok ());
            (match Circuit.initial c with
            | Some s ->
              Alcotest.(check bool)
                (Printf.sprintf "%s (%s) reset stable" e.Suite.name label)
                true (Circuit.is_stable c s)
            | None ->
              Alcotest.failf "%s (%s): no reset state" e.Suite.name label);
            (* Round-trip through the text format. *)
            (match Parser.parse_string (Parser.to_string c) with
            | Error m ->
              Alcotest.failf "%s (%s) reparse: %s" e.Suite.name label m
            | Ok c' ->
              Alcotest.(check int)
                (Printf.sprintf "%s (%s) same size" e.Suite.name label)
                (Circuit.n_nodes c) (Circuit.n_nodes c')))
        [ ("si", Suite.speed_independent); ("bd", Suite.bounded_delay) ])
    (Suite.all ())

let test_all_cssgs_alive () =
  (* Every speed-independent benchmark must have a non-degenerate
     synchronous abstraction: some state and, except for oscillators
     (none in the suite), some valid vector. *)
  List.iter
    (fun e ->
      match Suite.speed_independent e with
      | Error m -> Alcotest.failf "%s: %s" e.Suite.name m
      | Ok c ->
        let g = Explicit.build c in
        Alcotest.(check bool)
          (e.Suite.name ^ " has states")
          true (Cssg.n_states g >= 2);
        Alcotest.(check bool)
          (e.Suite.name ^ " has edges")
          true (Cssg.n_edges g >= 1))
    (Suite.all ())

let test_si_output_stuck_at_full_coverage () =
  (* The paper's headline theoretical fact (§6): speed-independent
     circuits are 100% output stuck-at testable, and the methodology
     preserves that. *)
  List.iter
    (fun e ->
      match Suite.speed_independent e with
      | Error m -> Alcotest.failf "%s: %s" e.Suite.name m
      | Ok c ->
        let r = Engine.run c ~faults:(Fault.universe_output_sa c) in
        Alcotest.(check int)
          (e.Suite.name ^ " output-sa coverage")
          (Engine.total r) (Engine.detected r))
    (Suite.all ())

let test_redundant_family_shape () =
  (* Table 2's qualitative finding: the redundant (hazard-free)
     versions of the latch-style benchmarks lose coverage, the others
     stay close to full. *)
  let coverage e =
    match Suite.bounded_delay e with
    | Error m -> Alcotest.failf "%s: %s" e.Suite.name m
    | Ok c ->
      let r = Engine.run c ~faults:(Fault.universe_input_sa c) in
      100.0 *. float_of_int (Engine.detected r) /. float_of_int (Engine.total r)
  in
  let poor = [ "converta"; "trimos-send"; "vbe10b" ] in
  let clean = [ "chu150"; "ebergen"; "rcv-setup"; "seq4" ] in
  List.iter
    (fun nm ->
      let e = Option.get (Suite.find nm) in
      Alcotest.(check bool)
        (nm ^ " poor coverage") true
        (coverage e < 80.0))
    poor;
  List.iter
    (fun nm ->
      let e = Option.get (Suite.find nm) in
      Alcotest.(check bool)
        (nm ^ " clean coverage") true
        (coverage e >= 95.0))
    clean

(* The 46 table netlists (Table 1's complex-gate and Table 2's
   bounded-delay synthesis of every suite STG), the decomposed
   pipeline3 (eight of the ten stable states it reaches in test mode
   are reached only through races) and the families conformance
   ladder. *)
let corpus () =
  let ok name = function Ok c -> c | Error m -> Alcotest.failf "%s: %s" name m in
  List.concat_map
    (fun e ->
      [
        (e.Suite.name ^ "/si", ok e.Suite.name (Suite.speed_independent e));
        (e.Suite.name ^ "/bd", ok e.Suite.name (Suite.bounded_delay e));
      ])
    (Suite.all ())
  @ ( "pipeline3/decomposed",
      let e = ok "pipeline3" (Suite.generate "pipeline" ~n:3) in
      ok "pipeline3" (Synth.decomposed e.Suite.stg) )
    :: List.map Test_families.build Test_families.instances

let test_symbolic_agrees_on_benchmarks () =
  (* Whole graphs: the build, the BDD engine and the pure-exploration
     reference.  trimos-send/bd is left out: its symbolic build takes
     seconds and its pure exploration minutes. *)
  List.iter
    (fun (name, c) ->
      if name <> "trimos-send/bd" then begin
        let k = Structure.default_k c in
        let graph = Cssg_oracle.canonical (Explicit.build ~k c) in
        Alcotest.(check bool) (name ^ " explicit = bdd") true
          (graph = Cssg_oracle.canonical (Symbolic.to_cssg (Symbolic.build ~k c)));
        Alcotest.(check bool) (name ^ " explicit = pure reference") true
          (graph = Cssg_oracle.canonical (Cssg_oracle.build ~exploration:`Pure ~k c))
      end)
    (corpus ())

let test_every_state_reachable_over_valid_edges () =
  (* No builder keeps a state that only a race reaches: every state of
     a complete graph is reachable from reset over valid edges. *)
  List.iter
    (fun (name, c) ->
      let g = Explicit.build c in
      Alcotest.(check bool) (name ^ " complete") true (Cssg.truncated g = None);
      List.iter
        (fun i ->
          if not (Cssg.deterministically_reachable g i) then
            Alcotest.failf "%s: state %s is not reachable over valid edges" name
              (Circuit.state_to_string c (Cssg.state g i)))
        (List.init (Cssg.n_states g) Fun.id))
    (corpus ())

let test_three_phase_sequences_replay_exactly () =
  (* Every three-phase test found on a redundant circuit must replay
     under the exact-set checker (the stronger of the two). *)
  let e = Option.get (Suite.find "vbe6a") in
  match Suite.bounded_delay e with
  | Error m -> Alcotest.fail m
  | Ok c ->
    let g = Explicit.build c in
    let r =
      Engine.run
        ~config:{ Engine.default_config with enable_random = false }
        ~cssg:g c ~faults:(Fault.universe_input_sa c)
    in
    List.iter
      (fun o ->
        match o.Testset.status with
        | Testset.Detected { sequence; phase = Testset.Three_phase } ->
          Alcotest.(check bool)
            ("replays " ^ Fault.to_string c o.Testset.fault)
            true
            (Detect.check_exact g o.Testset.fault sequence)
        | _ -> ())
      r.Engine.outcomes

let suites =
  [
    ( "suite",
      [
        Alcotest.test_case "names and lookup" `Quick test_names_and_lookup;
        Alcotest.test_case "explore + csc" `Quick test_all_explore_and_csc;
        Alcotest.test_case "synthesize both styles" `Quick test_all_synthesize;
        Alcotest.test_case "cssgs alive" `Quick test_all_cssgs_alive;
        Alcotest.test_case "SI output-sa 100%" `Slow test_si_output_stuck_at_full_coverage;
        Alcotest.test_case "redundant family shape" `Slow test_redundant_family_shape;
        Alcotest.test_case "symbolic agrees (benchmarks)" `Slow test_symbolic_agrees_on_benchmarks;
        Alcotest.test_case "every state valid-edge reachable" `Quick
          test_every_state_reachable_over_valid_edges;
        Alcotest.test_case "3-phase replays exactly" `Slow test_three_phase_sequences_replay_exactly;
      ] );
  ]
