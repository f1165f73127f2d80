(* Tests for the extension modules: tester-program export, graphviz
   exports, observation-point DFT, gross delay faults, and hierarchical
   composition. *)

open Satg_circuit
open Satg_fault
open Satg_sg
open Satg_core
open Satg_bench

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let get_si name =
  match Suite.speed_independent (Option.get (Suite.find name)) with
  | Ok c -> c
  | Error m -> Alcotest.fail m

let get_bd name =
  match Suite.bounded_delay (Option.get (Suite.find name)) with
  | Ok c -> c
  | Error m -> Alcotest.fail m

(* --- tester program -------------------------------------------------------- *)

let test_tester_program () =
  let c = Figures.celem_handshake () in
  let r = Engine.run c ~faults:(Fault.universe_input_sa c) in
  let p = Tester.of_result r in
  Alcotest.(check bool) "has bursts" true (Tester.n_bursts p > 0);
  Alcotest.(check bool) "has vectors" true (Tester.n_vectors p > 0);
  (* Every detected fault appears in exactly one burst. *)
  let listed =
    List.concat_map (fun b -> b.Tester.targets) p.Tester.bursts
  in
  Alcotest.(check int) "all detections listed"
    (Engine.detected r) (List.length listed);
  (* Expected outputs must match replaying the sequence on the CSSG. *)
  List.iter
    (fun b ->
      let rec follow i steps =
        match steps with
        | [] -> ()
        | s :: rest -> (
          match Cssg.apply r.Engine.cssg i s.Tester.inputs with
          | Some j ->
            Alcotest.(check (array bool))
              "expected outputs"
              (Circuit.output_values c (Cssg.state r.Engine.cssg j))
              s.Tester.expected;
            follow j rest
          | None -> Alcotest.fail "burst step is not a valid edge")
      in
      follow (List.hd (Cssg.initial r.Engine.cssg)) b.Tester.steps)
    p.Tester.bursts;
  let text = Tester.to_string p in
  Alcotest.(check bool) "mentions reset" true (contains text "reset");
  Alcotest.(check bool) "mentions apply" true (contains text "apply")

(* --- dot exports ------------------------------------------------------------ *)

let test_dot_circuit () =
  let c = Figures.fig1b () in
  let dot = Dot.circuit c in
  Alcotest.(check bool) "digraph" true (contains dot "digraph");
  Alcotest.(check bool) "gate label" true (contains dot "NAND");
  (* the feedback loop must show a dashed edge *)
  Alcotest.(check bool) "dashed feedback" true (contains dot "style=dashed")

let test_dot_cssg () =
  let g = Explicit.build (Figures.celem_handshake ()) in
  let dot = Cssg.to_dot g in
  Alcotest.(check bool) "digraph" true (contains dot "digraph");
  Alcotest.(check bool) "labelled edge" true (contains dot "label=\"11\"")

let test_dot_stg () =
  let e = Option.get (Suite.find "ebergen") in
  let dot = Satg_stg.Stg.to_dot e.Suite.stg in
  Alcotest.(check bool) "digraph" true (contains dot "digraph");
  Alcotest.(check bool) "transition box" true (contains dot "ri+");
  Alcotest.(check bool) "marked place" true (contains dot "&bull;")

(* --- DFT -------------------------------------------------------------------- *)

let test_dft_observation_points () =
  (* On the redundant vbe6a, observing internal nodes must recover some
     of the coverage that redundancy destroyed. *)
  let c = get_bd "vbe6a" in
  let imp = Dft.evaluate c ~faults:(Fault.universe_input_sa c) in
  Alcotest.(check bool) "was imperfect" true (imp.Dft.before_detected < imp.Dft.total);
  Alcotest.(check bool) "chose points" true (imp.Dft.points <> []);
  Alcotest.(check bool) "improved" true
    (imp.Dft.after_detected > imp.Dft.before_detected)

let test_dft_noop_when_full () =
  let c = get_si "chu150" in
  let imp = Dft.evaluate c ~faults:(Fault.universe_input_sa c) in
  Alcotest.(check int) "already full" imp.Dft.total imp.Dft.before_detected;
  Alcotest.(check (list int)) "no points" [] imp.Dft.points;
  Alcotest.(check int) "unchanged" imp.Dft.before_detected imp.Dft.after_detected

let test_dft_preserves_behaviour () =
  (* Observation points must not change the CSSG dynamics. *)
  let c = get_bd "vbe6a" in
  let g = Explicit.build c in
  let internal =
    Array.to_list (Circuit.gates c)
    |> List.find (fun gid ->
           not (Array.exists (fun o -> o = gid) (Circuit.outputs c)))
  in
  let c' = Dft.observe c [ internal ] in
  let g' = Explicit.build c' in
  Alcotest.(check int) "same states" (Cssg.n_states g) (Cssg.n_states g');
  Alcotest.(check int) "same edges" (Cssg.n_edges g) (Cssg.n_edges g')

let test_control_points_converta () =
  (* converta's redundant version is activation-limited (its CSSG has a
     single valid edge), so observation points cannot help — but a
     control point on the internal latch opens up the state space and
     recovers most of the coverage. *)
  let c = get_bd "converta" in
  let faults = Fault.universe_input_sa c in
  let before = Engine.run c ~faults in
  let pct r = 100.0 *. float_of_int (Engine.detected r) /. float_of_int (Engine.total r) in
  Alcotest.(check bool) "before is poor" true (pct before < 30.0);
  let y = Option.get (Circuit.find_node c "y") in
  let cp = Dft.insert_control_points c [ y ] in
  Alcotest.(check bool) "validates" true (Circuit.validate cp = Ok ());
  Alcotest.(check int) "one shared tm plus one tv" (Circuit.n_inputs c + 2)
    (Circuit.n_inputs cp);
  let after = Engine.run cp ~faults:(Fault.universe_input_sa cp) in
  Alcotest.(check bool) "after is much better" true (pct after > 60.0)

let test_control_points_behaviour_preserved_when_off () =
  (* With tm at 0 the controlled circuit's CSSG restricted to tm=0,
     tv=const vectors contains the original behaviour: replay a test
     program of the original circuit on the instrumented one. *)
  let c = get_si "vbe6a" in
  let r = Engine.run c ~faults:(Fault.universe_output_sa c) in
  let x = Option.get (Circuit.find_node c "x") in
  let cp = Dft.insert_control_points c [ x ] in
  let gcp = Explicit.build cp in
  let program = Tester.of_result r in
  List.iter
    (fun burst ->
      let rec follow i steps =
        match steps with
        | [] -> ()
        | step :: rest -> (
          (* original vector extended with tm=0 and tv=<reset value> *)
          let tv0 =
            (Option.get (Circuit.initial cp)).((Circuit.inputs cp).(Circuit.n_inputs cp - 1))
          in
          let v =
            Array.append step.Tester.inputs [| false; tv0 |]
          in
          match Cssg.apply gcp i v with
          | Some j ->
            (* outputs agree with the original expectation *)
            let outs = Circuit.output_values cp (Cssg.state gcp j) in
            Alcotest.(check (array bool)) "same outputs" step.Tester.expected outs;
            follow j rest
          | None -> Alcotest.fail "tm=0 edge missing in instrumented CSSG")
      in
      follow (List.hd (Cssg.initial gcp)) burst.Tester.steps)
    program.Tester.bursts

(* --- delay faults ------------------------------------------------------------ *)

let test_delay_universe () =
  let c = Figures.celem_handshake () in
  Alcotest.(check int) "2 per gate" (2 * Circuit.n_gates c)
    (List.length (Delay_fault.universe c))

let test_delay_celem () =
  (* A slow-to-rise C-element is caught by requesting and watching the
     acknowledge fail to arrive. *)
  let c = Figures.celem_handshake () in
  let g = Explicit.build c in
  let cel = Option.get (Circuit.find_node c "c") in
  (match Delay_fault.find_test g { Delay_fault.gate = cel; slow_to = true } with
  | Some seq ->
    Alcotest.(check bool) "replays" true
      (Delay_fault.check g { Delay_fault.gate = cel; slow_to = true } seq)
  | None -> Alcotest.fail "slow-to-rise C-element must be testable");
  let r = Delay_fault.run g in
  Alcotest.(check int) "all delay faults covered"
    (Delay_fault.total r) (Delay_fault.detected r)

let test_delay_untestable_on_oscillator () =
  (* fig1b has no valid vectors: no delay fault can be exercised. *)
  let c = Figures.fig1b () in
  let g = Explicit.build c in
  let r = Delay_fault.run g in
  Alcotest.(check int) "nothing detectable" 0 (Delay_fault.detected r)

let test_delay_capped_search_aborts () =
  (* One product state is too few to differentiate any of master-read's
     delay faults.  A capped search that finds nothing is aborted, never
     reported undetected (the run finds all 12 at the default cap). *)
  let g = Explicit.build (get_si "master-read") in
  let r = Delay_fault.run ~max_states:1 g in
  List.iter
    (fun (f, status) ->
      match status with
      | Delay_fault.Not_found ->
        Alcotest.failf "%s: capped search reported undetected"
          (Delay_fault.to_string r.Delay_fault.circuit f)
      | Delay_fault.Aborted reason ->
        Alcotest.(check string) "capped product" "state-limit"
          (Satg_guard.Guard.reason_to_string reason)
      | Delay_fault.Found _ -> ())
    r.Delay_fault.outcomes;
  Alcotest.(check bool) "some aborted" true (Delay_fault.aborted r > 0);
  Alcotest.(check int) "all found uncapped" 12 (Delay_fault.detected (Delay_fault.run g))

let test_delay_suite_coverage () =
  (* On the SI suite, gross delay coverage should be high: the circuits
     are hazard-free and every gate transition is acknowledged. *)
  List.iter
    (fun nm ->
      let c = get_si nm in
      let g = Explicit.build c in
      let r = Delay_fault.run g in
      let pct =
        100.0 *. float_of_int (Delay_fault.detected r)
        /. float_of_int (Delay_fault.total r)
      in
      Alcotest.(check bool) (nm ^ " delay coverage") true (pct >= 75.0))
    [ "rcv-setup"; "hazard"; "chu150"; "ebergen" ]

(* --- composition -------------------------------------------------------------- *)

let rename name c =
  let text = Parser.to_string c in
  let body =
    String.sub text (String.index text '\n')
      (String.length text - String.index text '\n')
  in
  match Parser.parse_string ("circuit " ^ name ^ body) with
  | Ok c -> c
  | Error m -> Alcotest.fail m

let test_compose_pipeline () =
  let s1 = rename "s1" (get_si "ebergen") in
  let s2 = rename "s2" (get_si "ebergen") in
  match
    Compose.pair ~name:"pipe" ~connect_ab:[ ("ro", "ri") ]
      ~connect_ba:[ ("ai", "ao") ] s1 s2
  with
  | Error m -> Alcotest.fail m
  | Ok pipe ->
    Alcotest.(check bool) "validates" true (Circuit.validate pipe = Ok ());
    (* free inputs: s1.ri and s2.ao *)
    Alcotest.(check int) "2 free inputs" 2 (Circuit.n_inputs pipe);
    Alcotest.(check int) "10 gates" 10 (Circuit.n_gates pipe);
    let g = Explicit.build pipe in
    Alcotest.(check bool) "live graph" true (Cssg.n_edges g > 0);
    let r = Engine.run ~cssg:g pipe ~faults:(Fault.universe_input_sa pipe) in
    Alcotest.(check bool) "high coverage" true (Engine.coverage_pct r >= 90.0)

let test_compose_errors () =
  let s1 = rename "s1" (get_si "ebergen") in
  let s2 = rename "s2" (get_si "ebergen") in
  let check_err r frag =
    match r with
    | Ok _ -> Alcotest.failf "expected error mentioning %s" frag
    | Error m -> Alcotest.(check bool) (frag ^ " in " ^ m) true (contains m frag)
  in
  check_err
    (Compose.pair ~name:"x" ~connect_ab:[ ("nosuch", "ri") ] s1 s2)
    "unknown signal";
  check_err
    (Compose.pair ~name:"x" ~connect_ab:[ ("ro", "nosuch") ] s1 s2)
    "unknown input";
  check_err (Compose.pair ~name:"x" s1 s1) "distinct names";
  (* ri is an input of s1, not an output *)
  check_err
    (Compose.pair ~name:"x" ~connect_ab:[ ("ri", "ri") ] s1 s2)
    "is an input"

let test_compose_three_stages () =
  (* Nesting composition: a three-stage Muller pipeline.  The middle
     handshakes disappear from the tester's view, yet the composite
     remains fully analysable and highly testable. *)
  let s1 = rename "s1" (get_si "ebergen") in
  let s2 = rename "s2" (get_si "ebergen") in
  let s3 = rename "s3" (get_si "ebergen") in
  let pipe2 =
    match
      Compose.pair ~name:"p2" ~connect_ab:[ ("ro", "ri") ]
        ~connect_ba:[ ("ai", "ao") ] s1 s2
    with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  match
    Compose.pair ~name:"p3"
      ~connect_ab:[ ("s2.ro", "ri") ]
      ~connect_ba:[ ("ai", "s2.ao") ]
      pipe2 s3
  with
  | Error m -> Alcotest.fail m
  | Ok pipe3 ->
    Alcotest.(check int) "15 gates" 15 (Circuit.n_gates pipe3);
    Alcotest.(check int) "2 free inputs" 2 (Circuit.n_inputs pipe3);
    let g = Explicit.build pipe3 in
    Alcotest.(check bool) "bigger graph than one stage" true
      (Cssg.n_states g > 6);
    let r = Engine.run ~cssg:g pipe3 ~faults:(Fault.universe_output_sa pipe3) in
    Alcotest.(check bool) "high coverage" true (Engine.coverage_pct r >= 90.0)

let test_compose_series_only () =
  (* Series connection without feedback also works; the dangling
     handshake inputs stay with the tester. *)
  let s1 = rename "u1" (get_si "rcv-setup") in
  let s2 = rename "u2" (get_si "rcv-setup") in
  match Compose.pair ~name:"chain" ~connect_ab:[ ("set", "go") ] s1 s2 with
  | Error m -> Alcotest.fail m
  | Ok chain ->
    Alcotest.(check int) "1 free input" 1 (Circuit.n_inputs chain);
    let g = Explicit.build chain in
    Alcotest.(check bool) "alive" true (Cssg.n_edges g > 0)

(* --- symbolic justification & variable orders -------------------------------- *)

let test_symbolic_justification_same_coverage () =
  List.iter
    (fun make_c ->
      let c = make_c () in
      let faults = Fault.universe_input_sa c in
      let run engine =
        Engine.run
          ~config:{ Engine.default_config with enable_random = false; engine }
          c ~faults
      in
      let base = run Engine.Explicit in
      List.iter
        (fun engine ->
          let r = run engine in
          Alcotest.(check int) "same coverage"
            (Engine.detected base) (Engine.detected r);
          (* and the sequences it finds must replay *)
          List.iter
            (fun o ->
              match o.Testset.status with
              | Testset.Detected { sequence; phase = Testset.Three_phase } ->
                Alcotest.(check bool) "replays" true
                  (Detect.check_exact r.Engine.cssg o.Testset.fault sequence)
              | _ -> ())
            r.Engine.outcomes)
        [ Engine.Bdd; Engine.Sat ])
    [ Figures.celem_handshake; Figures.mutex_latch; (fun () -> get_si "vbe6a") ]

let test_node_order_invariance () =
  (* Any permutation must produce the same CSSG. *)
  let c = get_si "dff" in
  let n = Circuit.n_nodes c in
  let reversed = Array.init n (fun i -> n - 1 - i) in
  let a = Satg_sg.Symbolic.to_cssg (Satg_sg.Symbolic.build c) in
  let b = Satg_sg.Symbolic.to_cssg (Satg_sg.Symbolic.build ~node_order:reversed c) in
  Alcotest.(check int) "states" (Cssg.n_states a) (Cssg.n_states b);
  Alcotest.(check int) "edges" (Cssg.n_edges a) (Cssg.n_edges b)

let test_node_order_validation () =
  let c = get_si "dff" in
  let n = Circuit.n_nodes c in
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Symbolic.build: node_order is not a permutation")
    (fun () ->
      ignore (Satg_sg.Symbolic.build ~node_order:(Array.make n 0) c));
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Symbolic.build: node_order length mismatch")
    (fun () -> ignore (Satg_sg.Symbolic.build ~node_order:[| 0 |] c))

let suites =
  [
    ( "ext.tester",
      [ Alcotest.test_case "program" `Quick test_tester_program ] );
    ( "ext.dot",
      [
        Alcotest.test_case "circuit" `Quick test_dot_circuit;
        Alcotest.test_case "cssg" `Quick test_dot_cssg;
        Alcotest.test_case "stg" `Quick test_dot_stg;
      ] );
    ( "ext.dft",
      [
        Alcotest.test_case "observation points help" `Slow test_dft_observation_points;
        Alcotest.test_case "noop when full" `Quick test_dft_noop_when_full;
        Alcotest.test_case "behaviour preserved" `Quick test_dft_preserves_behaviour;
        Alcotest.test_case "control points (converta)" `Slow
          test_control_points_converta;
        Alcotest.test_case "control points off = original" `Quick
          test_control_points_behaviour_preserved_when_off;
      ] );
    ( "ext.delay",
      [
        Alcotest.test_case "universe" `Quick test_delay_universe;
        Alcotest.test_case "celem" `Quick test_delay_celem;
        Alcotest.test_case "oscillator" `Quick test_delay_untestable_on_oscillator;
        Alcotest.test_case "capped search aborts" `Quick test_delay_capped_search_aborts;
        Alcotest.test_case "suite coverage" `Slow test_delay_suite_coverage;
      ] );
    ( "ext.compose",
      [
        Alcotest.test_case "pipeline" `Quick test_compose_pipeline;
        Alcotest.test_case "errors" `Quick test_compose_errors;
        Alcotest.test_case "three stages" `Slow test_compose_three_stages;
        Alcotest.test_case "series" `Quick test_compose_series_only;
      ] );
    ( "ext.symbolic",
      [
        Alcotest.test_case "symbolic justification" `Slow
          test_symbolic_justification_same_coverage;
        Alcotest.test_case "node order invariance" `Quick
          test_node_order_invariance;
        Alcotest.test_case "node order validation" `Quick
          test_node_order_validation;
      ] );
  ]
