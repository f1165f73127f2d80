(* The build contract, measured: CSSG construction must equal the
   reference BFS under every budget, and the pipeline must degrade
   fail-soft (never raise) when a resource guard trips, in the build or
   inside the fault search. *)

open Satg_guard
open Satg_circuit
open Satg_fault
open Satg_sg
open Satg_core
open Satg_bench

(* The pathological example netlists, embedded so the tests do not
   depend on the source tree's layout at test-run time. *)
let ring_storm_text =
  {|circuit ring_storm
input EN X0 X1 X2 X3 X4 X5 X6 X7 X8 X9
gate a NAND EN c
gate b NOT a
gate c NOT b
gate Y0 BUF X0
gate Y1 BUF X1
gate Y2 BUF X2
gate Y3 BUF X3
gate Y4 BUF X4
gate Y5 BUF X5
gate Y6 BUF X6
gate Y7 BUF X7
gate Y8 BUF X8
gate Y9 BUF X9
output c Y0 Y1 Y2 Y3 Y4 Y5 Y6 Y7 Y8 Y9
initial EN=0 X0=0 X1=0 X2=0 X3=0 X4=0 X5=0 X6=0 X7=0 X8=0 X9=0 a=1 b=0 c=1 Y0=0 Y1=0 Y2=0 Y3=0 Y4=0 Y5=0 Y6=0 Y7=0 Y8=0 Y9=0
end
|}

let toggle_farm_text =
  {|circuit toggle_farm
input X0 X1 X2 X3 X4 X5 X6 X7 X8 X9 X10 X11 X12 X13
gate Y0 BUF X0
gate Y1 BUF X1
gate Y2 BUF X2
gate Y3 BUF X3
gate Y4 BUF X4
gate Y5 BUF X5
gate Y6 BUF X6
gate Y7 BUF X7
gate Y8 BUF X8
gate Y9 BUF X9
gate Y10 BUF X10
gate Y11 BUF X11
gate Y12 BUF X12
gate Y13 BUF X13
output Y0 Y1 Y2 Y3 Y4 Y5 Y6 Y7 Y8 Y9 Y10 Y11 Y12 Y13
initial X0=0 X1=0 X2=0 X3=0 X4=0 X5=0 X6=0 X7=0 X8=0 X9=0 X10=0 X11=0 X12=0 X13=0 Y0=0 Y1=0 Y2=0 Y3=0 Y4=0 Y5=0 Y6=0 Y7=0 Y8=0 Y9=0 Y10=0 Y11=0 Y12=0 Y13=0
end
|}

let parse text =
  match Parser.parse_string text with
  | Ok c -> c
  | Error m -> failwith m

(* Caps small enough to keep the pathological pair fast but large
   enough that the truncated graphs are non-trivial. *)
let cap_states = 60
let cap_transitions = 20_000

let capped_guard () =
  Guard.create ~max_states:cap_states ~max_transitions:cap_transitions ()

(* --- CSSG construction = the reference BFS ---------------------------------- *)

(* [Explicit.build] against {!Cssg_oracle.build}, each build under a
   fresh guard from [guard]: states, numbering, edges and truncation
   reason must all match. *)
let check_reference ?(guard = fun () -> Guard.none) name c =
  let want = Cssg_oracle.build ~guard:(guard ()) c in
  Alcotest.(check string) name (Cssg_oracle.dump want)
    (Cssg_oracle.dump (Explicit.build ~guard:(guard ()) c));
  want

let test_build_equals_reference () =
  List.iter
    (fun c -> ignore (check_reference (Circuit.name c) c))
    [ Figures.celem_handshake (); Figures.mutex_latch (); Figures.fig1a () ]

let test_build_capped_equals_reference () =
  List.iter
    (fun text ->
      let c = parse text in
      let want = check_reference ~guard:capped_guard (Circuit.name c) c in
      Alcotest.(check bool)
        (Circuit.name c ^ " truncated")
        true
        (Cssg.truncated want <> None))
    [ ring_storm_text; toggle_farm_text ]

let test_build_state_cap_only () =
  (* A state cap with no transition budget: the build must trip on the
     pair whose target is one state too many, mid-way through that
     state's 2^inputs vectors, and truncate to the reference BFS's
     graph. *)
  let c = parse toggle_farm_text in
  let want =
    check_reference
      ~guard:(fun () -> Guard.create ~max_states:cap_states ())
      "state-cap-only" c
  in
  Alcotest.(check bool) "reference truncated" true (Cssg.truncated want <> None)

(* Every budget that can shape a build, on the paper's table netlists
   and the small family instances: each state cap from 0 to the full
   graph's size, and 17 transition caps spread up to the full build's
   cost.  A graph of n states spends n - 1 (the reset is free), so the
   two largest state caps fit it and must not truncate. *)
let sweep_circuits () =
  let synth name = function
    | Ok c -> c
    | Error m -> Alcotest.failf "%s: %s" name m
  in
  List.concat_map
    (fun (e : Suite.entry) ->
      [ synth e.Suite.name (Suite.speed_independent e);
        synth e.Suite.name (Suite.bounded_delay e) ])
    (Suite.all ())
  @ List.map
      (fun (fname, n) ->
        let name = Printf.sprintf "%s%d" fname n in
        let e = synth name (Suite.generate fname ~n) in
        synth name (Suite.speed_independent e))
      [ ("pipeline", 2); ("pipeline", 3); ("pipeline", 4); ("arbiter", 2);
        ("arbiter", 3); ("ring", 2); ("ring", 3); ("ring", 4); ("fifo", 2);
        ("fifo", 3); ("fifo", 4) ]

let test_cap_sweeps () =
  let truncated = ref 0 and complete = ref 0 in
  List.iteri
    (fun idx c ->
      let name = Printf.sprintf "#%d %s" idx (Circuit.name c) in
      let counter = Guard.create () in
      let full = Cssg_oracle.build ~guard:counter c in
      let cost = Guard.transitions_used counter in
      let check what guard =
        let want = check_reference ~guard (name ^ " " ^ what) c in
        incr (if Cssg.truncated want = None then complete else truncated);
        want
      in
      for cap = 0 to Cssg.n_states full do
        let what = Printf.sprintf "max-states %d" cap in
        let want = check what (fun () -> Guard.create ~max_states:cap ()) in
        if cap >= Cssg.n_states full - 1 then
          Alcotest.(check bool) (name ^ " " ^ what ^ " fits") true
            (Cssg.truncated want = None)
      done;
      for i = 0 to 16 do
        let cap = cost * i / 16 in
        ignore
          (check
             (Printf.sprintf "max-transitions %d" cap)
             (fun () -> Guard.create ~max_transitions:cap ()))
      done)
    (sweep_circuits ());
  Alcotest.(check bool) "some capped builds truncate" true (!truncated > 0);
  Alcotest.(check bool) "some capped builds complete" true (!complete > 0)

(* --- fail-soft degradation inside the search -------------------------------- *)

let test_search_trip_fail_soft () =
  (* a transition budget small enough to trip inside the CSSG build and
     the per-fault searches: the run must complete, flag itself
     partial, and never leak Guard.Exhausted *)
  let c = parse toggle_farm_text in
  let config =
    { Engine.default_config with max_states = Some 40; max_transitions = Some 500 }
  in
  let r = Engine.run ~config c ~faults:(Fault.universe_input_sa c) in
  Alcotest.(check bool) "partial" true (Engine.partial r);
  Alcotest.(check bool) "truncated CSSG" true (Engine.truncated r <> None);
  Alcotest.(check int) "every fault has an outcome"
    (List.length (Fault.universe_input_sa c))
    (List.length r.Engine.outcomes)

let test_search_timeout_fail_soft () =
  (* an already-expired deadline: everything aborts, nothing raises *)
  let c = parse ring_storm_text in
  let config =
    {
      Engine.default_config with
      timeout = Some (-1.0);
      max_states = Some cap_states;
      max_transitions = Some cap_transitions;
    }
  in
  let r = Engine.run ~config c ~faults:(Fault.universe_input_sa c) in
  Alcotest.(check bool) "partial" true (Engine.partial r);
  Alcotest.(check bool) "nothing detected" true (Engine.detected r = 0)

let suites =
  [
    ( "domains.cssg",
      [
        Alcotest.test_case "build = reference (tractable)" `Quick
          test_build_equals_reference;
        Alcotest.test_case "capped build = reference" `Quick
          test_build_capped_equals_reference;
        Alcotest.test_case "state-cap-only build = reference" `Quick
          test_build_state_cap_only;
        Alcotest.test_case "cap sweeps = reference" `Quick test_cap_sweeps;
      ] );
    ( "domains.fail-soft",
      [
        Alcotest.test_case "worker budget trip" `Quick
          test_search_trip_fail_soft;
        Alcotest.test_case "expired deadline" `Quick
          test_search_timeout_fail_soft;
      ] );
  ]
