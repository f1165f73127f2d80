(* Cross-engine conformance over the generated benchmark families: the
   explicit BFS, BDD and SAT deterministic engines must report the same
   detected/undetected fault partition on every family instance, the
   domain-pool pipeline must be invariant in -j, the SAT engine must
   keep its solver count at one per worker, and bit-parallel fault
   simulation must agree lane-for-lane with scalar ternary
   simulation. *)

open Satg_logic
open Satg_circuit
open Satg_fault
open Satg_sim
open Satg_core
open Satg_stg
open Satg_concepts
module Sat = Satg_sat.Sat

(* The conformance ladder: every family at CI-tractable sizes, both
   synthesis styles where they differ. *)
let instances =
  [
    ("pipeline", 1, `Complex);
    ("pipeline", 2, `Complex);
    ("pipeline", 3, `Complex);
    ("arbiter", 2, `Complex);
    ("arbiter", 3, `Complex);
    ("ring", 2, `Complex);
    ("ring", 4, `Complex);
    ("ring", 8, `Complex);
    ("fifo", 2, `Complex);
    ("fifo", 3, `Complex);
    ("fifo", 4, `Complex);
    ("fifo", 2, `Redundant);
    ("latch", 1, `Redundant);
    ("latch", 2, `Redundant);
  ]

let synthesize (fname, n, style) =
  let stg =
    match Families.generate fname ~n with
    | Ok stg -> stg
    | Error m -> Alcotest.failf "%s n=%d: %s" fname n m
  in
  let circuit =
    match
      match style with
      | `Complex -> Synth.complex_gate stg
      | `Redundant -> Synth.decomposed ~redundant:true stg
    with
    | Ok c -> c
    | Error m -> Alcotest.failf "%s n=%d: synth: %s" fname n m
  in
  (Printf.sprintf "%s%d/%s" fname n
     (match style with `Complex -> "cg" | `Redundant -> "hf"),
   circuit)

(* Synthesizing ring 8 takes about a second and five tests build the
   ladder, so each instance is synthesized once. *)
let built = Hashtbl.create 16

let build inst =
  match Hashtbl.find_opt built inst with
  | Some named -> named
  | None ->
    let named = synthesize inst in
    Hashtbl.replace built inst named;
    named

let deterministic_config engine =
  { Engine.default_config with engine; enable_random = false }

(* The conformance view of a run: who was detected.  Sequences may
   legitimately differ between engines; the partition may not. *)
let partition (r : Engine.result) =
  List.map
    (fun o ->
      ( Fault.to_string r.Engine.circuit o.Testset.fault,
        match o.Testset.status with
        | Testset.Detected _ -> "detected"
        | Testset.Undetected -> "undetected"
        | Testset.Aborted _ -> "aborted" ))
    r.Engine.outcomes

let test_engines_agree () =
  List.iter
    (fun inst ->
      let nm, c = build inst in
      let faults = Fault.universe_input_sa c in
      let run engine =
        Engine.run ~config:(deterministic_config engine) c ~faults
      in
      let exp = run Engine.Explicit in
      let bdd = run Engine.Bdd in
      let sat = run Engine.Sat in
      let bdd_sift =
        Engine.run
          ~config:
            {
              (deterministic_config Engine.Bdd) with
              Engine.reorder = Satg_bdd.Bdd.Reorder_sift;
            }
          c ~faults
      in
      let bdd_cap1 =
        Engine.run
          ~config:
            { (deterministic_config Engine.Bdd) with Engine.cluster_cap = 1 }
          c ~faults
      in
      Alcotest.(check (list (pair string string)))
        (nm ^ ": explicit = bdd") (partition exp) (partition bdd);
      Alcotest.(check (list (pair string string)))
        (nm ^ ": explicit = bdd+sift") (partition exp) (partition bdd_sift);
      Alcotest.(check (list (pair string string)))
        (nm ^ ": explicit = bdd cluster-cap 1") (partition exp)
        (partition bdd_cap1);
      Alcotest.(check (list (pair string string)))
        (nm ^ ": explicit = sat") (partition exp) (partition sat);
      Alcotest.(check bool) (nm ^ ": complete run") false (Engine.partial exp);
      (* sifting frees what its swaps orphan, so it stays within 2x of
         the unsifted store *)
      let peak r = (Option.get r.Engine.bdd_stats).Satg_bdd.Bdd.peak_nodes in
      Alcotest.(check bool)
        (Printf.sprintf "%s: bdd+sift peak %d <= 2 x %d" nm (peak bdd_sift)
           (peak bdd))
        true
        (peak bdd_sift <= 2 * peak bdd))
    instances

let test_jobs_determinism () =
  (* The full production pipeline (random phase on) at -j1 and -j4:
     identical outcome lists, sequences included, fault by fault. *)
  List.iter
    (fun inst ->
      let nm, c = build inst in
      let faults = Fault.universe_input_sa c in
      let run jobs =
        Engine.run ~config:{ Engine.default_config with jobs } c ~faults
      in
      let r1 = run 1 and r4 = run 4 in
      Alcotest.(check bool)
        (nm ^ ": -j1 = -j4 outcomes") true
        (r1.Engine.outcomes = r4.Engine.outcomes))
    instances

let test_sat_searches_for_real () =
  (* Acceptance gate: at least one CI-tractable generated instance
     forces the CDCL engine into genuine search (nonzero decisions)
     and exercises cross-fault clause retention (nonzero reused-shared
     hits on the long-lived instance) — while still agreeing with the
     explicit engine.  Conflicts are NOT required: the time-frame
     encoding is propagation-complete on these families, so the shared
     instance resolves every query by unit propagation alone (see
     docs/PERF.md). *)
  let hits =
    List.filter_map
      (fun inst ->
        let nm, c = build inst in
        let faults = Fault.universe_input_sa c in
        let sat = Engine.run ~config:(deterministic_config Engine.Sat) c ~faults in
        match sat.Engine.sat_stats with
        | None -> Alcotest.failf "%s: sat engine reported no stats" nm
        | Some s ->
          let exp =
            Engine.run ~config:(deterministic_config Engine.Explicit) c ~faults
          in
          Alcotest.(check (list (pair string string)))
            (nm ^ ": partition agrees under search") (partition exp)
            (partition sat);
          Alcotest.(check int)
            (nm ^ ": one solver instance per sequential run")
            1 s.Sat.instances;
          if s.Sat.decisions > 0 && s.Sat.reused_shared > 0 then Some (nm, s)
          else None)
      instances
  in
  Alcotest.(check bool)
    "some family instance yields nonzero SAT decisions and shared-clause reuse"
    true (hits <> [])

let test_sat_instances_o_workers () =
  (* Through the full pool: the per-run solver-instance count follows
     the worker count, never the fault count. *)
  let _, c = build ("pipeline", 3, `Complex) in
  let faults = Fault.universe_input_sa c @ Fault.universe_output_sa c in
  let run jobs =
    Engine.run
      ~config:{ (deterministic_config Engine.Sat) with jobs }
      c ~faults
  in
  let instances r =
    match r.Engine.sat_stats with
    | Some s -> s.Sat.instances
    | None -> Alcotest.fail "sat engine reported no stats"
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check int) "-j1: one instance" 1 (instances r1);
  Alcotest.(check bool) "-j4: at most one instance per worker" true
    (instances r4 <= 4);
  Alcotest.(check bool) "-j4: far fewer instances than faults" true
    (instances r4 < List.length faults);
  Alcotest.(check (list (pair string string)))
    "-j1 = -j4 partition" (partition r1) (partition r4)

let test_parallel_sim_lane_equality () =
  (* Bit-parallel fault packs vs standalone scalar ternary simulation,
     every lane, every node, after reset and after each vector — on a
     generated instance whose universe spans several machine words. *)
  let _, c = build ("pipeline", 3, `Complex) in
  let reset = Option.get (Circuit.initial c) in
  let base = Fault.universe_input_sa c @ Fault.universe_output_sa c in
  let rec grow fs =
    if List.length fs > Parallel_sim.word_size then fs else grow (fs @ base)
  in
  let faults = Array.of_list (grow base) in
  let pack = Parallel_sim.create c faults ~reset in
  Alcotest.(check bool) "universe spans multiple words" true
    (Parallel_sim.n_words pack >= 2);
  let scalar =
    Array.map
      (fun f ->
        let fc = Fault.inject c f in
        let init =
          Ternary_sim.of_bool_state (Fault.initial_faulty_state c f reset)
        in
        let v0 = Circuit.input_vector_of_state c reset in
        (fc, ref (Ternary_sim.apply_vector fc init v0)))
      faults
  in
  let compare_all tag =
    Array.iteri
      (fun m (_, st) ->
        let got = Parallel_sim.machine_state pack m in
        for node = 0 to Circuit.n_nodes c - 1 do
          if not (Ternary.equal !st.(node) got.(node)) then
            Alcotest.failf "%s: lane %d disagrees at node %s" tag m
              (Circuit.node_name c node)
        done)
      scalar
  in
  compare_all "reset";
  (* walk the good machine's handshake: raise r, let the wave pass,
     answer with a, and back — plus a couple of adversarial vectors *)
  let vec bits = Array.init (Circuit.n_inputs c) (fun i -> List.nth bits i) in
  List.iteri
    (fun k v ->
      Parallel_sim.apply_vector pack v;
      Array.iter (fun (fc, st) -> st := Ternary_sim.apply_vector fc !st v) scalar;
      compare_all (Printf.sprintf "vector %d" k))
    [
      vec [ true; false ]; vec [ true; true ]; vec [ false; true ];
      vec [ false; false ]; vec [ true; true ]; vec [ false; false ];
    ]

(* Random concept compositions, cross-checked the same way: compile a
   random consistent composition (Test_concepts' generator), synthesize
   it, and demand the three-way partition agreement. *)
let prop_random_compositions_conform =
  QCheck.Test.make ~name:"families: random compositions, engines agree"
    ~count:15 Test_concepts.rt_arb (fun s ->
      let spec = Test_concepts.rt_build s in
      match Concepts.compile ~name:"rand" spec with
      | Error m -> QCheck.Test.fail_reportf "compile: %s" m
      | Ok stg -> (
        match Synth.complex_gate stg with
        | Error m -> QCheck.Test.fail_reportf "synth: %s" m
        | Ok c ->
          let faults = Fault.universe_input_sa c in
          let run engine =
            Engine.run ~config:(deterministic_config engine) c ~faults
          in
          let exp = partition (run Engine.Explicit) in
          exp = partition (run Engine.Bdd)
          && exp = partition (run Engine.Sat)))

(* QCHECK_SEED=358699866 draws three SOP buffers over seven inputs,
   four of which no gate reads: eight env-pin faults that no output
   observes.  Every engine once proved them undetectable by a full
   product search, 80 s for this property; [Three_phase.find_test] now
   settles them from the netlist's structure. *)
let pinned_compositions =
  List.map
    (fun seed ->
      let name, speed, run =
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |])
          prop_random_compositions_conform
      in
      (Printf.sprintf "%s (seed %d)" name seed, speed, run))
    [ 358699866 ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_random_compositions_conform ]
  @ pinned_compositions

let suites =
  [
    ( "families_conformance",
      [
        Alcotest.test_case "explicit = bdd = sat partitions" `Quick
          test_engines_agree;
        Alcotest.test_case "-j1 = -j4 = sequential" `Quick test_jobs_determinism;
        Alcotest.test_case "SAT records real search" `Quick
          test_sat_searches_for_real;
        Alcotest.test_case "SAT instances follow workers" `Quick
          test_sat_instances_o_workers;
        Alcotest.test_case "parallel-sim lane equality" `Quick
          test_parallel_sim_lane_equality;
      ]
      @ qcheck_cases );
  ]
