(* Bechamel benchmarks: one measured workload per paper artefact
   (tables 1 and 2, the figure-1 pathologies, the section-6.1 baseline)
   plus microbenchmarks of every substrate the artefacts are built on.

     dune exec bench/main.exe *)

open Bechamel
open Toolkit
open Satg_logic
open Satg_bdd
open Satg_circuit
open Satg_fault
open Satg_sim
open Satg_sg
open Satg_stg
open Satg_core
open Satg_bench

let get_entry name = Option.get (Suite.find name)

let get_circuit synth name =
  match synth (get_entry name) with
  | Ok c -> c
  | Error m -> failwith m

(* --- substrate microbenches ---------------------------------------------- *)

let bench_bdd =
  Test.make ~name:"bdd/relational-product"
    (Staged.stage (fun () ->
         let m = Bdd.create ~nvars:24 () in
         let rel = ref (Bdd.one m) in
         for i = 0 to 7 do
           rel :=
             Bdd.and_ m !rel
               (Bdd.iff m (Bdd.var m (3 * i)) (Bdd.var m ((3 * i) + 1)))
         done;
         let src = Bdd.var m 0 in
         ignore
           (Bdd.and_exists m
              ~vars:(List.init 8 (fun i -> 3 * i))
              src !rel)))

let bench_qm =
  Test.make ~name:"logic/quine-mccluskey"
    (Staged.stage (fun () ->
         ignore (Qm.minimize ~n:4 ~on:[ 4; 8; 10; 11; 12; 15 ] ~dc:[ 9; 14 ]);
         ignore
           (Qm.minimize ~n:6
              ~on:[ 0; 3; 5; 9; 17; 21; 29; 33; 41; 45; 53; 61; 62 ]
              ~dc:[ 2; 12; 22; 32; 42; 52 ])))

let bench_ternary =
  let c = get_circuit Suite.speed_independent "master-read" in
  let reset = Option.get (Circuit.initial c) in
  Test.make ~name:"sim/ternary-test-cycle"
    (Staged.stage (fun () ->
         ignore
           (Ternary_sim.apply_vector c
              (Ternary_sim.of_bool_state reset)
              [| true; false; false |])))

let bench_parallel =
  let c = get_circuit Suite.speed_independent "master-read" in
  let reset = Option.get (Circuit.initial c) in
  (* the whole universe in one multi-word pack — no 62-fault cap *)
  let faults =
    Array.of_list (Fault.universe_input_sa c @ Fault.universe_output_sa c)
  in
  Test.make ~name:"sim/parallel-fault-pack"
    (Staged.stage (fun () ->
         let pack = Parallel_sim.create c faults ~reset in
         Parallel_sim.apply_vector pack [| true; false; false |];
         Parallel_sim.apply_vector pack [| true; true; false |]))

let bench_exact_exploration =
  let c = Figures.mutex_latch () in
  let reset = Option.get (Circuit.initial c) in
  Test.make ~name:"sim/exact-exploration"
    (Staged.stage (fun () ->
         ignore (Async_sim.apply_vector c ~k:24 reset [| true; true |])))

let bench_stg =
  let e = get_entry "ebergen" in
  Test.make ~name:"stg/explore+synthesize"
    (Staged.stage (fun () ->
         match Synth.complex_gate e.Suite.stg with
         | Ok _ -> ()
         | Error m -> failwith m))

let bench_symbolic =
  let c = Figures.celem_handshake () in
  Test.make ~name:"sg/symbolic-cssg"
    (Staged.stage (fun () -> ignore (Symbolic.build c)))

(* --- figure artefacts ------------------------------------------------------ *)

let bench_fig1a =
  let c = Figures.fig1a () in
  let reset = Option.get (Circuit.initial c) in
  Test.make ~name:"fig1a/non-confluence-detection"
    (Staged.stage (fun () ->
         match Async_sim.apply_vector c ~k:64 reset [| true; false |] with
         | Async_sim.Non_confluent _ -> ()
         | _ -> failwith "fig1a misclassified"))

let bench_fig1b =
  let c = Figures.fig1b () in
  let reset = Option.get (Circuit.initial c) in
  Test.make ~name:"fig1b/oscillation-detection"
    (Staged.stage (fun () ->
         match Async_sim.classify_vector c ~k:64 reset [| true |] with
         | Async_sim.C_invalid -> ()
         | _ -> failwith "fig1b misclassified"))

let bench_fig2 =
  let c = Figures.mutex_latch () in
  Test.make ~name:"fig2/cssg-construction"
    (Staged.stage (fun () -> ignore (Explicit.build c)))

(* --- table artefacts ------------------------------------------------------- *)

(* One full table row (synthesis done): CSSG + ATPG on both universes. *)
let table_row circuit () =
  let g = Explicit.build circuit in
  let out_r =
    Engine.run ~cssg:g circuit ~faults:(Fault.universe_output_sa circuit)
  in
  let in_r =
    Engine.run ~cssg:g circuit ~faults:(Fault.universe_input_sa circuit)
  in
  ignore (Engine.detected out_r + Engine.detected in_r)

let bench_table1_small =
  let c = get_circuit Suite.speed_independent "vbe6a" in
  Test.make ~name:"table1/row-vbe6a" (Staged.stage (table_row c))

let bench_table1_large =
  let c = get_circuit Suite.speed_independent "master-read" in
  Test.make ~name:"table1/row-master-read" (Staged.stage (table_row c))

let bench_table2_clean =
  let c = get_circuit Suite.bounded_delay "hazard" in
  Test.make ~name:"table2/row-hazard" (Staged.stage (table_row c))

let bench_table2_redundant =
  (* the redundancy showcase: undetectable-fault searches dominate *)
  let c = get_circuit Suite.bounded_delay "vbe6a" in
  Test.make ~name:"table2/row-vbe6a-redundant" (Staged.stage (table_row c))

let bench_timed_replay =
  let c = get_circuit Suite.speed_independent "ebergen" in
  let reset = Option.get (Circuit.initial c) in
  let delays = Timed_sim.random_delays c ~seed:9 in
  Test.make ~name:"sim/timed-burst-replay"
    (Staged.stage (fun () ->
         let sim = Timed_sim.create c ~delays reset in
         ignore (Timed_sim.apply_vector sim [| true; false |]);
         ignore (Timed_sim.apply_vector sim [| false; false |])))

let bench_delay_fault =
  let c = get_circuit Suite.speed_independent "vbe6a" in
  let g = Explicit.build c in
  Test.make ~name:"delay/row-vbe6a"
    (Staged.stage (fun () -> ignore (Delay_fault.run g)))

let bench_baseline =
  let c = get_circuit Suite.speed_independent "vbe6a" in
  let g = Explicit.build c in
  let faults = Fault.universe_output_sa c in
  Test.make ~name:"baseline/row-vbe6a"
    (Staged.stage (fun () -> ignore (Baseline.run c ~cssg:g ~faults)))

(* --- parallel fault-sim throughput ----------------------------------------- *)

(* Head-to-head: one multi-word Parallel_sim pack over the whole fault
   universe versus one scalar Ternary_sim run per fault, on the same
   deterministic vector stream.  The result (patterns/sec each way and
   the speedup) is written to BENCH_parallel_sim.json — the first data
   point of the perf trajectory (see docs/PERF.md). *)

let toggle_farm_fallback () =
  let n = 14 in
  let b = Circuit.Builder.create "toggle_farm" in
  let xs =
    List.init n (fun i -> Circuit.Builder.add_input b (Printf.sprintf "X%d" i))
  in
  let ys =
    List.mapi
      (fun i x ->
        Circuit.Builder.add_gate b ~name:(Printf.sprintf "Y%d" i) Gatefunc.Buf
          [ x ])
      xs
  in
  List.iter (Circuit.Builder.mark_output b) ys;
  let c = Circuit.Builder.finalize b in
  Circuit.with_initial c (Array.make (Circuit.n_nodes c) false)

let load_netlist path =
  if Sys.file_exists path then
    match Parser.parse_file path with
    | Ok c -> c
    | Error m -> failwith (path ^ ": " ^ m)
  else toggle_farm_fallback ()

(* Deterministic vector stream (xorshift), identical for both sides. *)
let vector_stream n_inputs n =
  let state = ref 0x2545F4914F6CDD1D in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x;
    x
  in
  List.init n (fun _ ->
      let bits = next () in
      Array.init n_inputs (fun i -> (bits lsr i) land 1 = 1))

(* Wall-clock a thunk, repeating until the total is long enough to
   trust (>= 0.2 s) and reporting seconds per repetition. *)
let time_thunk f =
  let rec go reps acc =
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    let acc = acc +. dt in
    if acc >= 0.2 || reps >= 9 then acc /. float_of_int (reps + 1)
    else go (reps + 1) acc
  in
  go 0 0.0

let fault_sim_bench path =
  let c = load_netlist path in
  let reset =
    match Circuit.initial c with
    | Some s -> s
    | None -> failwith "fault-sim bench: netlist has no reset state"
  in
  let faults =
    Array.of_list (Fault.universe_input_sa c @ Fault.universe_output_sa c)
  in
  let n_faults = Array.length faults in
  let n_vectors = 64 in
  let vectors = vector_stream (Circuit.n_inputs c) n_vectors in
  let parallel_seconds =
    time_thunk (fun () ->
        let pack = Parallel_sim.create c faults ~reset in
        List.iter (fun v -> Parallel_sim.apply_vector pack v) vectors)
  in
  let scalar_seconds =
    time_thunk (fun () ->
        Array.iter
          (fun f ->
            let fc = Fault.inject c f in
            let st =
              ref
                (Ternary_sim.of_bool_state (Fault.initial_faulty_state c f reset))
            in
            let v0 = Circuit.input_vector_of_state c reset in
            st := Ternary_sim.apply_vector fc !st v0;
            List.iter (fun v -> st := Ternary_sim.apply_vector fc !st v) vectors)
          faults)
  in
  (* Fault-dropping detection pass (good machine simulated alongside),
     for the record: how many of the universe the stream catches. *)
  let pack = Parallel_sim.create c faults ~reset in
  let good = ref (Ternary_sim.of_bool_state reset) in
  let detected = ref 0 in
  List.iter
    (fun v ->
      if Parallel_sim.n_live pack > 0 then begin
        Parallel_sim.apply_vector pack v;
        good := Ternary_sim.apply_vector c !good v;
        detected :=
          !detected
          + List.length
              (Parallel_sim.detected pack
                 ~good_outputs:(Ternary_sim.outputs c !good))
      end)
    vectors;
  let patterns = float_of_int (n_faults * n_vectors) in
  let parallel_pps = patterns /. parallel_seconds in
  let scalar_pps = patterns /. scalar_seconds in
  let speedup = scalar_seconds /. parallel_seconds in
  let json =
    Printf.sprintf
      {|{
  "bench": "parallel_fault_sim",
  "circuit": "%s",
  "n_faults": %d,
  "n_words": %d,
  "n_vectors": %d,
  "detected_by_stream": %d,
  "parallel": { "seconds": %.6f, "patterns_per_sec": %.1f },
  "scalar_ternary": { "seconds": %.6f, "patterns_per_sec": %.1f },
  "speedup": %.2f
}
|}
      (Circuit.name c) n_faults
      (Parallel_sim.n_words pack)
      n_vectors !detected parallel_seconds parallel_pps scalar_seconds
      scalar_pps speedup
  in
  let oc = open_out "BENCH_parallel_sim.json" in
  output_string oc json;
  close_out oc;
  Printf.printf
    "parallel fault sim (%s): %d faults x %d vectors\n\
    \  pack:   %8.4f s  (%10.1f patterns/s, %d words)\n\
    \  scalar: %8.4f s  (%10.1f patterns/s)\n\
    \  speedup: %.2fx  -> BENCH_parallel_sim.json\n"
    (Circuit.name c) n_faults n_vectors parallel_seconds parallel_pps
    (Parallel_sim.n_words pack)
    scalar_seconds scalar_pps speedup

(* --- SAT vs BDD deterministic-phase head-to-head ---------------------------- *)

(* The two justification/differentiation backends race through the full
   ATPG pipeline on the figure-1 pathology pair.  Unguarded BDD image
   computation is intractable on both circuits (minutes), so the race
   runs under the same deterministic resource caps the CI agreement job
   uses; both sides then produce sound partial results and the bench
   also checks their detected/undetected partitions coincide.  The
   result goes to BENCH_sat.json. *)

let sat_netlists =
  [ "examples/netlists/ring_storm.cct"; "examples/netlists/toggle_farm.cct" ]

(* The deterministic caps shared with the domain-pool bench and the CI
   backend-agreement job. *)
let sat_cap_states = 500
let sat_cap_transitions = 200_000

let sat_engine_bench () =
  let row path =
    let c = load_netlist path in
    let faults = Fault.universe_input_sa c in
    (* one shared capped CSSG, so the timing isolates the backends *)
    let g =
      Explicit.build
        ~guard:
          (Satg_guard.Guard.create ~max_states:sat_cap_states
             ~max_transitions:sat_cap_transitions ())
        c
    in
    let config engine =
      {
        Engine.default_config with
        engine;
        max_states = Some sat_cap_states;
        max_transitions = Some sat_cap_transitions;
      }
    in
    let sift_config =
      { (config Engine.Bdd) with Engine.reorder = Bdd.Reorder_sift }
    in
    let run engine = Engine.run ~config:(config engine) ~cssg:g c ~faults in
    let run_sift () = Engine.run ~config:sift_config ~cssg:g c ~faults in
    let sat_r = ref (run Engine.Sat) in
    let bdd_r = ref (run Engine.Bdd) in
    let sift_r = ref (run_sift ()) in
    let sat_seconds = time_thunk (fun () -> sat_r := run Engine.Sat) in
    let bdd_seconds = time_thunk (fun () -> bdd_r := run Engine.Bdd) in
    let sift_seconds = time_thunk (fun () -> sift_r := run_sift ()) in
    let sat_r = !sat_r and bdd_r = !bdd_r and sift_r = !sift_r in
    let partition r =
      List.map (fun o -> Testset.is_detected o.Testset.status) r.Engine.outcomes
    in
    let agree =
      partition sat_r = partition bdd_r && partition sat_r = partition sift_r
    in
    let speedup = bdd_seconds /. sat_seconds in
    let ss =
      match sat_r.Engine.sat_stats with
      | Some s -> s
      | None -> failwith "sat run reported no solver stats"
    in
    Printf.printf
      "sat engine (%s): %d faults, caps %d states / %d transitions\n\
      \  sat     : %8.4f s  (%d detected, %d aborted; %d conflicts, %d \
       learned)\n\
      \  bdd     : %8.4f s  (%d detected, %d aborted)\n\
      \  bdd+sift: %8.4f s  (%d detected, %d aborted)\n\
      \  partitions agree: %b   speedup: %.2fx\n"
      (Circuit.name c) (List.length faults) sat_cap_states sat_cap_transitions
      sat_seconds (Engine.detected sat_r) (Engine.aborted sat_r)
      ss.Satg_sat.Sat.conflicts ss.Satg_sat.Sat.learned bdd_seconds
      (Engine.detected bdd_r) (Engine.aborted bdd_r) sift_seconds
      (Engine.detected sift_r) (Engine.aborted sift_r) agree speedup;
    if not agree then failwith (Circuit.name c ^ ": backend partitions differ");
    Printf.sprintf
      {|    {
      "circuit": "%s",
      "n_faults": %d,
      "caps": { "max_states": %d, "max_transitions": %d },
      "sat": { "seconds": %.6f, "detected": %d, "aborted": %d,
               "decisions": %d, "propagations": %d, "conflicts": %d,
               "learned": %d, "restarts": %d, "vars": %d, "clauses": %d },
      "bdd": { "seconds": %.6f, "detected": %d, "aborted": %d },
      "bdd_sift": { "seconds": %.6f, "detected": %d, "aborted": %d },
      "partitions_agree": %b,
      "speedup": %.2f
    }|}
      (Circuit.name c) (List.length faults) sat_cap_states sat_cap_transitions
      sat_seconds (Engine.detected sat_r) (Engine.aborted sat_r)
      ss.Satg_sat.Sat.decisions ss.Satg_sat.Sat.propagations
      ss.Satg_sat.Sat.conflicts ss.Satg_sat.Sat.learned
      ss.Satg_sat.Sat.restarts ss.Satg_sat.Sat.n_vars
      ss.Satg_sat.Sat.n_clauses bdd_seconds (Engine.detected bdd_r)
      (Engine.aborted bdd_r) sift_seconds (Engine.detected sift_r)
      (Engine.aborted sift_r) agree speedup
  in
  let rows = List.map row sat_netlists in
  let json =
    Printf.sprintf
      {|{
  "bench": "sat_engine",
  "circuits": [
%s
  ]
}
|}
      (String.concat ",\n" rows)
  in
  let oc = open_out "BENCH_sat.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "-> BENCH_sat.json\n"

(* --- multicore domain-pool scaling ------------------------------------------ *)

(* The full explicit-engine pipeline (CSSG + random + deterministic
   phases) at -j 1/2/4/8 on the figure-1 pathology pair, under the same
   caps as the SAT race; -j 1 is the sequential pipeline and the
   baseline.  Every run's detected/undetected/aborted partition is
   hashed and the bench *fails* if any two differ — the determinism
   contract, measured rather than assumed.  Results (plus
   [host_cores], so a flat curve on a single-core runner is readable as
   such) go to BENCH_domains.json. *)

let domains_js = [ 1; 2; 4; 8 ]

let partition_hash r =
  List.fold_left
    (fun h o ->
      let c =
        match o.Testset.status with
        | Testset.Detected _ -> 'D'
        | Testset.Undetected -> 'U'
        | Testset.Aborted _ -> 'A'
      in
      ((h * 33) + Char.code c) land 0x3FFFFFFF)
    5381 r.Engine.outcomes

(* Packed-Bytes interning (the [Explicit.build] hot path) against the
   pre-rewrite string-keyed table, on an identical deterministic lookup
   stream with a realistic hit rate. *)
let intern_bench () =
  let n_nodes = 48 in
  let n_distinct = 512 in
  let n_lookups = 100_000 in
  let state = ref 0x2545F4914F6CDD1D in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x;
    x
  in
  let pool =
    Array.init n_distinct (fun _ ->
        let a = next () and b = next () in
        Array.init n_nodes (fun i ->
            let w = if i < 32 then a else b in
            (w lsr (i land 31)) land 1 = 1))
  in
  let stream =
    Array.init n_lookups (fun _ -> pool.(abs (next ()) mod n_distinct))
  in
  let string_run () =
    let tbl = Hashtbl.create 64 in
    let count = ref 0 in
    Array.iter
      (fun s ->
        let key = String.init n_nodes (fun i -> if s.(i) then '1' else '0') in
        match Hashtbl.find_opt tbl key with
        | Some _ -> ()
        | None ->
          Hashtbl.replace tbl key !count;
          incr count)
      stream
  in
  let packed_run () =
    let it = Explicit.Intern.create ~n_nodes in
    Array.iter
      (fun s ->
        ignore (Explicit.Intern.intern it ~guard:Satg_guard.Guard.none s))
      stream
  in
  let string_seconds = time_thunk string_run in
  let packed_seconds = time_thunk packed_run in
  let speedup = string_seconds /. packed_seconds in
  Printf.printf
    "intern (%d nodes, %d lookups, %d distinct)\n\
    \  string keys: %8.5f s  (%10.1f lookups/s)\n\
    \  packed keys: %8.5f s  (%10.1f lookups/s)\n\
    \  speedup: %.2fx\n"
    n_nodes n_lookups n_distinct string_seconds
    (float_of_int n_lookups /. string_seconds)
    packed_seconds
    (float_of_int n_lookups /. packed_seconds)
    speedup;
  Printf.sprintf
    {|  "intern": { "n_nodes": %d, "n_lookups": %d, "n_distinct": %d,
              "string_keys": { "seconds": %.6f, "lookups_per_sec": %.1f },
              "packed_keys": { "seconds": %.6f, "lookups_per_sec": %.1f },
              "speedup": %.2f }|}
    n_nodes n_lookups n_distinct string_seconds
    (float_of_int n_lookups /. string_seconds)
    packed_seconds
    (float_of_int n_lookups /. packed_seconds)
    speedup

let domains_bench () =
  let host_cores = Domain.recommended_domain_count () in
  (* Honest rows only: an oversubscribed -j on a small host measures
     scheduler noise, not scaling.  -j 1 always runs (it anchors the
     determinism contract); larger -j rows run only when the host
     actually has the cores. *)
  let js_run, js_skipped =
    List.partition (fun j -> j = 1 || j <= host_cores) domains_js
  in
  if js_skipped <> [] then
    Printf.printf "domains: host has %d core(s); skipping -j %s\n" host_cores
      (String.concat "/" (List.map string_of_int js_skipped));
  let intern_json = intern_bench () in
  let row path =
    let c = load_netlist path in
    let faults = Fault.universe_input_sa c in
    let config jobs =
      {
        Engine.default_config with
        engine = Engine.Explicit;
        jobs;
        max_states = Some sat_cap_states;
        max_transitions = Some sat_cap_transitions;
      }
    in
    let run jobs = Engine.run ~config:(config jobs) c ~faults in
    let cells =
      List.map
        (fun j ->
          let r = ref (run j) in
          let seconds = time_thunk (fun () -> r := run j) in
          (j, seconds, partition_hash !r, Engine.detected !r,
           Engine.aborted !r))
        js_run
    in
    let j1_seconds, j1_hash =
      match cells with
      | (1, s, h, _, _) :: _ -> (s, h)
      | _ -> failwith "domains: the -j 1 row always runs"
    in
    List.iter
      (fun (j, _, h, _, _) ->
        if h <> j1_hash then
          failwith
            (Printf.sprintf "%s: -j %d partition differs from -j 1"
               (Circuit.name c) j))
      cells;
    Printf.printf "domains (%s): %d faults, caps %d states / %d transitions\n"
      (Circuit.name c) (List.length faults) sat_cap_states sat_cap_transitions;
    List.iter
      (fun (j, s, h, det, ab) ->
        Printf.printf
          "  -j %d: %8.4f s  (x%.2f vs -j1; hash %08x, %d detected, %d \
           aborted)\n"
          j s (j1_seconds /. s) h det ab)
      cells;
    Printf.sprintf
      {|    {
      "circuit": "%s",
      "n_faults": %d,
      "caps": { "max_states": %d, "max_transitions": %d },
      "jobs": [
%s
      ],
      "partitions_equal": true
    }|}
      (Circuit.name c) (List.length faults) sat_cap_states sat_cap_transitions
      (String.concat ",\n"
         (List.map
            (fun (j, s, h, det, ab) ->
              Printf.sprintf
                {|        { "j": %d, "seconds": %.6f, "speedup_vs_j1": %.2f,
          "partition_hash": "%08x", "detected": %d, "aborted": %d }|}
                j s (j1_seconds /. s) h det ab)
            cells))
  in
  let rows = List.map row sat_netlists in
  let json =
    Printf.sprintf
      {|{
  "bench": "domains",
  "host_cores": %d,
  "jobs_skipped": [%s],
%s,
  "circuits": [
%s
  ]
}
|}
      host_cores
      (String.concat ", " (List.map string_of_int js_skipped))
      intern_json
      (String.concat ",\n" rows)
  in
  let oc = open_out "BENCH_domains.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "host cores: %d  -> BENCH_domains.json\n" host_cores

(* --- driver ---------------------------------------------------------------- *)

let tests =
  Test.make_grouped ~name:"satg"
    [
      bench_bdd; bench_qm; bench_ternary; bench_parallel;
      bench_exact_exploration; bench_stg; bench_symbolic; bench_fig1a;
      bench_fig1b; bench_fig2; bench_table1_small; bench_table1_large;
      bench_table2_clean; bench_table2_redundant; bench_timed_replay;
      bench_delay_fault; bench_baseline;
    ]

let default_netlist = "examples/netlists/toggle_farm.cct"

let run_bechamel () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let pretty ns =
    if ns >= 1e9 then Printf.sprintf "%10.3f s " (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%10.3f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%10.3f us" (ns /. 1e3)
    else Printf.sprintf "%10.1f ns" ns
  in
  Printf.printf "%-42s %12s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 56 '-');
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some (t :: _) -> Printf.printf "%-42s %12s\n" name (pretty t)
         | Some [] | None -> Printf.printf "%-42s %12s\n" name "n/a")

(* --- generated benchmark families: size ladder vs engines ------------------- *)

(* The concept-combinator families swept along a CI-tractable size
   ladder, each instance run through all three deterministic engines
   (no random phase, so the backends do the actual work).  Rows record
   states / faults / coverage / time per engine against N; the bench
   *fails* unless every instance's explicit/bdd/sat partitions and the
   -j1/-j4 pooled runs coincide, and unless at least one instance
   forces real CDCL search (nonzero decisions and conflicts).  Results
   go to BENCH_families.json. *)

let family_ladder =
  [
    ("pipeline", [ 1; 2; 3 ], `Complex);
    ("arbiter", [ 2; 3 ], `Complex);
    ("ring", [ 2; 4; 8 ], `Complex);
    ("fifo", [ 2; 4 ], `Complex);
    ("latch", [ 1; 2 ], `Redundant);
  ]

let families_bench () =
  let sat_nontrivial = ref false in
  let row fname n style =
    let entry =
      match Suite.generate fname ~n with
      | Ok e -> e
      | Error m -> failwith (fname ^ ": " ^ m)
    in
    let c =
      match
        match style with
        | `Complex -> Synth.complex_gate entry.Suite.stg
        | `Redundant -> Synth.decomposed ~redundant:true entry.Suite.stg
      with
      | Ok c -> c
      | Error m -> failwith (entry.Suite.name ^ ": synth: " ^ m)
    in
    let faults = Fault.universe_input_sa c in
    let g = Explicit.build c in
    let config engine =
      { Engine.default_config with engine; enable_random = false }
    in
    let run engine = Engine.run ~config:(config engine) ~cssg:g c ~faults in
    let timed engine =
      let r = ref (run engine) in
      let seconds = time_thunk (fun () -> r := run engine) in
      (!r, seconds)
    in
    let exp_r, exp_s = timed Engine.Explicit in
    let bdd_r, bdd_s = timed Engine.Bdd in
    let sat_r, sat_s = timed Engine.Sat in
    let partition r =
      List.map (fun o -> Testset.is_detected o.Testset.status) r.Engine.outcomes
    in
    let agree =
      partition exp_r = partition bdd_r && partition exp_r = partition sat_r
    in
    let pooled j =
      Engine.run
        ~config:{ Engine.default_config with jobs = j }
        c ~faults
    in
    let jobs_agree = partition (pooled 1) = partition (pooled 4) in
    let ss =
      match sat_r.Engine.sat_stats with
      | Some s -> s
      | None -> failwith (entry.Suite.name ^ ": sat run reported no stats")
    in
    (* real work = branching happened AND the long-lived instance
       re-served clauses across faults; conflicts stay zero here — the
       time-frame encoding is propagation-complete on the families
       (docs/PERF.md) *)
    if ss.Satg_sat.Sat.decisions > 0 && ss.Satg_sat.Sat.reused_shared > 0 then
      sat_nontrivial := true;
    Printf.printf
      "%-10s n=%-2d %-9s %4d states %3d faults  cov %6.2f%%  \
       exp %8.4fs  bdd %8.4fs  sat %8.4fs (%d dec, %d cfl)  agree %b  -j %b\n"
      fname n
      (match style with `Complex -> "complex" | `Redundant -> "redundant")
      (Cssg.n_states g) (List.length faults)
      (Engine.coverage_pct exp_r) exp_s bdd_s sat_s ss.Satg_sat.Sat.decisions
      ss.Satg_sat.Sat.conflicts agree jobs_agree;
    if not agree then
      failwith (entry.Suite.name ^ ": engine partitions differ");
    if not jobs_agree then
      failwith (entry.Suite.name ^ ": -j1 and -j4 partitions differ");
    Printf.sprintf
      {|    {
      "family": "%s",
      "n": %d,
      "style": "%s",
      "cssg_states": %d,
      "n_faults": %d,
      "coverage_pct": %.2f,
      "explicit": { "seconds": %.6f, "detected": %d },
      "bdd": { "seconds": %.6f, "detected": %d },
      "sat": { "seconds": %.6f, "detected": %d,
               "decisions": %d, "conflicts": %d,
               "propagations": %d, "learned": %d,
               "instances": %d, "reused_shared": %d },
      "partitions_agree": %b,
      "jobs_partitions_agree": %b
    }|}
      fname n
      (match style with `Complex -> "complex" | `Redundant -> "redundant")
      (Cssg.n_states g) (List.length faults) (Engine.coverage_pct exp_r)
      exp_s (Engine.detected exp_r) bdd_s (Engine.detected bdd_r) sat_s
      (Engine.detected sat_r) ss.Satg_sat.Sat.decisions
      ss.Satg_sat.Sat.conflicts ss.Satg_sat.Sat.propagations
      ss.Satg_sat.Sat.learned ss.Satg_sat.Sat.instances
      ss.Satg_sat.Sat.reused_shared agree jobs_agree
  in
  let rows =
    List.concat_map
      (fun (fname, sizes, style) -> List.map (fun n -> row fname n style) sizes)
      family_ladder
  in
  if not !sat_nontrivial then
    failwith
      "no family instance produced nonzero SAT decisions and shared-clause \
       reuse";
  let json =
    Printf.sprintf {|{
  "bench": "families",
  "sat_nontrivial": %b,
  "instances": [
%s
  ]
}
|}
      !sat_nontrivial
      (String.concat ",\n" rows)
  in
  let oc = open_out "BENCH_families.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "-> BENCH_families.json\n"

(* [--fault-sim [FILE.cct]] runs only the parallel fault-sim
   throughput bench, [--sat] the SAT-vs-BDD backend race
   (BENCH_sat.json), [--domains] only the domain-pool scaling + intern
   benches and [--families] the family size ladder (the CI smoke
   jobs); the default runs the full bechamel suite and then every
   throughput bench. *)
let () =
  let argv = Array.to_list Sys.argv in
  match argv with
  | _ :: "--fault-sim" :: rest ->
    let path = match rest with p :: _ -> p | [] -> default_netlist in
    fault_sim_bench path
  | _ :: "--sat" :: _ -> sat_engine_bench ()
  | _ :: "--domains" :: _ -> domains_bench ()
  | _ :: "--families" :: _ -> families_bench ()
  | _ ->
    run_bechamel ();
    fault_sim_bench default_netlist;
    sat_engine_bench ();
    domains_bench ();
    families_bench ()
