(* Experiment driver: regenerates every table and figure of the paper
   plus the ablations listed in DESIGN.md.

     dune exec bin/experiments.exe -- table1
     dune exec bin/experiments.exe -- table2
     dune exec bin/experiments.exe -- baseline
     dune exec bin/experiments.exe -- ablation-random
     dune exec bin/experiments.exe -- ablation-k
     dune exec bin/experiments.exe -- figures
     dune exec bin/experiments.exe -- delay       (extension: gross delay faults)
     dune exec bin/experiments.exe -- dft         (extension: observation points)
     dune exec bin/experiments.exe -- all          (everything above) *)

open Satg_circuit
open Satg_fault
open Satg_sg
open Satg_core
open Satg_bench
open Satg_report

let printf = Printf.printf

(* --csv anywhere on the command line switches table rendering. *)
let csv_mode =
  Array.exists (fun a -> a = "--csv") Sys.argv

let render table =
  if csv_mode then Table.to_csv table else Table.to_ascii table

type bench_row = {
  name : string;
  out_given : int;  (* universe size before structural collapsing *)
  out_tot : int;  (* representatives actually targeted *)
  out_cov : int;
  in_given : int;
  in_tot : int;
  in_cov : int;
  rnd : int;
  three_ph : int;
  fsim : int;
  aborted : int;
  cpu : float;
}

let run_benchmark ?(config = Engine.default_config) name circuit =
  let t0 = Sys.time () in
  let g = Explicit.build ?k:config.Engine.k circuit in
  let out_r = Engine.run ~config ~cssg:g circuit ~faults:(Fault.universe_output_sa circuit) in
  let in_r = Engine.run ~config ~cssg:g circuit ~faults:(Fault.universe_input_sa circuit) in
  {
    name;
    out_given = Engine.total out_r;
    out_tot = out_r.Engine.faults_searched;
    out_cov = Engine.detected out_r;
    in_given = Engine.total in_r;
    in_tot = in_r.Engine.faults_searched;
    in_cov = Engine.detected in_r;
    rnd = Engine.detected_by in_r Testset.Random + Engine.detected_by out_r Testset.Random;
    three_ph =
      Engine.detected_by in_r Testset.Three_phase
      + Engine.detected_by out_r Testset.Three_phase;
    fsim =
      Engine.detected_by in_r Testset.Fault_simulation
      + Engine.detected_by out_r Testset.Fault_simulation;
    aborted = Engine.aborted in_r + Engine.aborted out_r;
    cpu = Sys.time () -. t0;
  }

let family_table title synth =
  (* "giv/tot" = raw universe size / representatives after structural
     fault collapsing (coverage is measured over the representatives) *)
  let table =
    Table.create
      ~header:
        [ "example"; "out giv/tot"; "out cov"; "in giv/tot"; "in cov"; "rnd";
          "3-ph"; "sim"; "abort"; "CPU(s)" ]
  in
  let rows =
    List.filter_map
      (fun e ->
        match synth e with
        | Error m ->
          printf "!! %s: synthesis failed: %s\n" e.Suite.name m;
          None
        | Ok c -> Some (run_benchmark e.Suite.name c))
      (Suite.all ())
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.name;
          Printf.sprintf "%d/%d" r.out_given r.out_tot;
          Table.cell_int r.out_cov;
          Printf.sprintf "%d/%d" r.in_given r.in_tot;
          Table.cell_int r.in_cov;
          Table.cell_int r.rnd; Table.cell_int r.three_ph;
          Table.cell_int r.fsim; Table.cell_aborted r.aborted;
          Table.cell_float r.cpu;
        ])
    rows;
  Table.add_separator table;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let pct num den =
    if den = 0 then "n/a"
    else Table.cell_pct (100.0 *. float_of_int num /. float_of_int den)
  in
  Table.add_row table
    [
      "Total FC";
      Printf.sprintf "%d/%d"
        (sum (fun r -> r.out_given))
        (sum (fun r -> r.out_tot));
      pct (sum (fun r -> r.out_cov)) (sum (fun r -> r.out_given));
      Printf.sprintf "%d/%d"
        (sum (fun r -> r.in_given))
        (sum (fun r -> r.in_tot));
      pct (sum (fun r -> r.in_cov)) (sum (fun r -> r.in_given));
      Table.cell_int (sum (fun r -> r.rnd));
      Table.cell_int (sum (fun r -> r.three_ph));
      Table.cell_int (sum (fun r -> r.fsim));
      Table.cell_aborted (sum (fun r -> r.aborted));
      Table.cell_float (List.fold_left (fun acc r -> acc +. r.cpu) 0.0 rows);
    ];
  printf "\n== %s ==\n\n%s\n" title (render table)

let table1 () =
  family_table
    "Table 1: speed-independent circuits (complex-gate synthesis)"
    Suite.speed_independent

let table2 () =
  family_table
    "Table 2: hazard-free bounded-delay circuits (all-primes, decomposed)"
    Suite.bounded_delay

(* A3: the Banerjee-style synchronous baseline vs our engine (§6.1). *)
let baseline () =
  let table =
    Table.create
      ~header:
        [ "example"; "faults"; "ours"; "claimed"; "validated"; "truly valid";
          "optimistic" ]
  in
  List.iter
    (fun e ->
      match Suite.speed_independent e with
      | Error _ -> ()
      | Ok c ->
        let g = Explicit.build c in
        let faults = Fault.universe_input_sa c in
        let ours = Engine.run ~cssg:g c ~faults in
        let base = Baseline.run c ~cssg:g ~faults in
        let claimed = Baseline.claimed base in
        let truly = Baseline.truly_detected base in
        Table.add_row table
          [
            e.Suite.name;
            Table.cell_int (List.length faults);
            Table.cell_int (Engine.detected ours);
            Table.cell_int claimed;
            Table.cell_int (Baseline.validated base);
            Table.cell_int truly;
            Table.cell_int (claimed - truly);
          ])
    (Suite.all ());
  printf
    "\n== Baseline (virtual flip-flop synchronous ATPG, paper %s6.1) ==\n\n%s\n"
    "\xc2\xa7" (render table);
  printf
    "'claimed' counts tests found on the synchronous model; 'validated'\n\
     those surviving the unit-delay replay Banerjee et al. use (it sees\n\
     oscillation but only one interleaving); 'truly valid' those the exact\n\
     unbounded-delay model confirms.  'optimistic' = claimed - truly valid.\n"

(* A1: how much does random TPG buy, and at what cost? *)
let ablation_random () =
  let table =
    Table.create
      ~header:
        [ "example"; "faults"; "rnd only (1x3)"; "rnd only (8x24)";
          "full, no rnd"; "full CPU(s)"; "no-rnd CPU(s)" ]
  in
  List.iter
    (fun e ->
      match Suite.speed_independent e with
      | Error _ -> ()
      | Ok c ->
        let g = Explicit.build c in
        let faults = Fault.universe_input_sa c in
        let rnd_only cfg =
          let detected, _ = Random_tpg.run ~config:cfg g ~faults in
          List.length detected
        in
        let small = Random_tpg.default_config in
        let big = { Random_tpg.walks = 8; walk_length = 24; seed = 0x5eed } in
        let t0 = Sys.time () in
        let full = Engine.run ~cssg:g c ~faults in
        let t_full = Sys.time () -. t0 in
        let t1 = Sys.time () in
        let nornd =
          Engine.run
            ~config:{ Engine.default_config with enable_random = false }
            ~cssg:g c ~faults
        in
        let t_nornd = Sys.time () -. t1 in
        Table.add_row table
          [
            e.Suite.name;
            Table.cell_int (List.length faults);
            Table.cell_int (rnd_only small);
            Table.cell_int (rnd_only big);
            Table.cell_int (Engine.detected nornd);
            Table.cell_float t_full;
            Table.cell_float t_nornd;
          ];
        ignore full)
    (Suite.all ());
  printf "\n== Ablation A1: random TPG contribution (paper %s5.4) ==\n\n%s\n"
    "\xc2\xa7" (render table)

(* A2: sensitivity to the test-cycle budget k. *)
let ablation_k () =
  let table =
    Table.create
      ~header:[ "example"; "k"; "states"; "edges"; "in cov"; "in tot" ]
  in
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some e -> (
        match Suite.speed_independent e with
        | Error _ -> ()
        | Ok c ->
          List.iter
            (fun k ->
              let g = Explicit.build ~k c in
              let r =
                Engine.run
                  ~config:{ Engine.default_config with k = Some k }
                  ~cssg:g c ~faults:(Fault.universe_input_sa c)
              in
              Table.add_row table
                [
                  e.Suite.name; Table.cell_int k;
                  Table.cell_int (Cssg.n_states g);
                  Table.cell_int (Cssg.n_edges g);
                  Table.cell_int (Engine.detected r);
                  Table.cell_int (Engine.total r);
                ])
            [ 1; 2; 3; 4; 6; 8; Satg_circuit.Structure.default_k c ];
          Table.add_separator table))
    [ "ebergen"; "vbe10b"; "master-read" ];
  printf "\n== Ablation A2: test-cycle budget k (paper %s4.1) ==\n\n%s\n"
    "\xc2\xa7" (render table)

(* F1/F2: the paper's illustrative figures, as machine-checked facts. *)
let figures () =
  let open Satg_sim in
  printf "\n== Figure 1(a): non-confluence ==\n";
  let c = Figures.fig1a () in
  let reset = Option.get (Circuit.initial c) in
  (match Async_sim.apply_vector c ~k:64 reset [| true; false |] with
  | Async_sim.Non_confluent finals ->
    printf "vector 10 from reset: NON-CONFLUENT, %d stable outcomes:\n"
      (List.length finals);
    List.iter
      (fun s -> printf "  %s\n" (Circuit.state_to_string c s))
      finals
  | _ -> printf "unexpected outcome\n");
  printf "\n== Figure 1(b): oscillation ==\n";
  let c = Figures.fig1b () in
  let reset = Option.get (Circuit.initial c) in
  (match Async_sim.apply_vector c ~k:64 reset [| true |] with
  | Async_sim.Exceeds_budget ->
    printf "vector 1 from reset: still unstable after 64 firings (oscillates)\n"
  | _ -> printf "unexpected outcome\n");
  printf "\n== Figure 2: TCSG vs CSSG pruning ==\n";
  let c = Figures.mutex_latch () in
  let g = Explicit.build c in
  printf "%s\n" (Format.asprintf "%a" Cssg.pp g);
  printf
    "(note: the 11 -> 00 release race from 111100 is pruned; valid edges\n\
     enter both of its outcomes, 000001 (00 from 110001) and the reset\n\
     state 000010 (00 from 001110), so both stay nodes.  A state that only\n\
     a race reaches, like s1 in the paper's figure 2, is left out: every\n\
     node is reachable from reset over valid edges)\n"

(* A4: BDD variable-ordering study (paper %s6: "studying better variable
   ordering strategies in the use of BDDs"). *)
let orderings c =
  let n = Circuit.n_nodes c in
  let creation = Array.init n Fun.id in
  let reversed = Array.init n (fun i -> n - 1 - i) in
  (* all environment nodes first, then buffers, then the other gates *)
  let inputs_first =
    let rank = Array.make n 0 in
    let next = ref 0 in
    let assign i =
      rank.(i) <- !next;
      incr next
    in
    Array.iter assign (Circuit.inputs c);
    Array.iteri (fun k _ -> assign (Circuit.buffer_of_input c k)) (Circuit.inputs c);
    for i = 0 to n - 1 do
      if not (Circuit.is_env c i || Array.exists (fun b -> Circuit.buffer_of_input c b = i) (Array.mapi (fun k _ -> k) (Circuit.inputs c))) then assign i
    done;
    rank
  in
  [ ("creation", creation); ("reversed", reversed); ("inputs-first", inputs_first) ]

let ablation_bdd () =
  let table =
    Table.create ~header:[ "example"; "ordering"; "live BDD nodes"; "states" ]
  in
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some e -> (
        match Suite.speed_independent e with
        | Error _ -> ()
        | Ok c ->
          List.iter
            (fun (label, node_order) ->
              let sym = Symbolic.build ~node_order c in
              Table.add_row table
                [
                  e.Suite.name; label;
                  Table.cell_int (Symbolic.live_nodes sym);
                  Table.cell_int (Symbolic.n_reachable sym);
                ])
            (orderings c);
          (* one in-place Rudell pass, rooted at the default order's
             artefacts *)
          let sifted = Symbolic.build c in
          Symbolic.sift sifted;
          Table.add_row table
            [
              e.Suite.name; "sifted";
              Table.cell_int (Symbolic.live_nodes sifted);
              Table.cell_int (Symbolic.n_reachable sifted);
            ];
          Table.add_separator table))
    [ "ebergen"; "master-read"; "vbe10b"; "mmu" ];
  printf
    "\n== Ablation A4: BDD variable ordering (paper %s6 future work) ==\n\n%s\n"
    "\xc2\xa7" (render table);
  printf
    "'live BDD nodes' counts the retained artefacts (R_I, R_delta,\n\
     reachable set, CSSG relation); all orderings yield the same graph.\n"

(* A5: structural fault collapsing -- classic equivalences shrink the
   universe before ATPG at no coverage cost. *)
let ablation_collapse () =
  let table =
    Table.create
      ~header:
        [ "example"; "full"; "collapsed"; "full cov"; "collapsed cov";
          "full CPU(s)"; "collapsed CPU(s)" ]
  in
  List.iter
    (fun e ->
      match Suite.speed_independent e with
      | Error _ -> ()
      | Ok c ->
        let g = Explicit.build c in
        let full = Fault.universe_input_sa c @ Fault.universe_output_sa c in
        let collapsed = Fault.collapse c full in
        (* the engine now collapses by default; this ablation measures
           the effect itself, so both arms run with collapsing off *)
        let cfg = { Engine.default_config with collapse = false } in
        let t0 = Sys.time () in
        let rf = Engine.run ~config:cfg ~cssg:g c ~faults:full in
        let t_full = Sys.time () -. t0 in
        let t1 = Sys.time () in
        let rc = Engine.run ~config:cfg ~cssg:g c ~faults:collapsed in
        let t_coll = Sys.time () -. t1 in
        Table.add_row table
          [
            e.Suite.name;
            Table.cell_int (List.length full);
            Table.cell_int (List.length collapsed);
            Table.cell_ratio (Engine.detected rf) (Engine.total rf);
            Table.cell_ratio (Engine.detected rc) (Engine.total rc);
            Table.cell_float t_full;
            Table.cell_float t_coll;
          ])
    (Suite.all ());
  printf
    "\n== Ablation A5: structural fault collapsing ==\n\n%s\n"
    (render table)

(* Extension E3: the paper's %s3 pessimism-buys-robustness claim, made
   executable: replay every generated test burst against concrete
   random bounded delays, on the good chip and on every targeted faulty
   chip. *)
let robustness () =
  let table =
    Table.create
      ~header:
        [ "example"; "seeds"; "good responses"; "fault detections"; "status" ]
  in
  let seeds = [ 3; 17; 29; 101; 443 ] in
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some e -> (
        match Suite.speed_independent e with
        | Error _ -> ()
        | Ok c ->
          let reset = Option.get (Circuit.initial c) in
          let r = Engine.run c ~faults:(Fault.universe_input_sa c) in
          let program = Tester.of_result r in
          let good_checks = ref 0 and good_ok = ref 0 in
          let fault_checks = ref 0 and fault_ok = ref 0 in
          List.iter
            (fun seed ->
              List.iter
                (fun burst ->
                  let sim =
                    Satg_sim.Timed_sim.create c
                      ~delays:(Satg_sim.Timed_sim.random_delays c ~seed)
                      reset
                  in
                  List.iter
                    (fun step ->
                      incr good_checks;
                      let s = Satg_sim.Timed_sim.apply_vector sim step.Tester.inputs in
                      if Circuit.output_values c s = step.Tester.expected then
                        incr good_ok)
                    burst.Tester.steps;
                  List.iter
                    (fun f ->
                      incr fault_checks;
                      let fc = Fault.inject c f in
                      let fsim =
                        Satg_sim.Timed_sim.create fc
                          ~delays:(Satg_sim.Timed_sim.random_delays fc ~seed)
                          (Fault.initial_faulty_state c f reset)
                      in
                      let mismatch =
                        Array.map
                          (fun o -> (Satg_sim.Timed_sim.state fsim).(o))
                          (Circuit.outputs fc)
                        <> program.Tester.reset_outputs
                        || List.exists
                             (fun step ->
                               let s =
                                 Satg_sim.Timed_sim.apply_vector fsim
                                   step.Tester.inputs
                               in
                               Array.map (fun o -> s.(o)) (Circuit.outputs fc)
                               <> step.Tester.expected)
                             burst.Tester.steps
                      in
                      if mismatch then incr fault_ok)
                    burst.Tester.targets)
                program.Tester.bursts)
            seeds;
          Table.add_row table
            [
              e.Suite.name;
              Table.cell_int (List.length seeds);
              Printf.sprintf "%d/%d" !good_ok !good_checks;
              Printf.sprintf "%d/%d" !fault_ok !fault_checks;
              (if !good_ok = !good_checks && !fault_ok = !fault_checks then "ok"
               else "MISMATCH");
            ]))
    Suite.names;
  printf
    "\n== Extension E3: bounded-delay robustness of the test programs (%s3) ==\n\n%s\n"
    "\xc2\xa7" (render table)

(* Extension E1: the fault-model widening the paper announces as future
   work -- gross gate-delay faults on the speed-independent family. *)
let delay () =
  let table =
    Table.create
      ~header:[ "example"; "delay faults"; "detected"; "abort"; "CPU(s)" ]
  in
  List.iter
    (fun e ->
      match Suite.speed_independent e with
      | Error _ -> ()
      | Ok c ->
        let g = Explicit.build c in
        let r = Delay_fault.run g in
        Table.add_row table
          [
            e.Suite.name;
            Table.cell_int (Delay_fault.total r);
            Table.cell_int (Delay_fault.detected r);
            Table.cell_aborted (Delay_fault.aborted r);
            Table.cell_float r.Delay_fault.cpu_seconds;
          ])
    (Suite.all ());
  printf
    "\n== Extension E1: gross gate-delay faults (paper %s7 future work) ==\n\n%s\n"
    "\xc2\xa7" (render table);
  printf
    "A gross delay fault blocks one transition direction of one gate for\n\
     longer than the test cycle; detection compares the exact set of\n\
     delayed-machine states against the good CSSG trace.\n"

(* Extension E2: observation-point DFT on the redundant family (the
   paper's %s6 remark that low-coverage circuits can be assisted). *)
let dft () =
  let table =
    Table.create
      ~header:
        [ "example"; "faults"; "before"; "points"; "after"; "recovered" ]
  in
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some e -> (
        match Suite.bounded_delay e with
        | Error _ -> ()
        | Ok c ->
          let faults = Fault.universe_input_sa c in
          let imp = Dft.evaluate ~budget:3 c ~faults in
          Table.add_row table
            [
              e.Suite.name;
              Table.cell_int imp.Dft.total;
              Table.cell_int imp.Dft.before_detected;
              Table.cell_int (List.length imp.Dft.points);
              Table.cell_int imp.Dft.after_detected;
              Table.cell_int (imp.Dft.after_detected - imp.Dft.before_detected);
            ]))
    [ "converta"; "dff"; "trimos-send"; "vbe6a"; "vbe10b"; "mmu"; "nak-pa" ];
  printf
    "\n== Extension E2: observation points on the redundant family (%s6) ==\n\n%s\n"
    "\xc2\xa7" (render table);
  (* Control points: the activation-limited case. *)
  (match Suite.find "converta" with
  | None -> ()
  | Some e -> (
    match Suite.bounded_delay e with
    | Error _ -> ()
    | Ok c ->
      let pct r =
        100.0 *. float_of_int (Engine.detected r) /. float_of_int (Engine.total r)
      in
      let before = Engine.run c ~faults:(Fault.universe_input_sa c) in
      let y = Option.get (Satg_circuit.Circuit.find_node c "y") in
      let cp = Dft.insert_control_points c [ y ] in
      let after = Engine.run cp ~faults:(Fault.universe_input_sa cp) in
      printf
        "control point on converta's internal latch: %.1f%% of %d faults\n\
         before, %.1f%% of %d after (observation alone recovered nothing:\n\
         its problem is activation, not observability).\n"
        (pct before) (Engine.total before) (pct after) (Engine.total after)))

let all () =
  table1 ();
  table2 ();
  baseline ();
  ablation_random ();
  ablation_k ();
  ablation_bdd ();
  ablation_collapse ();
  figures ();
  delay ();
  dft ();
  robustness ()

let () =
  let args =
    Array.to_list Sys.argv |> List.tl |> List.filter (fun a -> a <> "--csv")
  in
  let cmd = match args with c :: _ -> c | [] -> "all" in
  match cmd with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "baseline" -> baseline ()
  | "ablation-random" -> ablation_random ()
  | "ablation-k" -> ablation_k ()
  | "figures" -> figures ()
  | "ablation-bdd" -> ablation_bdd ()
  | "delay" -> delay ()
  | "dft" -> dft ()
  | "robustness" -> robustness ()
  | "ablation-collapse" -> ablation_collapse ()
  | "all" -> all ()
  | other ->
    prerr_endline
      ("unknown experiment " ^ other
     ^ "; expected table1|table2|baseline|ablation-random|ablation-k|ablation-bdd|ablation-collapse|figures|delay|dft|robustness|all");
    exit 1
