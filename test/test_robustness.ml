(* Degradation-path tests: oscillating, non-confluent and
   state-limited runs must end in Aborted outcomes, truncated graphs or
   Phi saturation — never in an escaped exception — and everything a
   truncated artefact does contain must agree with the full build. *)

open Satg_logic
open Satg_guard
open Satg_circuit
open Satg_fault
open Satg_sim
open Satg_sg
open Satg_core
open Satg_bench

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- the guard itself ----------------------------------------------------- *)

let test_none_unlimited () =
  let g = Guard.none in
  for _ = 1 to 10_000 do
    Guard.spend_state g;
    Guard.spend_transition g;
    Guard.tick g
  done;
  Guard.check_time g;
  Alcotest.(check bool) "never tripped" true (Guard.tripped g = None)

let test_state_ceiling () =
  let g = Guard.create ~max_states:3 () in
  Guard.spend_states g 3;
  Alcotest.(check bool) "within budget" true (Guard.tripped g = None);
  (match Guard.spend_state g with
  | () -> Alcotest.fail "fourth state should trip"
  | exception Guard.Exhausted Guard.State_limit -> ());
  (* tripped guards stay tripped *)
  (match Guard.tick g with
  | () -> Alcotest.fail "tripped guard must re-raise"
  | exception Guard.Exhausted Guard.State_limit -> ());
  Alcotest.(check bool) "reason recorded" true
    (Guard.tripped g = Some Guard.State_limit)

let test_transition_ceiling () =
  let g = Guard.create ~max_transitions:2 () in
  Guard.spend_transition g;
  Guard.spend_transition g;
  match Guard.spend_transition g with
  | () -> Alcotest.fail "third transition should trip"
  | exception Guard.Exhausted Guard.Transition_limit ->
    Alcotest.(check int) "spend counted" 3 (Guard.transitions_used g)

let test_expired_deadline () =
  let g = Guard.create ~timeout:(-1.0) () in
  match Guard.check_time g with
  | () -> Alcotest.fail "past deadline should trip"
  | exception Guard.Exhausted Guard.Timeout -> ()

let test_sub_isolation () =
  let parent = Guard.create ~max_states:2 () in
  (match Guard.spend_states parent 3 with
  | () -> Alcotest.fail "parent should trip"
  | exception Guard.Exhausted _ -> ());
  (* fresh counters: a sub-guard of a counter-tripped parent is usable *)
  let child = Guard.sub ~max_states:2 parent in
  Guard.spend_states child 2;
  Alcotest.(check bool) "child not tripped" true (Guard.tripped child = None);
  (* shared deadline: a sub-guard of an expired parent trips on time *)
  let timed = Guard.create ~timeout:(-1.0) () in
  let child = Guard.sub timed in
  match Guard.check_time child with
  | () -> Alcotest.fail "inherited deadline should trip"
  | exception Guard.Exhausted Guard.Timeout -> ()

let test_guarded_capture () =
  let g = Guard.create ~max_transitions:1 () in
  (match
     Guard.guarded g (fun () ->
         Guard.spend_transitions g 5;
         42)
   with
  | Ok _ -> Alcotest.fail "should exhaust"
  | Error r ->
    Alcotest.(check string) "reason" "transition-limit"
      (Guard.reason_to_string r));
  match Guard.guarded Guard.none (fun () -> 42) with
  | Ok v -> Alcotest.(check int) "passthrough" 42 v
  | Error _ -> Alcotest.fail "none never errors"

(* the cancel token: what a drain signal pulls *)
let test_cancel_poisons_subs () =
  let g = Guard.create ~timeout:3600.0 () in
  Guard.cancel g Guard.Timeout;
  let s = Guard.sub g in
  (match Guard.check_time s with
  | () -> Alcotest.fail "sub of a cancelled family must trip"
  | exception Guard.Exhausted Guard.Timeout -> ());
  Alcotest.(check bool) "reason recorded" true
    (Guard.tripped s = Some Guard.Timeout)

let test_sub_trip_stays_local () =
  (* a budget trip on one branch never cancels its siblings *)
  let g = Guard.create () in
  let a = Guard.sub ~max_transitions:1 g in
  (try
     Guard.spend_transition a;
     Guard.spend_transition a
   with Guard.Exhausted Guard.Transition_limit -> ());
  Alcotest.(check bool) "branch tripped" true
    (Guard.tripped a = Some Guard.Transition_limit);
  let b = Guard.sub ~max_transitions:1 g in
  Guard.spend_transition b;
  Alcotest.(check bool) "sibling unaffected" true (Guard.tripped b = None);
  Guard.check_time g

(* --- simulator saturation -------------------------------------------------- *)

(* fig1b oscillates under input 1: a starved round budget must saturate
   the oscillating signals to Phi instead of raising. *)
let test_ternary_oscillator_saturates () =
  let c = Figures.fig1b () in
  let reset = Option.get (Circuit.initial c) in
  let r =
    Ternary_sim.apply_vector ~budget:1 c
      (Ternary_sim.of_bool_state reset)
      [| true |]
  in
  Alcotest.(check bool) "some signal saturated to Phi" true
    (Array.exists (fun v -> v = Ternary.Phi) r)

(* Saturation is conservative: wherever the starved run still reports a
   binary value, the full-budget run agrees (Phi only ever replaces
   information, never invents it). *)
let test_ternary_saturation_conservative () =
  let c = Figures.celem_handshake () in
  let g = Explicit.build c in
  let v =
    match Cssg.successors g (List.hd (Cssg.initial g)) with
    | e :: _ -> e.Cssg.vector
    | [] -> Alcotest.fail "celem CSSG should have edges"
  in
  let s0 = Ternary_sim.of_bool_state (Option.get (Circuit.initial c)) in
  let full = Ternary_sim.apply_vector c s0 v in
  let starved = Ternary_sim.apply_vector ~budget:0 c s0 v in
  Array.iteri
    (fun i x ->
      if x <> Ternary.Phi then
        Alcotest.(check bool)
          (Printf.sprintf "node %d binary value agrees" i)
          true
          (Ternary.equal x full.(i)))
    starved

let test_parallel_saturation_conservative () =
  let c = Figures.celem_handshake () in
  let reset = Option.get (Circuit.initial c) in
  let faults =
    Array.of_list
      (List.filteri (fun i _ -> i < 4) (Fault.universe_input_sa c))
  in
  let v =
    let g = Explicit.build c in
    match Cssg.successors g (List.hd (Cssg.initial g)) with
    | e :: _ -> e.Cssg.vector
    | [] -> Alcotest.fail "celem CSSG should have edges"
  in
  let full = Parallel_sim.create c faults ~reset in
  let starved = Parallel_sim.create c faults ~reset in
  Parallel_sim.apply_vector full v;
  Parallel_sim.apply_vector ~budget:0 starved v;
  for mch = 0 to Parallel_sim.n_machines full - 1 do
    let f = Parallel_sim.machine_outputs full mch in
    let s = Parallel_sim.machine_outputs starved mch in
    Array.iteri
      (fun o x ->
        if x <> Ternary.Phi then
          Alcotest.(check bool)
            (Printf.sprintf "machine %d output %d agrees" mch o)
            true (Ternary.equal x f.(o)))
      s
  done

(* --- truncated graphs ------------------------------------------------------ *)

(* Every state of the truncated graph exists in the full graph, and
   every truncated edge is a genuine full-graph edge with the same
   destination state. *)
let is_subgraph small big =
  List.for_all
    (fun i ->
      let s = Cssg.state small i in
      match Cssg.id_of_state big s with
      | None -> false
      | Some j ->
        List.for_all
          (fun e ->
            match Cssg.apply big j e.Cssg.vector with
            | None -> false
            | Some t -> Cssg.state big t = Cssg.state small e.Cssg.target)
          (Cssg.successors small i))
    (List.init (Cssg.n_states small) Fun.id)

let test_explicit_truncation_subgraph () =
  let c = Figures.celem_handshake () in
  let full = Explicit.build c in
  let tg = Explicit.build ~guard:(Guard.create ~max_states:2 ()) c in
  Alcotest.(check bool) "tagged truncated" true
    (Cssg.truncated tg = Some Guard.State_limit);
  Alcotest.(check bool) "full graph untagged" true (Cssg.truncated full = None);
  Alcotest.(check bool) "strictly smaller" true
    (Cssg.n_states tg < Cssg.n_states full);
  Alcotest.(check bool) "at most reset + budget states" true
    (Cssg.n_states tg <= 3);
  Alcotest.(check bool) "is a subgraph of the full CSSG" true
    (is_subgraph tg full)

let test_explicit_zero_budget_keeps_reset () =
  let c = Figures.celem_handshake () in
  let tg = Explicit.build ~guard:(Guard.create ~max_states:0 ()) c in
  Alcotest.(check int) "reset state survives" 1 (Cssg.n_states tg);
  Alcotest.(check (list int)) "and is initial" [ 0 ] (Cssg.initial tg);
  Alcotest.(check bool) "tagged truncated" true
    (Cssg.truncated tg = Some Guard.State_limit)

let test_explicit_timeout_on_oscillator () =
  let c = Figures.fig1b () in
  let tg = Explicit.build ~guard:(Guard.create ~timeout:(-1.0) ()) c in
  Alcotest.(check bool) "tagged timeout" true
    (Cssg.truncated tg = Some Guard.Timeout);
  Alcotest.(check int) "reset only" 1 (Cssg.n_states tg)

let test_symbolic_truncation_subgraph () =
  let c = Figures.celem_handshake () in
  let full = Explicit.build c in
  let sym = Symbolic.build ~guard:(Guard.create ~max_transitions:1 ()) c in
  Alcotest.(check bool) "symbolic tagged" true (Symbolic.truncated sym <> None);
  let tg = Symbolic.to_cssg sym in
  Alcotest.(check bool) "tag carries to CSSG" true (Cssg.truncated tg <> None);
  Alcotest.(check bool) "no larger than the full graph" true
    (Cssg.n_states tg <= Cssg.n_states full);
  Alcotest.(check bool) "is a subgraph of the full CSSG" true
    (is_subgraph tg full);
  (* and an untruncated symbolic build of the same circuit agrees with
     the explicit one even when a generous guard is attached *)
  let sym = Symbolic.build ~guard:(Guard.create ~max_states:10_000 ()) c in
  Alcotest.(check bool) "generous guard does not truncate" true
    (Symbolic.truncated sym = None);
  let g2 = Symbolic.to_cssg sym in
  Alcotest.(check int) "same state count" (Cssg.n_states full)
    (Cssg.n_states g2);
  Alcotest.(check bool) "mutual subgraphs" true
    (is_subgraph g2 full && is_subgraph full g2)

(* With the guard woven into the BDD manager itself, a budget can trip
   in the middle of building the transition relation — before the
   reachability loop ever starts.  The build must degrade to the sound
   one-state stub (reset only, no edges), never escape. *)
let test_symbolic_guard_mid_apply () =
  let c = Figures.celem_handshake () in
  let sym = Symbolic.build ~guard:(Guard.create ~timeout:(-1.0) ()) c in
  Alcotest.(check bool) "tagged timeout" true
    (Symbolic.truncated sym = Some Guard.Timeout);
  let tg = Symbolic.to_cssg sym in
  Alcotest.(check int) "reset state survives" 1 (Cssg.n_states tg);
  Alcotest.(check (list int)) "and is initial" [ 0 ] (Cssg.initial tg);
  Alcotest.(check bool) "stub is a subgraph of the full CSSG" true
    (is_subgraph tg (Explicit.build c))

(* A deliberately exploding build (2^12 reachable states from 12 free
   buffers) under a tight state ceiling must stop promptly with a
   truncated graph instead of enumerating the whole cube. *)
let test_symbolic_state_ceiling_explosion () =
  let n = 12 in
  let b = Circuit.Builder.create "buffer_cube" in
  let xs =
    List.init n (fun i -> Circuit.Builder.add_input b (Printf.sprintf "A%d" i))
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
  let c = Circuit.with_initial c (Array.make (Circuit.n_nodes c) false) in
  let sym = Symbolic.build ~guard:(Guard.create ~max_states:8 ()) c in
  Alcotest.(check bool) "tagged state-limit" true
    (Symbolic.truncated sym = Some Guard.State_limit);
  let tg = Symbolic.to_cssg sym in
  Alcotest.(check bool) "tag carries to CSSG" true (Cssg.truncated tg <> None);
  Alcotest.(check bool) "far fewer states than 2^12" true
    (Cssg.n_states tg < 1 lsl n)

(* with_guard must attach only for the call's duration, even when the
   budget trips inside it — the per-fault isolation contract of
   symbolic justification. *)
let test_symbolic_with_guard_isolation () =
  let c = Figures.celem_handshake () in
  let sym = Symbolic.build c in
  let tripped =
    let g = Guard.create ~max_states:1 () in
    (try Guard.spend_states g 2 with Guard.Exhausted _ -> ());
    g
  in
  let g = Symbolic.to_cssg sym in
  Alcotest.(check bool) "needs >1 state" true (Cssg.n_states g > 1);
  (* a non-initial target forces at least one image step, and cold op
     caches force that step to actually probe (and so to tick) *)
  let target =
    Symbolic.state_to_bdd sym
      (Cssg.state g (List.find (fun i -> not (List.mem i (Cssg.initial g)))
                       (List.init (Cssg.n_states g) Fun.id)))
  in
  Satg_bdd.Bdd.clear_caches (Symbolic.man sym);
  (match Symbolic.with_guard sym tripped (fun () -> Symbolic.justify sym ~target)
   with
  | _ -> Alcotest.fail "tripped guard should raise inside justify"
  | exception Guard.Exhausted Guard.State_limit -> ());
  (* the manager's own guard is restored: the same query now succeeds *)
  match Symbolic.justify sym ~target with
  | Some _ -> ()
  | None -> Alcotest.fail "reset state must be justifiable"

(* --- fail-soft engine ------------------------------------------------------ *)

let statuses r =
  List.fold_left
    (fun (d, u, a) o ->
      match o.Testset.status with
      | Testset.Detected _ -> (d + 1, u, a)
      | Testset.Undetected -> (d, u + 1, a)
      | Testset.Aborted _ -> (d, u, a + 1))
    (0, 0, 0) r.Engine.outcomes

let test_engine_oscillator_timeout () =
  let c = Figures.fig1b () in
  let d = Option.get (Circuit.find_node c "d") in
  let faults =
    [
      Fault.Output_sa { gate = d; stuck = false };
      Fault.Output_sa { gate = d; stuck = true };
    ]
  in
  let config = { Engine.default_config with timeout = Some 0.0 } in
  let r = Engine.run ~config c ~faults in
  Alcotest.(check bool) "CSSG truncated by the deadline" true
    (Engine.truncated r = Some Guard.Timeout);
  Alcotest.(check int) "every fault aborted" 2 (Engine.aborted r);
  Alcotest.(check int) "nothing detected" 0 (Engine.detected r);
  Alcotest.(check bool) "partial" true (Engine.partial r);
  let summary = Format.asprintf "%a" Engine.pp_summary r in
  Alcotest.(check bool) "summary names the aborted faults" true
    (contains ~sub:"aborted (2)" summary && contains ~sub:"d/" summary);
  Alcotest.(check bool) "summary names the truncation" true
    (contains ~sub:"truncated (timeout)" summary)

let test_engine_per_fault_abort_and_isolation () =
  let c = Figures.celem_handshake () in
  let g = Explicit.build c in
  let faults = Fault.universe_input_sa c in
  let config =
    {
      Engine.default_config with
      enable_random = false;
      enable_fault_sim = false;
      max_transitions = Some 1;
    }
  in
  let r = Engine.run ~config ~cssg:g c ~faults in
  let d, u, a = statuses r in
  Alcotest.(check int) "outcomes partition the universe"
    (List.length faults) (d + u + a);
  Alcotest.(check bool) "some fault aborted" true (a > 0);
  Alcotest.(check bool) "partial" true (Engine.partial r);
  Alcotest.(check bool) "reasons are the transition ceiling" true
    (List.for_all
       (fun (_, reason) -> reason = Guard.Transition_limit)
       (Engine.aborted_faults r));
  (* per-fault isolation: the same universe with a workable per-fault
     budget detects everything the unguarded engine detects *)
  let generous =
    { config with max_transitions = Some 1_000_000 }
  in
  let r2 = Engine.run ~config:generous ~cssg:g c ~faults in
  Alcotest.(check int) "generous budget aborts nothing" 0 (Engine.aborted r2);
  let unguarded =
    Engine.run
      ~config:{ config with max_transitions = None }
      ~cssg:g c ~faults
  in
  Alcotest.(check int) "and matches the unguarded run"
    (Engine.detected unguarded) (Engine.detected r2)

let test_engine_nonconfluent_state_ceiling () =
  let c = Figures.fig1a () in
  let faults = Fault.universe_input_sa c in
  let config = { Engine.default_config with max_states = Some 1 } in
  let r = Engine.run ~config c ~faults in
  Alcotest.(check bool) "CSSG truncated" true
    (Engine.truncated r = Some Guard.State_limit);
  Alcotest.(check bool) "partial" true (Engine.partial r);
  let d, u, a = statuses r in
  Alcotest.(check int) "outcomes partition the universe"
    (List.length faults) (d + u + a);
  (* the truncated run must never claim more than the full run *)
  let full = Engine.run c ~faults in
  Alcotest.(check bool) "coverage is a lower bound" true
    (Engine.detected r <= Engine.detected full)

(* The drain path of [satg atpg]: the signal handler cancels the run
   guard with [Interrupt] while outcomes are landing.  Here the cancel
   comes at the first committed outcome, inside the random phase: its
   detections stay, and every fault left for the search ends aborted. *)
let test_engine_interrupt_drains () =
  let c = Figures.celem_handshake () in
  let faults = Fault.universe_input_sa c @ Fault.universe_output_sa c in
  let guard = Guard.create () in
  let on_outcome _ _ = Guard.cancel guard Guard.Interrupt in
  let r = Engine.run ~guard ~on_outcome c ~faults in
  Alcotest.(check int) "universe" 14 (Engine.total r);
  Alcotest.(check int) "random detections stay" 7
    (Engine.detected_by r Testset.Random);
  Alcotest.(check int) "nothing else detected" 7 (Engine.detected r);
  Alcotest.(check int) "the rest aborted" 7 (Engine.aborted r);
  Alcotest.(check bool) "every abort is the interrupt" true
    (List.for_all
       (fun (_, reason) -> reason = Guard.Interrupt)
       (Engine.aborted_faults r));
  Alcotest.(check bool) "partial" true (Engine.partial r);
  Alcotest.(check bool) "not cacheable" false (Satg_store.Durable.cacheable r)

let test_delay_and_baseline_abort () =
  let c = Figures.celem_handshake () in
  let g = Explicit.build c in
  let r = Delay_fault.run ~guard:(Guard.create ~max_transitions:1 ()) g in
  Alcotest.(check bool) "delay sweep aborts, never raises" true
    (Delay_fault.aborted r > 0);
  Alcotest.(check int) "every fault accounted for"
    (Delay_fault.total r)
    (List.length r.Delay_fault.outcomes);
  let b =
    Baseline.run c
      ~guard:(Guard.create ~max_transitions:1 ())
      ~cssg:g
      ~faults:(Fault.universe_output_sa c)
  in
  Alcotest.(check bool) "baseline aborts, never raises" true
    (Baseline.aborted b > 0)

let suites =
  [
    ( "robust.guard",
      [
        Alcotest.test_case "none is unlimited" `Quick test_none_unlimited;
        Alcotest.test_case "state ceiling" `Quick test_state_ceiling;
        Alcotest.test_case "transition ceiling" `Quick test_transition_ceiling;
        Alcotest.test_case "expired deadline" `Quick test_expired_deadline;
        Alcotest.test_case "sub-guard isolation" `Quick test_sub_isolation;
        Alcotest.test_case "guarded capture" `Quick test_guarded_capture;
        Alcotest.test_case "cancel poisons subs" `Quick test_cancel_poisons_subs;
        Alcotest.test_case "sub trip stays local" `Quick
          test_sub_trip_stays_local;
      ] );
    ( "robust.saturation",
      [
        Alcotest.test_case "oscillator saturates to Phi" `Quick
          test_ternary_oscillator_saturates;
        Alcotest.test_case "ternary saturation conservative" `Quick
          test_ternary_saturation_conservative;
        Alcotest.test_case "parallel saturation conservative" `Quick
          test_parallel_saturation_conservative;
      ] );
    ( "robust.truncation",
      [
        Alcotest.test_case "explicit subgraph" `Quick
          test_explicit_truncation_subgraph;
        Alcotest.test_case "zero budget keeps reset" `Quick
          test_explicit_zero_budget_keeps_reset;
        Alcotest.test_case "oscillator timeout" `Quick
          test_explicit_timeout_on_oscillator;
        Alcotest.test_case "symbolic subgraph" `Quick
          test_symbolic_truncation_subgraph;
        Alcotest.test_case "symbolic guard mid-apply" `Quick
          test_symbolic_guard_mid_apply;
        Alcotest.test_case "symbolic state-ceiling explosion" `Quick
          test_symbolic_state_ceiling_explosion;
        Alcotest.test_case "symbolic with_guard isolation" `Quick
          test_symbolic_with_guard_isolation;
      ] );
    ( "robust.engine",
      [
        Alcotest.test_case "oscillator timeout aborts all" `Quick
          test_engine_oscillator_timeout;
        Alcotest.test_case "per-fault abort + isolation" `Quick
          test_engine_per_fault_abort_and_isolation;
        Alcotest.test_case "non-confluent state ceiling" `Quick
          test_engine_nonconfluent_state_ceiling;
        Alcotest.test_case "delay + baseline abort" `Quick
          test_delay_and_baseline_abort;
        Alcotest.test_case "interrupt drains the run" `Quick
          test_engine_interrupt_drains;
      ] );
  ]
