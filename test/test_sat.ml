(* The SAT subsystem: Tseitin gate clauses, CDCL solver basics, the
   time-frame unroller, guard-governed degradation, and the qcheck
   differential oracle pitting SAT justification against explicit BFS
   on random circuits. *)

open Satg_guard
open Satg_fault
open Satg_sg
open Satg_core
module Sat = Satg_sat.Sat
module Cnf = Satg_cnf.Cnf

let fresh s = Sat.pos (Sat.new_var s)

(* Force a literal's value for the duration of one solve. *)
let assume_bit l b = if b then l else Sat.neg l

let all_bools n =
  List.init (1 lsl n) (fun mask ->
      List.init n (fun i -> mask land (1 lsl i) <> 0))

(* --- Tseitin gate definitions: exhaustive truth-table checks ------------- *)

let check_gate name define semantics arity =
  let s = Sat.create () in
  let y = fresh s in
  let xs = List.init arity (fun _ -> fresh s) in
  define s y xs;
  List.iter
    (fun bits ->
      let assumptions = List.map2 assume_bit xs bits in
      Alcotest.(check bool)
        (Printf.sprintf "%s satisfiable under any input" name)
        true
        (Sat.solve ~assumptions s);
      Alcotest.(check bool)
        (Printf.sprintf "%s output forced" name)
        (semantics bits)
        (Sat.lit_true s y);
      (* the opposite output value must be contradictory *)
      Alcotest.(check bool)
        (Printf.sprintf "%s output functional" name)
        false
        (Sat.solve
           ~assumptions:(assume_bit y (not (semantics bits)) :: assumptions)
           s))
    (all_bools arity)

let test_tseitin_and () =
  check_gate "and2" Cnf.define_and (List.for_all Fun.id) 2;
  check_gate "and3" Cnf.define_and (List.for_all Fun.id) 3

let test_tseitin_or () =
  check_gate "or2" Cnf.define_or (List.exists Fun.id) 2;
  check_gate "or3" Cnf.define_or (List.exists Fun.id) 3

let test_tseitin_xor () =
  check_gate "xor"
    (fun s y xs ->
      match xs with
      | [ a; b ] -> Cnf.define_xor s y a b
      | _ -> assert false)
    (fun bits -> List.fold_left (fun acc b -> acc <> b) false bits)
    2

let test_tseitin_ite () =
  check_gate "ite"
    (fun s y xs ->
      match xs with
      | [ c; a; b ] -> Cnf.define_ite s y c a b
      | _ -> assert false)
    (fun bits ->
      match bits with [ c; a; b ] -> (if c then a else b) | _ -> assert false)
    3

let test_tseitin_eq () =
  check_gate "eq"
    (fun s y xs ->
      match xs with
      | [ a ] ->
        Cnf.define_eq s y a
      | _ -> assert false)
    (fun bits -> List.hd bits)
    1

let test_at_most_one () =
  let n = 5 in
  let s = Sat.create () in
  let xs = List.init n (fun _ -> fresh s) in
  Cnf.at_most_one s xs;
  List.iter
    (fun bits ->
      let expected = List.filter Fun.id bits |> List.length <= 1 in
      Alcotest.(check bool) "ladder AMO" expected
        (Sat.solve ~assumptions:(List.map2 assume_bit xs bits) s))
    (all_bools n)

let test_at_most_one_counts () =
  (* The commander-chain encoding must cost exactly (n-2) auxiliary
     variables and (3n-5) clauses for n >= 2: the last element closes
     the chain instead of getting a commander of its own.  Pins the
     fix for the dead-variable variant (one unused commander plus two
     vacuous clauses per call). *)
  let count n =
    let s = Sat.create () in
    let xs = List.init n (fun _ -> fresh s) in
    Cnf.at_most_one s xs;
    (Sat.nvars s - n, (Sat.stats s).Sat.n_clauses)
  in
  Alcotest.(check (pair int int)) "n=0: free" (0, 0) (count 0);
  Alcotest.(check (pair int int)) "n=1: free" (0, 0) (count 1);
  Alcotest.(check (pair int int)) "n=2: one binary clause" (0, 1) (count 2);
  Alcotest.(check (pair int int)) "n=3: 1 var, 4 clauses" (1, 4) (count 3);
  Alcotest.(check (pair int int)) "n=5: 3 vars, 10 clauses" (3, 10) (count 5)

(* --- CDCL basics ---------------------------------------------------------- *)

let test_unit_propagation_chain () =
  let s = Sat.create () in
  let a = fresh s and b = fresh s and c = fresh s in
  Sat.add_clause s [ Sat.neg a; b ];
  Sat.add_clause s [ Sat.neg b; c ];
  Alcotest.(check bool) "sat" true (Sat.solve ~assumptions:[ a ] s);
  Alcotest.(check bool) "chain propagates" true (Sat.lit_true s c);
  Alcotest.(check bool) "propagations counted" true
    ((Sat.stats s).Sat.propagations > 0);
  Alcotest.(check bool) "contradiction detected" false
    (Sat.solve ~assumptions:[ a; Sat.neg c ] s)

let test_root_conflict_permanent () =
  let s = Sat.create () in
  let a = fresh s in
  Sat.add_clause s [ a ];
  Sat.add_clause s [ Sat.neg a ];
  Alcotest.(check bool) "permanently unsat" false (Sat.solve s);
  Alcotest.(check bool) "stays unsat" false (Sat.solve s)

(* Pigeonhole: php(n, n) is satisfiable, php(n+1, n) classically
   unsatisfiable and conflict-heavy — learning and restarts engage. *)
let php s ~pigeons ~holes =
  let v = Array.init pigeons (fun _ -> Array.init holes (fun _ -> fresh s)) in
  for p = 0 to pigeons - 1 do
    Sat.add_clause s (Array.to_list v.(p));
    Cnf.at_most_one s (Array.to_list v.(p))
  done;
  for h = 0 to holes - 1 do
    Cnf.at_most_one s (List.init pigeons (fun p -> v.(p).(h)))
  done;
  v

let test_pigeonhole () =
  let s = Sat.create () in
  let v = php s ~pigeons:4 ~holes:4 in
  Alcotest.(check bool) "php(4,4) sat" true (Sat.solve s);
  (* the model must be a real assignment: every pigeon in one hole *)
  Array.iter
    (fun row ->
      Alcotest.(check int) "one hole per pigeon" 1
        (Array.to_list row
        |> List.filter (fun l -> Sat.lit_true s l)
        |> List.length))
    v;
  let s = Sat.create () in
  ignore (php s ~pigeons:5 ~holes:4);
  Alcotest.(check bool) "php(5,4) unsat" false (Sat.solve s);
  Alcotest.(check bool) "conflicts counted" true
    ((Sat.stats s).Sat.conflicts > 0);
  Alcotest.(check bool) "clauses learned" true ((Sat.stats s).Sat.learned > 0)

let test_incremental_assumptions () =
  let s = Sat.create () in
  let a = fresh s and b = fresh s in
  Sat.add_clause s [ a; b ];
  Alcotest.(check bool) "unsat under both negated" false
    (Sat.solve ~assumptions:[ Sat.neg a; Sat.neg b ] s);
  Alcotest.(check bool) "sat again without assumptions" true (Sat.solve s);
  Alcotest.(check bool) "assumption propagates" true
    (Sat.solve ~assumptions:[ Sat.neg a ] s && Sat.lit_true s b)

(* Differential: random 3-SAT vs brute-force enumeration, fixed seed. *)
let test_random_3sat_vs_bruteforce () =
  let rng = Random.State.make [| 0x5a7e |] in
  for _ = 1 to 40 do
    let n_vars = 4 + Random.State.int rng 5 in
    let n_clauses = 6 + Random.State.int rng 20 in
    let clauses =
      List.init n_clauses (fun _ ->
          List.init 3 (fun _ ->
              let v = Random.State.int rng n_vars in
              if Random.State.bool rng then 2 * v else (2 * v) + 1))
    in
    let brute =
      List.exists
        (fun mask ->
          List.for_all
            (List.exists (fun l ->
                 let v = l / 2 and negated = l land 1 = 1 in
                 mask land (1 lsl v) <> 0 <> negated))
            clauses)
        (List.init (1 lsl n_vars) Fun.id)
    in
    let s = Sat.create () in
    for _ = 1 to n_vars do
      ignore (Sat.new_var s)
    done;
    List.iter (Sat.add_clause s) clauses;
    let sat = Sat.solve s in
    Alcotest.(check bool) "matches brute force" brute sat;
    if sat then
      (* the model must actually satisfy every clause *)
      Alcotest.(check bool) "model satisfies" true
        (List.for_all (List.exists (Sat.lit_true s)) clauses)
  done

(* --- activation literals -------------------------------------------------- *)

let test_activation_gating () =
  let s = Sat.create () in
  let a = fresh s in
  let act = Sat.new_act s in
  Sat.add_clause ~act s [ Sat.neg a ];
  Sat.add_clause s [ a ];
  Alcotest.(check bool) "inactive group does not constrain" true (Sat.solve s);
  Alcotest.(check bool) "active group constrains" false
    (Sat.solve ~assumptions:[ Sat.act_lit s act ] s);
  Sat.retire s act;
  Alcotest.(check bool) "retired group gone" true (Sat.solve s);
  Alcotest.(check bool) "deletion counted" true
    ((Sat.stats s).Sat.deleted_clauses > 0);
  Sat.retire s act;
  (* idempotent *)
  match Sat.add_clause ~act s [ a ] with
  | () -> Alcotest.fail "adding to a retired activation must raise"
  | exception Invalid_argument _ -> ()

let test_retire_deletes_learned () =
  (* A conflict-heavy group: php(5,4) pigeon clauses under one
     activation, hole constraints act-free.  The clauses learned while
     the group was active mention the activation literal (resolution
     preserves the guard), so retirement must delete them too — the
     residual act-free instance is satisfiable. *)
  let s = Sat.create () in
  let act = Sat.new_act s in
  let v = Array.init 5 (fun _ -> Array.init 4 (fun _ -> fresh s)) in
  for p = 0 to 4 do
    Sat.add_clause ~act s (Array.to_list v.(p))
  done;
  for h = 0 to 3 do
    Cnf.at_most_one s (List.init 5 (fun p -> v.(p).(h)))
  done;
  Alcotest.(check bool) "php(5,4) unsat when active" false
    (Sat.solve ~assumptions:[ Sat.act_lit s act ] s);
  Alcotest.(check bool) "real search happened" true
    ((Sat.stats s).Sat.conflicts > 0);
  Sat.retire s act;
  Alcotest.(check bool) "satisfiable after retirement" true (Sat.solve s);
  Alcotest.(check bool) "group clauses deleted" true
    ((Sat.stats s).Sat.deleted_clauses >= 5)

let test_activation_churn_compacts () =
  (* Many short-lived groups on one instance: retirement-driven arena
     compaction must keep the solver correct throughout (watch lists
     rebuilt over moved clauses, shared clauses intact). *)
  let s = Sat.create () in
  let x = fresh s and y = fresh s in
  Sat.add_clause s [ Sat.neg x; y ];
  (* shared, must survive all churn *)
  for round = 1 to 60 do
    let act = Sat.new_act s in
    let zs = List.init 8 (fun _ -> fresh s) in
    List.iter (fun z -> Sat.add_clause ~act s [ Sat.neg x; z ]) zs;
    Sat.add_clause ~act s (List.map Sat.neg zs);
    Alcotest.(check bool)
      (Printf.sprintf "round %d: satisfiable without x" round)
      true
      (Sat.solve ~assumptions:[ Sat.act_lit s act; Sat.neg x ] s);
    Alcotest.(check bool)
      (Printf.sprintf "round %d: group forces a conflict with x" round)
      false
      (Sat.solve ~assumptions:[ Sat.act_lit s act; x ] s);
    Sat.retire s act;
    List.iter (fun z -> Sat.set_decidable s (Sat.var_of z) false) zs
  done;
  Alcotest.(check bool) "deletions accumulated" true
    ((Sat.stats s).Sat.deleted_clauses >= 60 * 9);
  Alcotest.(check bool) "shared clause still propagates" true
    (Sat.solve ~assumptions:[ x ] s && Sat.lit_true s y)

let test_reused_shared_counter () =
  (* Clauses predating the newest activation that serve as propagation
     reasons under it are the cross-fault payoff; the counter must see
     them and must not fire while no activation exists. *)
  let s = Sat.create () in
  let a = fresh s and b = fresh s and c = fresh s in
  Sat.add_clause s [ Sat.neg a; b ];
  Sat.add_clause s [ Sat.neg b; c ];
  Alcotest.(check bool) "warm-up solve" true (Sat.solve ~assumptions:[ a ] s);
  Alcotest.(check int) "no activation, no shared reuse" 0
    (Sat.stats s).Sat.reused_shared;
  let act = Sat.new_act s in
  Sat.add_clause ~act s [ a ];
  Alcotest.(check bool) "sat under activation" true
    (Sat.solve ~assumptions:[ Sat.act_lit s act ] s);
  Alcotest.(check bool) "chain propagated" true (Sat.lit_true s c);
  Alcotest.(check bool) "pre-activation clauses counted as reused" true
    ((Sat.stats s).Sat.reused_shared >= 2)

let test_reused_learned_counter () =
  (* A relaxed pigeonhole — unsat only under the ~r assumptions, so
     the instance never becomes root-unsat and the clauses learned by
     the first solve drive propagation in the second. *)
  let s = Sat.create () in
  let r1 = fresh s and r2 = fresh s in
  let v = Array.init 5 (fun _ -> Array.init 4 (fun _ -> fresh s)) in
  for p = 0 to 4 do
    Sat.add_clause s ((if p mod 2 = 0 then r1 else r2) :: Array.to_list v.(p))
  done;
  for h = 0 to 3 do
    Cnf.at_most_one s (List.init 5 (fun p -> v.(p).(h)))
  done;
  let asm = [ Sat.neg r1; Sat.neg r2 ] in
  Alcotest.(check bool) "unsat under relaxation off" false
    (Sat.solve ~assumptions:asm s);
  let st1 = Sat.stats s in
  Alcotest.(check bool) "first solve learned" true (st1.Sat.learned > 0);
  Alcotest.(check int) "nothing learned earlier to reuse" 0
    st1.Sat.reused_learned;
  Alcotest.(check bool) "still unsat on the second ask" false
    (Sat.solve ~assumptions:asm s);
  Alcotest.(check bool) "second solve reused learned clauses" true
    ((Sat.stats s).Sat.reused_learned > 0);
  Alcotest.(check bool) "satisfiable with relaxation free" true (Sat.solve s)

(* --- resource governance -------------------------------------------------- *)

let test_guard_trip_inside_propagation () =
  (* An already-expired deadline trips through Guard.tick on the
     propagation hot path — inside the search, not at its boundary. *)
  let s = Sat.create () in
  ignore (php s ~pigeons:6 ~holes:5);
  let expired = Guard.create ~timeout:(-1.0) () in
  Sat.set_guard s expired;
  (match Sat.solve s with
  | (_ : bool) -> Alcotest.fail "expected Guard.Exhausted"
  | exception Guard.Exhausted Guard.Timeout -> ()
  | exception Guard.Exhausted r ->
    Alcotest.failf "wrong reason %s" (Guard.reason_to_string r));
  (* the instance survives the trip: swap the guard, solve to the end *)
  Sat.set_guard s Guard.none;
  Alcotest.(check bool) "usable after trip" false (Sat.solve s)

let test_guard_transition_ceiling () =
  let s = Sat.create () in
  ignore (php s ~pigeons:6 ~holes:5);
  Sat.set_guard s (Guard.create ~max_transitions:20 ());
  (match Sat.solve s with
  | (_ : bool) -> Alcotest.fail "expected Guard.Exhausted"
  | exception Guard.Exhausted Guard.Transition_limit -> ()
  | exception Guard.Exhausted r ->
    Alcotest.failf "wrong reason %s" (Guard.reason_to_string r));
  Sat.set_guard s Guard.none;
  Alcotest.(check bool) "usable after trip" false (Sat.solve s)

let test_engine_sat_degradation () =
  (* A per-fault budget tripping inside SAT search must degrade to
     Aborted outcomes (sound partial result), never escape or claim a
     detection it did not replay. *)
  let c = Satg_bench.Figures.celem_handshake () in
  let faults = Fault.universe_input_sa c in
  let g = Explicit.build c in
  let config =
    {
      Engine.default_config with
      engine = Engine.Sat;
      enable_random = false;
      max_transitions = Some 1;
    }
  in
  let r = Engine.run ~config ~cssg:g c ~faults in
  let statuses st =
    List.length
      (List.filter (fun o -> st o.Satg_core.Testset.status) r.Engine.outcomes)
  in
  let d = statuses Testset.is_detected in
  let a = statuses Testset.is_aborted in
  let u = statuses (fun s -> s = Testset.Undetected) in
  Alcotest.(check int) "outcomes partition the universe"
    (List.length faults) (d + u + a);
  Alcotest.(check bool) "some fault aborted" true (a > 0);
  Alcotest.(check bool) "partial" true (Engine.partial r);
  (* every detection claim still replays exactly *)
  List.iter
    (fun o ->
      match o.Testset.status with
      | Testset.Detected { sequence; _ } ->
        Alcotest.(check bool) "replays" true
          (Detect.check_exact g o.Testset.fault sequence)
      | _ -> ())
    r.Engine.outcomes

let test_engine_sat_stats_threaded () =
  let c = Satg_bench.Figures.mutex_latch () in
  let faults = Fault.universe_input_sa c in
  let run engine =
    Engine.run
      ~config:{ Engine.default_config with engine; enable_random = false }
      c ~faults
  in
  (match (run Engine.Sat).Engine.sat_stats with
  | None -> Alcotest.fail "sat engine must report stats"
  | Some s ->
    Alcotest.(check bool) "vars allocated" true (s.Sat.n_vars > 0);
    Alcotest.(check bool) "clauses added" true (s.Sat.n_clauses > 0));
  Alcotest.(check bool) "explicit engine has no sat stats" true
    ((run Engine.Explicit).Engine.sat_stats = None)

(* --- time-frame unroller -------------------------------------------------- *)

let test_unroller_diamond () =
  (* 0 -> {1, 2} -> 3: state 3 first reachable at frame 2, through
     either middle state; decoding returns a real length-2 path. *)
  let s = Sat.create () in
  let u = Cnf.Unroller.create s in
  let s0 = Cnf.Unroller.add_state u ~initial:true in
  let s1 = Cnf.Unroller.add_state u ~initial:false in
  let s2 = Cnf.Unroller.add_state u ~initial:false in
  let s3 = Cnf.Unroller.add_state u ~initial:false in
  let e01 = Cnf.Unroller.add_edge u ~src:s0 ~dst:s1 in
  let e02 = Cnf.Unroller.add_edge u ~src:s0 ~dst:s2 in
  let e13 = Cnf.Unroller.add_edge u ~src:s1 ~dst:s3 in
  let e23 = Cnf.Unroller.add_edge u ~src:s2 ~dst:s3 in
  Cnf.Unroller.ensure_frames u ~upto:2;
  let at frame st = Option.get (Cnf.Unroller.state_lit u ~frame st) in
  Alcotest.(check bool) "initial at frame 0" true
    (Sat.solve ~assumptions:[ at 0 s0 ] s);
  Alcotest.(check bool) "non-initial not at frame 0" false
    (Sat.solve ~assumptions:[ at 0 s3 ] s);
  Alcotest.(check bool) "too early" false
    (Sat.solve ~assumptions:[ at 1 s3 ] s);
  Alcotest.(check bool) "middle ring" true
    (Sat.solve ~assumptions:[ at 1 s1 ] s);
  Alcotest.(check bool) "sink at frame 2" true
    (Sat.solve ~assumptions:[ at 2 s3 ] s);
  let path = Cnf.Unroller.decode_path u ~frame:2 ~state:s3 in
  Alcotest.(check bool) "real length-2 path" true
    (path = [ e01; e13 ] || path = [ e02; e23 ])

let test_unroller_late_states () =
  (* A state added after a frame is encoded does not exist there: the
     ring-synchronized product protocol relies on exactly this. *)
  let s = Sat.create () in
  let u = Cnf.Unroller.create s in
  let s0 = Cnf.Unroller.add_state u ~initial:true in
  let s1 = Cnf.Unroller.add_state u ~initial:false in
  ignore (Cnf.Unroller.add_edge u ~src:s0 ~dst:s1);
  Cnf.Unroller.ensure_frames u ~upto:1;
  let s2 = Cnf.Unroller.add_state u ~initial:false in
  ignore (Cnf.Unroller.add_edge u ~src:s1 ~dst:s2);
  Alcotest.(check bool) "late state absent from old frame" true
    (Cnf.Unroller.state_lit u ~frame:1 s2 = None);
  Cnf.Unroller.ensure_frames u ~upto:2;
  Alcotest.(check bool) "late state reachable at its ring" true
    (Sat.solve
       ~assumptions:[ Option.get (Cnf.Unroller.state_lit u ~frame:2 s2) ]
       s)

(* --- product-state cap: fail-soft, never silently undetectable ---------- *)

let test_tiny_product_cap_fail_soft () =
  (* Regression for the silent-stop bug: under a product-state cap the
     search cannot honour, a fault that the uncapped run detects must
     either still be detected (activation caught it before
     differentiation) or raise Guard.Exhausted — NEVER come back as
     "undetectable" from a product graph the search never finished.
     Checked on both the SAT and the explicit differentiators. *)
  let stg = Result.get_ok (Satg_concepts.Families.generate "latch" ~n:2) in
  let c = Result.get_ok (Satg_stg.Synth.decomposed ~redundant:true stg) in
  let g = Explicit.build c in
  let faults = Fault.universe_input_sa c @ Fault.universe_output_sa c in
  let tiny = { Three_phase.default_config with max_product_states = 1 } in
  let run name config backend =
    let capped = ref 0 in
    List.iter
      (fun f ->
        let full = Three_phase.find_test ?backend g f in
        let small =
          match Three_phase.find_test ~config ?backend g f with
          | r -> `Result r
          | exception Guard.Exhausted reason -> `Exhausted reason
        in
        match (full, small) with
        | Some _, `Result None ->
          Alcotest.failf "%s: %s detectable but silently undetected under cap"
            name (Fault.to_string c f)
        | _, `Exhausted Guard.State_limit -> incr capped
        | _, `Exhausted reason ->
          Alcotest.failf "%s: wrong exhaustion reason %s" name
            (Guard.reason_to_string reason)
        | _ -> ())
      faults;
    Alcotest.(check bool) (name ^ ": the cap actually tripped") true (!capped > 0)
  in
  run "explicit" tiny None;
  let se = Sat_engine.create g in
  run "sat" tiny (Some (Sat_engine.backend se))

(* --- differential oracle: SAT justification vs explicit BFS -------------- *)

(* On random small circuits, for every CSSG state: SAT justification
   finds a path iff breadth-first search does, with the same (shortest)
   length, and the SAT path is a real valid-edge path from reset. *)
let prop_sat_justification_matches_bfs =
  QCheck.Test.make
    ~name:"random circuits: SAT justification = explicit BFS" ~count:40
    Test_random_circuits.spec_arb (fun spec ->
      match Test_random_circuits.build_spec spec with
      | None -> QCheck.assume_fail ()
      | Some c ->
        let g = Explicit.build c in
        let se = Sat_engine.create g in
        let backend = Sat_engine.backend se in
        List.for_all
          (fun i ->
            let bfs = Cssg.justify g ~target:(( = ) i) () in
            let sat = backend.Three_phase.backend_justify Guard.none i in
            match (bfs, sat) with
            | None, None -> true
            | Some _, None | None, Some _ -> false
            | Some (bv, _), Some sv ->
              List.length bv = List.length sv
              && (* the SAT path must replay to the target *)
              List.fold_left
                (fun state v ->
                  match state with
                  | None -> None
                  | Some j -> Cssg.apply g j v)
                (Some (List.hd (Cssg.initial g)))
                sv
              = Some i)
          (List.init (Cssg.n_states g) Fun.id))

(* On random circuits the SAT engine, one solver shared by every fault
   through activation literals, must agree fault by fault with the
   explicit three-phase search: same status, and for detections the
   same sequence length.  Both engines justify along BFS-shortest
   prefixes and differentiate by shortest suffixes; the lengths agreed
   on all 1 800 draws of QCHECK_SEED 1-6 at count 300. *)
let prop_sat_incremental_matches_explicit =
  QCheck.Test.make
    ~name:"random circuits: incremental SAT = explicit three-phase search"
    ~count:25 Test_random_circuits.spec_arb (fun spec ->
      match Test_random_circuits.build_spec spec with
      | None -> QCheck.assume_fail ()
      | Some c ->
        let g = Explicit.build c in
        let faults = Fault.universe_input_sa c @ Fault.universe_output_sa c in
        let statuses backend =
          List.map
            (fun f ->
              match Three_phase.find_test ?backend g f with
              | Some seq -> `Detected (List.length seq)
              | None -> `Undetected
              | exception Guard.Exhausted _ -> `Aborted)
            faults
        in
        let se = Sat_engine.create g in
        statuses (Some (Sat_engine.backend se)) = statuses None)

let suites =
  [
    ( "sat.tseitin",
      [
        Alcotest.test_case "and" `Quick test_tseitin_and;
        Alcotest.test_case "or" `Quick test_tseitin_or;
        Alcotest.test_case "xor" `Quick test_tseitin_xor;
        Alcotest.test_case "ite" `Quick test_tseitin_ite;
        Alcotest.test_case "eq" `Quick test_tseitin_eq;
        Alcotest.test_case "at-most-one ladder" `Quick test_at_most_one;
        Alcotest.test_case "at-most-one exact cost" `Quick
          test_at_most_one_counts;
      ] );
    ( "sat.activation",
      [
        Alcotest.test_case "gating and retirement" `Quick test_activation_gating;
        Alcotest.test_case "retire deletes learned clauses" `Quick
          test_retire_deletes_learned;
        Alcotest.test_case "churn survives compaction" `Quick
          test_activation_churn_compacts;
        Alcotest.test_case "reused-shared counter" `Quick
          test_reused_shared_counter;
        Alcotest.test_case "reused-learned counter" `Quick
          test_reused_learned_counter;
      ] );
    ( "sat.cdcl",
      [
        Alcotest.test_case "unit propagation chain" `Quick
          test_unit_propagation_chain;
        Alcotest.test_case "root conflict permanent" `Quick
          test_root_conflict_permanent;
        Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
        Alcotest.test_case "incremental assumptions" `Quick
          test_incremental_assumptions;
        Alcotest.test_case "random 3-SAT vs brute force" `Quick
          test_random_3sat_vs_bruteforce;
      ] );
    ( "sat.guard",
      [
        Alcotest.test_case "trip inside propagation" `Quick
          test_guard_trip_inside_propagation;
        Alcotest.test_case "transition ceiling" `Quick
          test_guard_transition_ceiling;
        Alcotest.test_case "engine degradation" `Quick
          test_engine_sat_degradation;
        Alcotest.test_case "stats threaded" `Quick
          test_engine_sat_stats_threaded;
      ] );
    ( "sat.unroller",
      [
        Alcotest.test_case "diamond" `Quick test_unroller_diamond;
        Alcotest.test_case "late states" `Quick test_unroller_late_states;
      ] );
    ( "sat.product_cap",
      [
        Alcotest.test_case "tiny cap fails soft" `Quick
          test_tiny_product_cap_fail_soft;
      ] );
    ( "sat.differential",
      [
        QCheck_alcotest.to_alcotest prop_sat_justification_matches_bfs;
        QCheck_alcotest.to_alcotest prop_sat_incremental_matches_explicit;
      ] );
  ]
