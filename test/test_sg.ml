(* Tests for the state-graph library: explicit CSSG construction, the
   symbolic (BDD) engine, and their exact agreement. *)

open Satg_circuit
open Satg_sg
open Satg_bench

let fixtures =
  [ Figures.fig1a; Figures.fig1b; Figures.celem_handshake; Figures.mutex_latch ]

let canonical = Cssg_oracle.canonical

let test_explicit_celem () =
  let c = Figures.celem_handshake () in
  let g = Explicit.build c in
  (* Stable states of (a, b, c): c = 1 forces... every (a,b,c) with the
     C-element stable: (0,0,0) (0,1,0) (1,0,0) (1,1,1) (0,1,1) (1,0,1)
     with env = buffer: 6 states, all reachable. *)
  Alcotest.(check int) "6 states" 6 (Cssg.n_states g);
  (* 3 valid vectors from the extreme states (0,0,c=0) and (1,1,c=1);
     only 2 from the four hold states: toggling both inputs at once
     races the C-element against the second buffer. *)
  Alcotest.(check int) "14 edges" 14 (Cssg.n_edges g);
  List.iter
    (fun i ->
      Alcotest.(check bool) "deterministic" true
        (Cssg.deterministically_reachable g i))
    (List.init (Cssg.n_states g) Fun.id)

let test_explicit_fig1a () =
  let c = Figures.fig1a () in
  let g = Explicit.build c in
  let reset = List.hd (Cssg.initial g) in
  (* (1,0) races: no valid edge with that vector. *)
  Alcotest.(check bool) "no racing edge" true
    (Cssg.apply g reset [| true; false |] = None);
  (* (1,1) settles: a valid edge. *)
  (match Cssg.apply g reset [| true; true |] with
  | Some j ->
    let y = Option.get (Circuit.find_node c "y") in
    Alcotest.(check bool) "y set after 11" true (Cssg.state g j).(y)
  | None -> Alcotest.fail "11 should be a valid vector");
  (* The race's two outcomes are nodes all the same: valid edges enter
     them from other states (10 from 000000 and from 000001).  A state
     that only a race reaches would not be. *)
  Alcotest.(check bool) "has extra nodes" true (Cssg.n_states g > 2);
  let open Satg_sim in
  match Async_sim.apply_vector c ~k:(Cssg.k g) (Cssg.state g reset) [| true; false |] with
  | Async_sim.Non_confluent finals ->
    List.iter
      (fun s ->
        match Cssg.id_of_state g s with
        | Some i ->
          Alcotest.(check bool) "race outcome reachable over valid edges" true
            (Cssg.deterministically_reachable g i)
        | None -> Alcotest.fail "race outcome missing")
      finals
  | _ -> Alcotest.fail "10 should race from reset"

let test_explicit_fig1b_no_edges () =
  let c = Figures.fig1b () in
  let g = Explicit.build c in
  Alcotest.(check int) "single state" 1 (Cssg.n_states g);
  Alcotest.(check int) "no valid vectors at all" 0 (Cssg.n_edges g)

let test_explicit_mutex () =
  let c = Figures.mutex_latch () in
  let g = Explicit.build c in
  let reset = List.hd (Cssg.initial g) in
  (* (1,1) is valid from reset (QB is held at 0 by S). *)
  (match Cssg.apply g reset [| true; true |] with
  | Some both ->
    (* ... but releasing both requests at once races the latch. *)
    Alcotest.(check bool) "11 -> 00 invalid" true
      (Cssg.apply g both [| false; false |] = None)
  | None -> Alcotest.fail "11 should be valid from reset");
  (match Cssg.apply g reset [| true; false |] with
  | Some j ->
    let q = Option.get (Circuit.find_node c "Q") in
    Alcotest.(check bool) "request flips Q" false (Cssg.state g j).(q)
  | None -> Alcotest.fail "10 should be valid from reset")

let test_smaller_k_fewer_edges () =
  let c = Figures.celem_handshake () in
  let big = Explicit.build ~k:(Structure.default_k c) c in
  let small = Explicit.build ~k:1 c in
  Alcotest.(check bool) "k=1 loses edges" true
    (Cssg.n_edges small < Cssg.n_edges big);
  (* k=1 keeps single-buffer-flip transitions that settle in one step. *)
  Alcotest.(check bool) "k=1 keeps something" true (Cssg.n_edges small > 0)

let test_justify_explicit () =
  let c = Figures.celem_handshake () in
  let g = Explicit.build c in
  let cel = Option.get (Circuit.find_node c "c") in
  (match Cssg.justify g ~target:(fun i -> (Cssg.state g i).(cel)) () with
  | Some (vectors, goal) ->
    Alcotest.(check int) "one vector suffices" 1 (List.length vectors);
    Alcotest.(check bool) "goal has c=1" true (Cssg.state g goal).(cel);
    Alcotest.(check (array bool)) "the vector is 11" [| true; true |]
      (List.hd vectors)
  | None -> Alcotest.fail "c=1 should be justifiable");
  (* Unreachable target *)
  Alcotest.(check bool) "impossible target" true
    (Cssg.justify g ~target:(fun _ -> false) () = None)

let test_justify_already_satisfied () =
  let c = Figures.celem_handshake () in
  let g = Explicit.build c in
  match Cssg.justify g ~target:(fun i -> List.mem i (Cssg.initial g)) () with
  | Some ([], _) -> ()
  | Some (_ :: _, _) -> Alcotest.fail "expected empty justification"
  | None -> Alcotest.fail "expected hit"

(* The uncapped netlists of the benchmark's symbolic workload: the
   decomposed pipeline3 and arbiter3, the redundant latch2 and
   vbe10b's bounded-delay netlist.  Large enough that reachability
   takes several rings. *)
let workload_netlists =
  let ok name = function Ok c -> c | Error e -> Alcotest.failf "%s: %s" name e in
  let family fname n redundant () =
    let name = Printf.sprintf "%s%d" fname n in
    let e = ok name (Suite.generate fname ~n) in
    ok name (Satg_stg.Synth.decomposed ~redundant e.Suite.stg)
  in
  [
    family "pipeline" 3 false;
    family "arbiter" 3 false;
    family "latch" 2 true;
    (fun () -> ok "vbe10b" (Suite.bounded_delay (Option.get (Suite.find "vbe10b"))));
  ]

let test_symbolic_matches_explicit () =
  List.iter
    (fun (make, pure) ->
      let c = make () in
      let k = Structure.default_k c in
      (* The build and the symbolic engine must give the reference
         classifier's graph; pure exploration takes seconds on
         pipeline3, so the workload netlists skip it. *)
      let exp = Explicit.build ~k c in
      if pure then
        Alcotest.(check bool)
          (Circuit.name c ^ ": pure-exploration graph")
          true
          (canonical (Cssg_oracle.build ~exploration:`Pure ~k c) = canonical exp);
      let name = Circuit.name c in
      let sym = Symbolic.build ~k c in
      Alcotest.(check int)
        (name ^ ": reachable count")
        (Cssg.n_states exp) (Symbolic.n_reachable sym);
      let gs = Symbolic.to_cssg sym in
      let s1, e1 = canonical exp and s2, e2 = canonical gs in
      Alcotest.(check (list string)) (name ^ ": states") s1 s2;
      Alcotest.(check int) (name ^ ": edge count")
        (List.length e1) (List.length e2);
      List.iter2
        (fun (a, v, b) (a', v', b') ->
          Alcotest.(check (triple string string string))
            (name ^ ": edge")
            (a, v, b) (a', v', b'))
        e1 e2)
    (List.map (fun f -> (f, true)) fixtures
    @ List.map (fun f -> (f, false)) workload_netlists)

(* Under the CI caps (500 states, 200 000 transitions, sifting) the
   pathological pair trips before its first ring completes, so the
   salvage is the reset state alone, with no edges.  A sifting pass
   frees what its swaps orphan, so one completes before the trip and
   the store stays below 50 000 nodes. *)
let test_capped_pair_salvage () =
  List.iter
    (fun text ->
      let c = Test_domains.parse text in
      let name = Circuit.name c in
      let guard =
        Satg_guard.Guard.create ~max_states:500 ~max_transitions:200_000 ()
      in
      let sym = Symbolic.build ~reorder:Satg_bdd.Bdd.Reorder_sift ~guard c in
      Alcotest.(check bool) (name ^ ": transition limit") true
        (Symbolic.truncated sym = Some Satg_guard.Guard.Transition_limit);
      let states, edges = canonical (Symbolic.to_cssg sym) in
      Alcotest.(check (list string)) (name ^ ": reset stub")
        [ Circuit.state_to_string c (Option.get (Circuit.initial c)) ]
        states;
      Alcotest.(check int) (name ^ ": no edges") 0 (List.length edges);
      let st = Symbolic.bdd_stats sym in
      Alcotest.(check bool)
        (Printf.sprintf "%s: a pass completed (%d)" name st.Satg_bdd.Bdd.reorders)
        true (st.Satg_bdd.Bdd.reorders >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "%s: peak %d < 50 000 nodes" name st.Satg_bdd.Bdd.peak_nodes)
        true (st.Satg_bdd.Bdd.peak_nodes < 50_000))
    [ Test_domains.ring_storm_text; Test_domains.toggle_farm_text ]

let test_symbolic_justify () =
  let c = Figures.celem_handshake () in
  let sym = Symbolic.build c in
  let m = Symbolic.man sym in
  let cel = Option.get (Circuit.find_node c "c") in
  (* Target: states with the C-element output high. *)
  let target =
    Satg_bdd.Bdd.and_ m (Symbolic.reachable sym)
      (Satg_bdd.Bdd.var m (3 * cel))
  in
  (match Symbolic.justify sym ~target with
  | Some (vectors, goal) ->
    Alcotest.(check int) "one vector" 1 (List.length vectors);
    Alcotest.(check bool) "goal ok" true goal.(cel)
  | None -> Alcotest.fail "should justify");
  (* Unreachable target: c high with both inputs low is not stable. *)
  let bad =
    Satg_bdd.Bdd.and_list m
      [
        Symbolic.reachable sym;
        Satg_bdd.Bdd.var m (3 * cel);
        Satg_bdd.Bdd.nvar m (3 * (Circuit.inputs c).(0));
        Satg_bdd.Bdd.nvar m (3 * (Circuit.inputs c).(1));
      ]
  in
  Alcotest.(check bool) "unstable target unreachable" true
    (Symbolic.justify sym ~target:bad = None)

let test_symbolic_justify_multi_step () =
  (* mutex: reach the state (R,S)=(1,1), Q=QB=0 — needs at least one
     intermediate hop?  From reset, 11 is direct; instead target
     Q=0,QB=1 with R=0: requires 10 then 00?  From (1,0,Q=0,QB=1),
     applying (0,0) keeps the latch: Q=NOR(0,1)=0, QB=NOR(0,0)=1
     stable, so a 2-step justification exists. *)
  let c = Figures.mutex_latch () in
  let sym = Symbolic.build c in
  let m = Symbolic.man sym in
  let q = Option.get (Circuit.find_node c "Q") in
  let qb = Option.get (Circuit.find_node c "QB") in
  let r_env = (Circuit.inputs c).(0) and s_env = (Circuit.inputs c).(1) in
  let target =
    Satg_bdd.Bdd.and_list m
      [
        Symbolic.reachable sym;
        Satg_bdd.Bdd.nvar m (3 * q);
        Satg_bdd.Bdd.var m (3 * qb);
        Satg_bdd.Bdd.nvar m (3 * r_env);
        Satg_bdd.Bdd.nvar m (3 * s_env);
      ]
  in
  match Symbolic.justify sym ~target with
  | Some (vectors, goal) ->
    Alcotest.(check int) "two hops" 2 (List.length vectors);
    Alcotest.(check bool) "Q low" false goal.(q);
    Alcotest.(check bool) "QB high" true goal.(qb);
    (* Replay the sequence on the explicit graph to double-check. *)
    let g = Explicit.build c in
    let final =
      List.fold_left
        (fun i v ->
          match Cssg.apply g i v with
          | Some j -> j
          | None -> Alcotest.fail "symbolic sequence invalid on explicit graph")
        (List.hd (Cssg.initial g))
        vectors
    in
    Alcotest.(check string) "same final state"
      (Circuit.state_to_string c goal)
      (Circuit.state_to_string c (Cssg.state g final))
  | None -> Alcotest.fail "should justify in two steps"

(* Reordering and extreme cluster caps are representation knobs: neither
   may change the computed graph. *)
let test_symbolic_variants_agree () =
  List.iter
    (fun make ->
      let c = make () in
      let base = Symbolic.build c in
      let reference = canonical (Symbolic.to_cssg base) in
      let check name sym =
        Alcotest.(check int)
          (Circuit.name c ^ ": " ^ name ^ " reachable")
          (Symbolic.n_reachable base) (Symbolic.n_reachable sym);
        Alcotest.(check bool)
          (Circuit.name c ^ ": " ^ name ^ " graph")
          true
          (canonical (Symbolic.to_cssg sym) = reference)
      in
      check "sift" (Symbolic.build ~reorder:Satg_bdd.Bdd.Reorder_sift c);
      check "cluster cap 1" (Symbolic.build ~cluster_cap:1 c);
      (* forcing a sifting pass on the live manager must not disturb
         the already-built artefacts: handles survive reordering *)
      Satg_bdd.Bdd.sift (Symbolic.man base);
      Alcotest.(check bool)
        (Circuit.name c ^ ": post-sift enumeration")
        true
        (canonical (Symbolic.to_cssg base) = reference))
    fixtures

(* A guard trip with reordering enabled must fail soft: the build
   returns a truncated-but-sound graph (a subgraph of the full one)
   and every query still works — the salvage path detaches the guard
   AND freezes the order, so no unguarded sifting pass can run. *)
let test_symbolic_sift_fail_soft () =
  let c = Figures.celem_handshake () in
  let guard = Satg_guard.Guard.create ~max_transitions:2 () in
  let sym =
    Symbolic.build ~reorder:Satg_bdd.Bdd.Reorder_sift ~guard c
  in
  Alcotest.(check bool) "truncated" true (Symbolic.truncated sym <> None);
  let partial = Symbolic.to_cssg sym in
  Alcotest.(check bool) "tag carries over" true
    (Cssg.truncated partial <> None);
  Alcotest.(check bool) "at least the reset state" true
    (Cssg.n_states partial >= 1);
  let full = Explicit.build c in
  let states g =
    List.init (Cssg.n_states g) (fun i ->
        Circuit.state_to_string (Cssg.circuit g) (Cssg.state g i))
  in
  let full_states = states full in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("sound state " ^ s) true
        (List.mem s full_states))
    (states partial)

(* --- forced collection ------------------------------------------------------- *)

(* Collect at every safe point of the symbolic engine (each TCR_k image
   step, each ring, each justify entry), whatever the store size.
   Survivors keep their handles, so no graph, partition or
   justification may move. *)
let with_forced_collection f () =
  Test_store.with_inject "bdd.collect=force@p1" f

(* The benchmark's four uncapped netlists through the BDD engine: CSSG,
   and every outcome with its test sequence, forced = unforced. *)
let test_forced_collection_agrees () =
  let open Satg_core in
  let config = { Engine.default_config with Engine.engine = Engine.Bdd } in
  let observe c =
    let sym = Symbolic.build c in
    let graph = canonical (Symbolic.to_cssg sym) in
    let r = Session.run ~config c Session.Both in
    let outcomes =
      List.map
        (Format.asprintf "%a" (Testset.pp_outcome c))
        r.Engine.outcomes
    in
    (graph, outcomes, (Symbolic.bdd_stats sym).Satg_bdd.Bdd.collections)
  in
  List.iter
    (fun make ->
      let c = make () in
      let name = Circuit.name c in
      let graph, outcomes, _ = observe c in
      let graph', outcomes', forced =
        with_forced_collection (fun () -> observe c) ()
      in
      Alcotest.(check bool) (name ^ ": forced collections ran") true
        (forced > 0);
      Alcotest.(check bool) (name ^ ": same graph") true (graph = graph');
      Alcotest.(check (list string)) (name ^ ": same outcomes") outcomes
        outcomes')
    workload_netlists

let suites =
  [
    ( "sg.explicit",
      [
        Alcotest.test_case "celem graph" `Quick test_explicit_celem;
        Alcotest.test_case "fig1a pruning" `Quick test_explicit_fig1a;
        Alcotest.test_case "fig1b no edges" `Quick test_explicit_fig1b_no_edges;
        Alcotest.test_case "mutex release race" `Quick test_explicit_mutex;
        Alcotest.test_case "k sensitivity" `Quick test_smaller_k_fewer_edges;
        Alcotest.test_case "justify" `Quick test_justify_explicit;
        Alcotest.test_case "justify trivial" `Quick test_justify_already_satisfied;
      ] );
    ( "sg.symbolic",
      [
        Alcotest.test_case "matches explicit" `Slow test_symbolic_matches_explicit;
        Alcotest.test_case "capped pair salvage" `Quick test_capped_pair_salvage;
        Alcotest.test_case "justify" `Quick test_symbolic_justify;
        Alcotest.test_case "justify multi-step" `Quick test_symbolic_justify_multi_step;
        Alcotest.test_case "variants agree" `Slow test_symbolic_variants_agree;
        Alcotest.test_case "sift fail-soft" `Quick test_symbolic_sift_fail_soft;
        Alcotest.test_case "matches explicit, forced collection" `Slow
          (with_forced_collection test_symbolic_matches_explicit);
        Alcotest.test_case "justify, forced collection" `Quick
          (with_forced_collection test_symbolic_justify);
        Alcotest.test_case "justify multi-step, forced collection" `Quick
          (with_forced_collection test_symbolic_justify_multi_step);
        Alcotest.test_case "variants agree, forced collection" `Slow
          (with_forced_collection test_symbolic_variants_agree);
        Alcotest.test_case "forced collection = unforced" `Slow
          test_forced_collection_agrees;
      ] );
  ]
