(* Randomized cross-checks over generated netlists: the strongest
   correctness evidence in the suite.  For random small circuits with
   feedback we assert that

   - ternary simulation is sound w.r.t. exhaustive exploration,
   - the explicit and symbolic CSSG engines give the reference graph,
   - the pooled explicit build equals the reference BFS under budgets,
   - bit-parallel fault simulation equals scalar ternary simulation,
   - the netlist text format round-trips behaviour exactly. *)

open Satg_logic
open Satg_circuit
open Satg_fault
open Satg_sim
open Satg_sg

(* --- random circuit generator -------------------------------------------- *)

type spec = {
  n_inputs : int;
  gate_funcs : Gatefunc.t list;  (* in creation order *)
  fanin_picks : int list list;  (* raw generator choices, resolved mod nodes *)
}

let func_pool =
  Gatefunc.[ And; Or; Nand; Nor; Not; Buf; Xor; Celem; Mux ]

let gen_spec =
  let open QCheck.Gen in
  let* n_inputs = int_range 1 2 in
  let* n_gates = int_range 2 5 in
  let* gate_funcs =
    list_size (return n_gates) (oneofl func_pool)
  in
  let* fanin_picks =
    list_size (return n_gates)
      (list_size (int_range 1 3) (int_range 0 1000))
  in
  return { n_inputs; gate_funcs; fanin_picks }

let arity_for func picks =
  match func with
  | Gatefunc.Not | Gatefunc.Buf -> [ List.hd picks ]
  | Gatefunc.Celem -> (
    match picks with
    | a :: b :: _ -> [ a; b ]
    | [ a ] -> [ a; a ]
    | [] -> assert false)
  | Gatefunc.Mux -> (
    match picks with
    | a :: b :: c :: _ -> [ a; b; c ]
    | [ a; b ] -> [ a; b; b ]
    | [ a ] -> [ a; a; a ]
    | [] -> assert false)
  | _ -> picks

(* Build the circuit; returns [None] when no stable reset state is
   found (the generator's precondition). *)
let build_spec spec =
  let b = Circuit.Builder.create "random" in
  let inputs =
    List.init spec.n_inputs (fun i ->
        Circuit.Builder.add_input b (Printf.sprintf "i%d" i))
  in
  let gate_ids =
    List.mapi
      (fun i _ -> Circuit.Builder.declare_gate b ~name:(Printf.sprintf "g%d" i))
      spec.gate_funcs
  in
  let nodes = Array.of_list (inputs @ gate_ids) in
  List.iteri
    (fun i func ->
      let picks = arity_for func (List.nth spec.fanin_picks i) in
      let fanin =
        List.map (fun p -> nodes.(p mod Array.length nodes)) picks
      in
      Circuit.Builder.define_gate b (List.nth gate_ids i) func fanin)
    spec.gate_funcs;
  (* observe the last two gates *)
  List.iteri
    (fun i gid ->
      if i >= List.length gate_ids - 2 then Circuit.Builder.mark_output b gid)
    gate_ids;
  let c = Circuit.Builder.finalize b in
  (* Hunt for a stable reset state: settle from each all-inputs vector. *)
  let n = Circuit.n_nodes c in
  let rec try_vec mask =
    if mask >= 1 lsl spec.n_inputs then None
    else
      let v = Array.init spec.n_inputs (fun i -> mask land (1 lsl i) <> 0) in
      let s = Circuit.apply_input_vector c (Array.make n false) v in
      match Async_sim.settle c ~max_steps:64 s with
      | Some stable -> Some (Circuit.with_initial c stable)
      | None -> try_vec (mask + 1)
  in
  try_vec 0

let spec_arb =
  QCheck.make gen_spec ~print:(fun spec ->
      Printf.sprintf "inputs=%d funcs=[%s] picks=[%s]" spec.n_inputs
        (String.concat ";" (List.map Gatefunc.name spec.gate_funcs))
        (String.concat ";"
           (List.map
              (fun l -> String.concat "," (List.map string_of_int l))
              spec.fanin_picks)))

let all_vectors n =
  List.init (1 lsl n) (fun mask ->
      Array.init n (fun i -> mask land (1 lsl i) <> 0))

(* --- P1: ternary soundness ------------------------------------------------ *)

(* A fully binary ternary result certifies that every *fair* execution
   settles to that state.  The k-bounded frontier additionally contains
   unfair interleavings (a transient oscillation may consume the whole
   budget while another excited gate waits), so the exact verdict may
   be Exceeds_budget — but never a different settling state and never
   non-confluence: any stable state in the frontier is fairly
   reachable, so it must equal the ternary fixpoint. *)
let prop_ternary_sound =
  QCheck.Test.make ~name:"random circuits: ternary sound vs exact" ~count:150
    spec_arb (fun spec ->
      match build_spec spec with
      | None -> QCheck.assume_fail ()
      | Some c ->
        let reset = Option.get (Circuit.initial c) in
        let k = max 32 (Structure.default_k c) in
        List.for_all
          (fun v ->
            let t =
              Ternary_sim.apply_vector c (Ternary_sim.of_bool_state reset) v
            in
            match Ternary_sim.to_bool_state_opt t with
            | None -> true
            | Some b -> (
              match Async_sim.apply_vector c ~k reset v with
              | Async_sim.Settles s -> s = b
              | Async_sim.Non_confluent _ -> false
              | Async_sim.Exceeds_budget ->
                (* every stable state at the k-frontier must be b *)
                let s1 = Circuit.apply_input_vector c reset v in
                Async_sim.states_after c ~k s1
                |> List.filter (Circuit.is_stable c)
                |> List.for_all (fun s -> s = b)))
          (all_vectors (Circuit.n_inputs c)))

(* --- P2: the explicit and symbolic engines agree ------------------------- *)

let canonical = Cssg_oracle.canonical

(* The whole graph, with no restriction: the build, the symbolic
   engine and the pure-exploration reference all return the subgraph
   reachable from reset over valid edges. *)
let prop_engines_agree =
  QCheck.Test.make ~name:"random circuits: explicit = symbolic CSSG" ~count:60
    spec_arb (fun spec ->
      match build_spec spec with
      | None -> QCheck.assume_fail ()
      | Some c ->
        let k = Structure.default_k c in
        let reference = canonical (Cssg_oracle.build ~exploration:`Pure ~k c) in
        canonical (Explicit.build ~k c) = reference
        && canonical (Symbolic.to_cssg (Symbolic.build ~k c)) = reference)

(* These seeds draw circuits with stable states that only a race
   reaches: a builder that keeps any of them disagrees with the rest. *)
let pinned_engines_agree =
  List.map
    (fun seed ->
      let name, speed, run =
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) prop_engines_agree
      in
      (Printf.sprintf "%s (seed %d)" name seed, speed, run))
    [ 866660442; 3 ]

(* Reordering is invisible semantically: the sifted build must produce
   the identical CSSG partition (states, edges) and reachable count. *)
let prop_reorder_agrees =
  QCheck.Test.make
    ~name:"random circuits: sift reorder preserves symbolic CSSG"
    ~count:40 spec_arb (fun spec ->
      match build_spec spec with
      | None -> QCheck.assume_fail ()
      | Some c ->
        let k = Structure.default_k c in
        let plain = Symbolic.build ~k c in
        let sifted =
          Symbolic.build ~k ~reorder:Satg_bdd.Bdd.Reorder_sift c
        in
        Symbolic.n_reachable plain = Symbolic.n_reachable sifted
        && canonical (Symbolic.to_cssg sifted)
           = canonical (Symbolic.to_cssg plain))

(* Salvage under random transition budgets.  A symbolic build charges
   one transition per allocated BDD node, so a budget drawn below the
   unguarded build's allocation can trip anywhere: while the relations
   are built, inside a ring, or after one or more completed rings.
   Untruncated, the graph must be the explicit one; truncated, it must
   be a sub-graph of it that keeps the reset state. *)
let prop_salvage_sound =
  QCheck.Test.make
    ~name:"random circuits: symbolic salvage under random budgets" ~count:100
    QCheck.(pair spec_arb (int_bound 1000))
    (fun (spec, permille) ->
      match build_spec spec with
      | None -> QCheck.assume_fail ()
      | Some c ->
        let module Guard = Satg_guard.Guard in
        let k = Structure.default_k c in
        let full_states, full_edges = canonical (Explicit.build ~k c) in
        let cost =
          (Symbolic.bdd_stats (Symbolic.build ~k c)).Satg_bdd.Bdd.peak_nodes
        in
        let max_transitions = 1 + (cost * permille / 1000) in
        let sym =
          Symbolic.build ~k ~guard:(Guard.create ~max_transitions ()) c
        in
        let states, edges = canonical (Symbolic.to_cssg sym) in
        match Symbolic.truncated sym with
        | None -> states = full_states && edges = full_edges
        | Some reason ->
          let reset =
            Circuit.state_to_string c (Option.get (Circuit.initial c))
          in
          reason = Guard.Transition_limit
          && List.mem reset states
          && List.for_all (fun s -> List.mem s full_states) states
          && List.for_all (fun e -> List.mem e full_edges) edges)

(* --- P3: multi-word pack differential oracle ------------------------------- *)

(* The strongest pack property: replicate the whole fault universe past
   one word (so the pack spans several words), and after creation and
   after every vector assert that {e every} machine lane equals a
   standalone scalar Ternary_sim run of the same structurally injected
   fault — full node state, primary outputs, and the [detected] bits
   against the good machine's ternary outputs. *)
let prop_differential_oracle =
  QCheck.Test.make ~name:"random circuits: multi-word differential oracle"
    ~count:120
    QCheck.(pair spec_arb (small_list (int_bound 3)))
    (fun (spec, vec_picks) ->
      match build_spec spec with
      | None -> QCheck.assume_fail ()
      | Some c ->
        let reset = Option.get (Circuit.initial c) in
        let base = Fault.universe_input_sa c @ Fault.universe_output_sa c in
        let rec grow fs =
          if List.length fs > Parallel_sim.word_size then fs
          else grow (fs @ base)
        in
        let faults = Array.of_list (grow base) in
        let pack = Parallel_sim.create c faults ~reset in
        if Parallel_sim.n_words pack < 2 then false
        else begin
          let scalar =
            Array.map
              (fun f ->
                let fc = Fault.inject c f in
                let init =
                  Ternary_sim.of_bool_state
                    (Fault.initial_faulty_state c f reset)
                in
                let v0 = Circuit.input_vector_of_state c reset in
                (fc, ref (Ternary_sim.apply_vector fc init v0)))
              faults
          in
          let good = ref (Ternary_sim.of_bool_state reset) in
          let ok = ref true in
          let compare_all () =
            Array.iteri
              (fun m (fc, st) ->
                ignore fc;
                let got = Parallel_sim.machine_state pack m in
                for node = 0 to Circuit.n_nodes c - 1 do
                  if not (Ternary.equal !st.(node) got.(node)) then ok := false
                done;
                let gout = Parallel_sim.machine_outputs pack m in
                Array.iteri
                  (fun k o ->
                    if not (Ternary.equal gout.(k) !st.(o)) then ok := false)
                  (Circuit.outputs c))
              scalar;
            let good_out = Ternary_sim.outputs c !good in
            let expected =
              Array.to_list (Array.mapi (fun m s -> (m, s)) scalar)
              |> List.filter_map (fun (m, (_, st)) ->
                     let hit = ref false in
                     Array.iteri
                       (fun k o ->
                         match (good_out.(k), !st.(o)) with
                         | Ternary.One, Ternary.Zero
                         | Ternary.Zero, Ternary.One -> hit := true
                         | _ -> ())
                       (Circuit.outputs c);
                     if !hit then Some m else None)
            in
            let got =
              Parallel_sim.detected ~drop:false pack ~good_outputs:good_out
            in
            if got <> expected then ok := false
          in
          let vectors =
            List.map
              (fun p ->
                Array.init (Circuit.n_inputs c) (fun i -> (p lsr i) land 1 = 1))
              vec_picks
          in
          compare_all ();
          List.iter
            (fun v ->
              Parallel_sim.apply_vector pack v;
              good := Ternary_sim.apply_vector c !good v;
              Array.iter
                (fun (fc, st) -> st := Ternary_sim.apply_vector fc !st v)
                scalar;
              compare_all ())
            vectors;
          !ok
        end)

(* --- P4: text format round-trips behaviour --------------------------------- *)

let prop_parser_roundtrip =
  QCheck.Test.make ~name:"random circuits: parser round-trip" ~count:100
    spec_arb (fun spec ->
      match build_spec spec with
      | None -> QCheck.assume_fail ()
      | Some c -> (
        match Parser.parse_string (Parser.to_string c) with
        | Error _ -> false
        | Ok c' ->
          Circuit.n_nodes c = Circuit.n_nodes c'
          && Circuit.initial c = Circuit.initial c'
          && canonical (Explicit.build c) = canonical (Explicit.build c')))

(* --- P5: checker relationship ----------------------------------------------- *)

(* Neither detection checker dominates the other in general: the
   ternary checker certifies *fair* faulty outcomes (and so may detect
   even when the k-bounded frontier still contains an unfair straggler
   whose outputs agree with the good machine), while the exact checker
   resolves races ternary simulation blurs to Phi.  Domination does
   hold in the clean case: when the exact faulty frontier is fully
   stable at every observation point, every fair outcome is in the set,
   so a ternary detection forces an exact detection. *)
let prop_exact_dominates_when_settled =
  QCheck.Test.make
    ~name:"random circuits: check_exact >= check on settled frontiers"
    ~count:40
    QCheck.(pair spec_arb (small_list (int_bound 3)))
    (fun (spec, vec_picks) ->
      match build_spec spec with
      | None -> QCheck.assume_fail ()
      | Some c ->
        let g = Satg_sg.Explicit.build c in
        let seq =
          (* keep only the prefix that is a valid CSSG path *)
          let rec valid i acc = function
            | [] -> List.rev acc
            | p :: rest -> (
              let v =
                Array.init (Circuit.n_inputs c) (fun b -> (p lsr b) land 1 = 1)
              in
              match Satg_sg.Cssg.apply g i v with
              | Some j -> valid j (v :: acc) rest
              | None -> List.rev acc)
          in
          valid (List.hd (Satg_sg.Cssg.initial g)) [] vec_picks
        in
        List.for_all
          (fun f ->
            (* replay the exact machine; note whether all frontiers are
               fully stable *)
            let m, f0 = Satg_core.Detect.exact_start g f in
            let all_stable states fc =
              List.for_all (fun s -> Circuit.is_stable fc s) (Satg_core.Detect.members m states)
            in
            let fc = Fault.inject c f in
            let rec settled states = function
              | [] -> all_stable states fc
              | v :: vs -> (
                all_stable states fc
                &&
                match Satg_core.Detect.exact_apply m states v with
                | None -> false
                | Some states' -> settled states' vs)
            in
            if not (settled f0 seq) then true
            else
              let ternary = Satg_core.Detect.check g f seq in
              let exact = Satg_core.Detect.check_exact g f seq in
              (not ternary) || exact)
          (Fault.universe_output_sa c))

(* Detect's interned faulty-state sets step as the list rule of
   [Async_oracle.exact_apply] on every product edge up to three vectors
   from reset, for every stuck-at fault, under caps small enough that
   some steps overrun them. *)
let prop_exact_sets_match_list_rule =
  QCheck.Test.make ~name:"random circuits: interned exact sets = the list rule" ~count:60
    QCheck.(pair spec_arb (int_range 1 8))
    (fun (spec, max_set) ->
      match build_spec spec with
      | None -> QCheck.assume_fail ()
      | Some c ->
        let g = Satg_sg.Explicit.build c in
        ignore
          (Test_atpg.walk_exact_sets ~max_set "random" g
             (Fault.universe_input_sa c @ Fault.universe_output_sa c)
            : int * int);
        true)

(* --- P6: timed simulation agrees with the exact engine on valid edges ------- *)

let prop_timed_matches_exact_on_valid_edges =
  QCheck.Test.make
    ~name:"random circuits: timed sim lands in the predicted state"
    ~count:60
    QCheck.(pair spec_arb (int_bound 1000))
    (fun (spec, seed) ->
      match build_spec spec with
      | None -> QCheck.assume_fail ()
      | Some c ->
        let g = Satg_sg.Explicit.build c in
        let reset_id = List.hd (Satg_sg.Cssg.initial g) in
        let delays = Satg_sim.Timed_sim.random_delays c ~seed in
        List.for_all
          (fun e ->
            let sim =
              Satg_sim.Timed_sim.create c ~delays (Satg_sg.Cssg.state g reset_id)
            in
            let timed = Satg_sim.Timed_sim.apply_vector sim e.Satg_sg.Cssg.vector in
            timed = Satg_sg.Cssg.state g e.Satg_sg.Cssg.target)
          (Satg_sg.Cssg.successors g reset_id))

(* --- P7: the packed exploration kernel equals the string-set oracle ------- *)

(* From every CSSG state under every vector, and from an arbitrary
   (possibly unstable) state: the same [states_after] sets — also with
   a slow gate vetoed — the same [Frontier_limit] points under small
   caps, the same [classify_vector] verdicts and the same guard
   charges. *)
let prop_kernel_matches_oracle =
  QCheck.Test.make ~name:"random circuits: exploration kernel = oracle" ~count:150
    QCheck.(triple spec_arb (int_range 1 16) (int_bound 100_000))
    (fun (spec, cap, pick) ->
      match build_spec spec with
      | None -> QCheck.assume_fail ()
      | Some c ->
        let module Guard = Satg_guard.Guard in
        let max_frontier = if cap = 16 then max_int else cap in
        let k = Structure.default_k c in
        let kern = Async_sim.Kernel.compile c in
        let gates = Circuit.gates c in
        let slow_gate = gates.(pick mod Array.length gates) and slow_to = pick land 1 = 0 in
        let slow = Async_sim.Kernel.compile ~slow:(slow_gate, slow_to) c in
        let can_fire = Async_oracle.slow_gate c ~gate:slow_gate ~slow_to in
        let capped f = try Some (f ()) with Async_sim.Frontier_limit -> None in
        let same_after ?can_fire kern s =
          let g1 = Guard.create () and g2 = Guard.create () in
          capped (fun () -> Async_sim.Kernel.states_after ~max_frontier ~guard:g1 kern ~k s)
          = capped (fun () ->
                Async_oracle.states_after ~max_frontier ?can_fire ~guard:g2 c ~k s)
          && Guard.transitions_used g1 = Guard.transitions_used g2
        in
        let same_class s v =
          let g1 = Guard.create () and g2 = Guard.create () in
          Async_sim.Kernel.classify_vector ~max_frontier ~guard:g1 kern ~k s v
          = Async_oracle.classify_vector ~max_frontier ~guard:g2 c ~k s v
          && Guard.transitions_used g1 = Guard.transitions_used g2
        in
        let g = Explicit.build c in
        let arbitrary = Array.init (Circuit.n_nodes c) (fun i -> (pick lsr (i mod 17)) land 1 = 1) in
        same_after kern arbitrary && same_after ~can_fire slow arbitrary
        && List.for_all
             (fun i ->
               let s = Cssg.state g i in
               List.for_all
                 (fun v ->
                   let s1 = Circuit.apply_input_vector c s v in
                   same_after kern s1 && same_after ~can_fire slow s1
                   && (v = Circuit.input_vector_of_state c s || same_class s v))
                 (all_vectors (Circuit.n_inputs c)))
             (List.init (Cssg.n_states g) Fun.id))

(* --- P8: the pooled CSSG build equals the reference BFS -------------------- *)

(* Under random state and transition budgets (each absent one time in
   ten, otherwise drawn up to the unbudgeted build's size): the same
   dump — states, numbering, edges — and the same truncation reason as
   the reference BFS. *)
let prop_build_matches_reference =
  QCheck.Test.make ~name:"random circuits: build = reference BFS under budgets"
    ~count:150
    QCheck.(triple spec_arb (int_bound 1000) (int_bound 1000))
    (fun (spec, s_permille, t_permille) ->
      match build_spec spec with
      | None -> QCheck.assume_fail ()
      | Some c ->
        let module Guard = Satg_guard.Guard in
        let counter = Guard.create () in
        let full = Cssg_oracle.build ~guard:counter c in
        let cap permille size =
          if permille >= 900 then None else Some ((size + 1) * permille / 900)
        in
        let max_states = cap s_permille (Cssg.n_states full)
        and max_transitions = cap t_permille (Guard.transitions_used counter) in
        let guard () = Guard.create ?max_states ?max_transitions () in
        let want = Cssg_oracle.build ~guard:(guard ()) c in
        let got = Explicit.build ~guard:(guard ()) c in
        Cssg_oracle.dump got = Cssg_oracle.dump want
        && Cssg.truncated got = Cssg.truncated want)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_kernel_matches_oracle;
      prop_build_matches_reference;
      prop_ternary_sound;
      prop_engines_agree;
      prop_reorder_agrees;
      prop_salvage_sound;
      prop_differential_oracle;
      prop_parser_roundtrip;
      prop_exact_dominates_when_settled;
      prop_exact_sets_match_list_rule;
      prop_timed_matches_exact_on_valid_edges;
    ]
  @ pinned_engines_agree

let suites = [ ("random_circuits", qcheck_cases) ]
