(* The packed exploration kernel against the string-set oracle
   ([Async_oracle]): every (stable state, vector) pair of the paper's
   table netlists and the symbolic workload's families, plus a netlist
   whose states, excitation words and fanin gathering each span two
   words. *)

open Satg_logic
open Satg_guard
open Satg_circuit
open Satg_sim
open Satg_sg
open Satg_stg
open Satg_bench

let str s = String.init (Array.length s) (fun i -> if s.(i) then '1' else '0')

let show = function
  | Async_sim.C_settles s -> "settles " ^ str s
  | Async_sim.C_invalid -> "invalid"
  | Async_sim.C_capped -> "capped"

let vector n mask = Array.init n (fun b -> mask land (1 lsl b) <> 0)

type tally = {
  mutable pairs : int;
  mutable capped : int;
  mutable invalid : int;
}

(* Classify every (state, vector) pair of [states] with the kernel and
   the oracle, under the same frontier cap, and compare verdicts and
   transitions charged. *)
let check_pairs ?(max_frontier = 2_000) tally name c states =
  let k = Structure.default_k c in
  let kern = Async_sim.Kernel.compile c in
  let n_in = Circuit.n_inputs c in
  List.iter
    (fun s ->
      let current = Circuit.input_vector_of_state c s in
      for mask = 0 to (1 lsl n_in) - 1 do
        let v = vector n_in mask in
        if v <> current then begin
          let g_kernel = Guard.create () and g_oracle = Guard.create () in
          let got = Async_sim.Kernel.classify_vector ~max_frontier ~guard:g_kernel kern ~k s v in
          let want = Async_oracle.classify_vector ~max_frontier ~guard:g_oracle c ~k s v in
          if got <> want then
            Alcotest.failf "%s: state %s vector %s: kernel %s, oracle %s" name (str s) (str v)
              (show got) (show want);
          if Guard.transitions_used g_kernel <> Guard.transitions_used g_oracle then
            Alcotest.failf "%s: state %s vector %s: kernel charged %d, oracle %d" name (str s)
              (str v) (Guard.transitions_used g_kernel) (Guard.transitions_used g_oracle);
          tally.pairs <- tally.pairs + 1;
          match got with
          | Async_sim.C_capped -> tally.capped <- tally.capped + 1
          | Async_sim.C_invalid -> tally.invalid <- tally.invalid + 1
          | Async_sim.C_settles _ -> ()
        end
      done)
    states

let cssg_states ?(max_frontier = 2_000) c =
  let g = Explicit.build ~max_frontier c in
  List.init (Cssg.n_states g) (Cssg.state g)

let ok name = function Ok c -> c | Error e -> Alcotest.failf "%s: %s" name e

let test_table_netlists () =
  let tally = { pairs = 0; capped = 0; invalid = 0 } in
  List.iter
    (fun (e : Suite.entry) ->
      List.iter
        (fun (tag, synth) ->
          let name = e.Suite.name ^ tag in
          let c = ok name (synth e) in
          check_pairs tally name c (cssg_states c))
        [ ("/si", Suite.speed_independent); ("/bd", Suite.bounded_delay) ])
    (Suite.all ());
  List.iter
    (fun (fname, n, redundant) ->
      let name = Printf.sprintf "%s%d" fname n in
      let e = ok name (Suite.generate fname ~n) in
      let c = ok name (Synth.decomposed ~redundant e.Suite.stg) in
      check_pairs tally name c (cssg_states c))
    [ ("pipeline", 3, false); ("arbiter", 3, false); ("latch", 2, true) ];
  Alcotest.(check bool) "pairs swept" true (tally.pairs > 800);
  Alcotest.(check bool) "some pairs invalid" true (tally.invalid > 0);
  Alcotest.(check bool) "some pairs capped" true (tally.capped > 0)

(* --- multi-word netlist ------------------------------------------------------ *)

(* Two inputs; a 64-buffer chain from [a]; five gates reading the whole
   chain and [b] (AND, OR, CELEM and a two-cube SOP over 65 fanins, XOR
   over the 64 chain nodes).  73 nodes and 71 gates: states and
   excitation words take two words each, and so do the wide gates'
   gathered fanins. *)
let wide_netlist () =
  let b = Circuit.Builder.create "wide" in
  let a = Circuit.Builder.add_input b "a" in
  let bb = Circuit.Builder.add_input b "b" in
  let chain = Array.make 64 a in
  for i = 0 to 63 do
    chain.(i) <-
      Circuit.Builder.add_gate b ~name:(Printf.sprintf "c%d" i) Gatefunc.Buf
        [ (if i = 0 then a else chain.(i - 1)) ]
  done;
  let all = Array.to_list chain @ [ bb ] in
  let cube f = Cube.make (Array.init 65 f) in
  let sop =
    Cover.make ~n:65
      [
        cube (fun _ -> Cube.T);
        cube (fun i -> if i = 0 || i = 63 then Cube.F else if i = 64 then Cube.T else Cube.D);
      ]
  in
  let outs =
    [
      Circuit.Builder.add_gate b ~name:"w_and" Gatefunc.And all;
      Circuit.Builder.add_gate b ~name:"w_or" Gatefunc.Or all;
      Circuit.Builder.add_gate b ~name:"w_xor" Gatefunc.Xnor (Array.to_list chain);
      Circuit.Builder.add_gate b ~name:"w_c" Gatefunc.Celem all;
      Circuit.Builder.add_gate b ~name:"w_sop" (Gatefunc.Sop sop) all;
    ]
  in
  List.iter (Circuit.Builder.mark_output b) outs;
  let c = Circuit.Builder.finalize b in
  let s0 = Array.make (Circuit.n_nodes c) false in
  match Async_sim.settle c ~max_steps:1000 s0 with
  | Some reset -> Circuit.with_initial c reset
  | None -> Alcotest.fail "wide netlist does not settle"

let test_wide_shape () =
  let c = wide_netlist () in
  Alcotest.(check bool) "> 63 nodes" true (Circuit.n_nodes c > 63);
  Alcotest.(check bool) "> 63 gates" true (Circuit.n_gates c > 63);
  Alcotest.(check bool) "a gate with > 63 fanins" true
    (Array.exists (fun g -> Array.length (Circuit.fanins c g) > 63) (Circuit.gates c))

let test_wide_matches_oracle () =
  let c = wide_netlist () in
  let tally = { pairs = 0; capped = 0; invalid = 0 } in
  check_pairs tally "wide" c (cssg_states c);
  Alcotest.(check bool) "pairs swept" true (tally.pairs >= 3);
  (* states_after, with and without a slow gate, from every state after
     every vector *)
  let k = Structure.default_k c in
  let kern = Async_sim.Kernel.compile c in
  let slow_gate = Option.get (Circuit.find_node c "w_xor") in
  let slow = Async_sim.Kernel.compile ~slow:(slow_gate, true) c in
  List.iter
    (fun s ->
      for mask = 0 to 3 do
        let s1 = Circuit.apply_input_vector c s (vector 2 mask) in
        let g1 = Guard.create () and g2 = Guard.create () in
        let got = Async_sim.Kernel.states_after ~guard:g1 kern ~k s1 in
        let want = Async_oracle.states_after ~guard:g2 c ~k s1 in
        Alcotest.(check (list string)) "states_after" (List.map str want) (List.map str got);
        Alcotest.(check int) "charged" (Guard.transitions_used g2) (Guard.transitions_used g1);
        let got = Async_sim.Kernel.states_after slow ~k s1 in
        let want =
          Async_oracle.states_after
            ~can_fire:(Async_oracle.slow_gate c ~gate:slow_gate ~slow_to:true)
            c ~k s1
        in
        Alcotest.(check (list string)) "slow states_after" (List.map str want)
          (List.map str got)
      done)
    (cssg_states c)

let test_wide_build_reference () =
  let c = wide_netlist () in
  let want = Cssg_oracle.dump (Cssg_oracle.build c) in
  List.iter
    (fun jobs ->
      Satg_pool.Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "build -j%d" jobs)
            want
            (Cssg_oracle.dump (Explicit.build ~pool c))))
    [ 1; 4 ]

(* --- capped builds --------------------------------------------------------- *)

(* Under the CI caps (500 states, 200k transitions) the pathological pair
   truncates at a fixed pair: the transitions charged and the states
   interned are pinned to the figures the string-set exploration
   produced, for the reference BFS and for the pooled build at two
   widths. *)
let test_capped_charges () =
  List.iter
    (fun (text, states, transitions) ->
      let c = Test_domains.parse text in
      let check what g guard =
        let name = Circuit.name c ^ " " ^ what in
        Alcotest.(check bool) (name ^ " truncated") true (Cssg.truncated g <> None);
        Alcotest.(check int) (name ^ " states") states (Cssg.n_states g);
        Alcotest.(check int) (name ^ " transitions") transitions (Guard.transitions_used guard)
      in
      let guard () = Guard.create ~max_states:500 ~max_transitions:200_000 () in
      let g0 = guard () in
      check "reference" (Cssg_oracle.build ~guard:g0 c) g0;
      List.iter
        (fun jobs ->
          Satg_pool.Pool.with_pool ~jobs (fun pool ->
              let g1 = guard () in
              check (Printf.sprintf "build -j%d" jobs) (Explicit.build ~guard:g1 ~pool c) g1))
        [ 1; 4 ])
    [ (Test_domains.ring_storm_text, 127, 200_126); (Test_domains.toggle_farm_text, 496, 200_031) ]

let suites =
  [
    ( "sim.kernel",
      [
        Alcotest.test_case "table netlists = oracle" `Quick test_table_netlists;
        Alcotest.test_case "wide netlist shape" `Quick test_wide_shape;
        Alcotest.test_case "wide netlist = oracle" `Quick test_wide_matches_oracle;
        Alcotest.test_case "wide netlist build = reference" `Quick test_wide_build_reference;
        Alcotest.test_case "capped builds charge as before" `Quick test_capped_charges;
      ] );
  ]
