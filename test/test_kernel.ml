(* The packed exploration kernel against the string-set oracle
   ([Async_oracle]) and against the paper's definition of [TCR_k]:
   every (stable state, vector) pair of the paper's table netlists and
   the families, plus a netlist whose states, excitation words and
   fanin gathering each span two words. *)

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

let show_outcome = function
  | Async_sim.Settles s -> "settles " ^ str s
  | Async_sim.Non_confluent l -> "non-confluent " ^ String.concat "," (List.map str l)
  | Async_sim.Exceeds_budget -> "exceeds budget"

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

(* --- the paper's definition ------------------------------------------------- *)

(* The table netlists and every family instance with n <= 3 in the three
   synthesis styles. *)
let definition_corpus () =
  List.concat_map
    (fun (e : Suite.entry) ->
      [ (e.Suite.name ^ "/si", ok e.Suite.name (Suite.speed_independent e));
        (e.Suite.name ^ "/bd", ok e.Suite.name (Suite.bounded_delay e)) ])
    (Suite.all ())
  @ List.concat_map
      (fun fname ->
        List.concat_map
          (fun n ->
            match Suite.generate fname ~n with
            | Error _ -> []
            | Ok e ->
              List.map
                (fun (style, synth) ->
                  let name = Printf.sprintf "%s%d/%s" fname n style in
                  (name, ok name (synth e.Suite.stg)))
                [ ("complex", Synth.complex_gate);
                  ("decomposed", Synth.decomposed ~redundant:false);
                  ("redundant", Synth.decomposed ~redundant:true) ])
          [ 1; 2; 3 ])
      Suite.family_names

(* Every (stable state, vector) pair of [definition_corpus] at small
   budgets and the default: a verdict the kernel reaches under the
   build's frontier cap agrees with [Kernel.apply_vector], whose
   outcome is the paper's, [TCR_k] computed layer by layer as every
   state exactly [k] firings reach ([Async_oracle.apply_vector]).  The
   small budgets put the depth bound where the netlists' settling paths
   end, which is where a finished state's height decides the verdict
   (k = 5 on sbuf-send-ctl/bd, for one).  The definition gets 20k
   transitions a pair: the few pairs it cannot finish in that (under
   1%, nearly all oscillating) are skipped, since layer by layer some
   take minutes at the default [k]. *)
let test_definition_verdicts () =
  let compared = ref 0 and skipped = ref 0 and invalid = ref 0 in
  List.iter
    (fun (name, c) ->
      let kern = Async_sim.Kernel.compile c in
      let n_in = Circuit.n_inputs c in
      let states = cssg_states ~max_frontier:20_000 c in
      List.iter
        (fun k ->
          List.iter
            (fun s ->
              let current = Circuit.input_vector_of_state c s in
              for mask = 0 to (1 lsl n_in) - 1 do
                let v = vector n_in mask in
                if v <> current then
                  match Async_sim.Kernel.classify_vector ~max_frontier:20_000 kern ~k s v with
                  | Async_sim.C_capped -> ()
                  | got -> (
                    let applied = Async_sim.Kernel.apply_vector kern ~k s v in
                    (match (got, applied) with
                    | Async_sim.C_settles a, Async_sim.Settles b when a = b -> ()
                    | Async_sim.C_invalid, (Async_sim.Non_confluent _ | Async_sim.Exceeds_budget) ->
                      ()
                    | _ ->
                      Alcotest.failf "%s k=%d: state %s vector %s: kernel %s, apply_vector %s"
                        name k (str s) (str v) (show got) (show_outcome applied));
                    let guard = Guard.create ~max_transitions:20_000 () in
                    match Async_oracle.apply_vector ~guard kern ~k s v with
                    | exception Guard.Exhausted _ -> incr skipped
                    | want ->
                      incr compared;
                      (match want with
                      | Async_sim.Settles _ -> ()
                      | Async_sim.Non_confluent _ | Async_sim.Exceeds_budget -> incr invalid);
                      if applied <> want then
                        Alcotest.failf "%s k=%d: state %s vector %s: apply_vector %s, definition %s"
                          name k (str s) (str v) (show_outcome applied) (show_outcome want))
              done)
            states)
        [ 0; 1; 2; 3; 5; 8; Structure.default_k c ])
    (definition_corpus ());
  Alcotest.(check bool) "pairs compared" true (!compared > 10_000);
  Alcotest.(check bool) "both verdicts" true (!invalid > 0 && !invalid < !compared);
  Alcotest.(check bool) "under 1% skipped" true (100 * !skipped < !compared)

(* An oscillating trimos-send/bd pair that [test_definition_verdicts]
   skips: layer by layer at the default [k] it takes minutes, and the
   depth-first search finds its unstable cycle at once. *)
let test_oscillating_pair () =
  let e = Option.get (Suite.find "trimos-send") in
  let c = ok "trimos-send" (Suite.bounded_delay e) in
  let bits s = Array.init (String.length s) (fun i -> s.[i] = '1') in
  let s = bits "0000000101000001000000000000" and v = bits "11" in
  Alcotest.(check bool) "a CSSG state" true
    (List.mem s (cssg_states ~max_frontier:20_000 c));
  Alcotest.(check string) "apply_vector" "exceeds budget"
    (show_outcome (Async_sim.apply_vector c ~k:(Structure.default_k c) s v))

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
  Alcotest.(check string) "build" (Cssg_oracle.dump (Cssg_oracle.build c))
    (Cssg_oracle.dump (Explicit.build c))

(* --- capped builds --------------------------------------------------------- *)

(* Under the CI caps (500 states, 200k transitions) the pathological pair
   truncates at a fixed pair, one transition charged per gate firing:
   the transitions charged and the states interned are pinned to the
   figures of the reference BFS over the string-set depth-first search,
   and the build must give them too. *)
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
      check "reference" (Cssg_oracle.build ~exploration:`Strings ~guard:g0 c) g0;
      let g1 = guard () in
      check "build" (Explicit.build ~guard:g1 c) g1)
    [ (Test_domains.ring_storm_text, 251, 200_001); (Test_domains.toggle_farm_text, 251, 200_001) ]

(* --- packed-word hashing ----------------------------------------------------- *)

(* A state of at most 63 nodes packs into one word with node 0 in its
   top bit.  Every assignment of dff/bd's first ten nodes over its reset
   state gives 1 024 distinct words that differ only in their top ten
   bits; a table of 1 024 buckets must still spread them. *)
let test_words_hash_spreads () =
  let e = Option.get (Suite.find "dff") in
  let c = ok "dff" (Suite.bounded_delay e) in
  Alcotest.(check bool) "one word" true (Circuit.n_nodes c <= 63 && Circuit.n_nodes c >= 10);
  let kern = Async_sim.Kernel.compile c in
  let reset = Option.get (Circuit.initial c) in
  let tbl = Async_sim.Words.Tbl.create 1024 in
  for mask = 0 to 1023 do
    let s = Array.mapi (fun i b -> if i < 10 then mask land (1 lsl i) <> 0 else b) reset in
    Async_sim.Words.Tbl.replace tbl (Async_sim.Kernel.pack kern s) ()
  done;
  let stats = Async_sim.Words.Tbl.stats tbl in
  Alcotest.(check int) "distinct states" 1024 stats.Hashtbl.num_bindings;
  if stats.Hashtbl.max_bucket_length > 16 then
    Alcotest.failf "largest bucket %d of %d buckets" stats.Hashtbl.max_bucket_length
      stats.Hashtbl.num_buckets

let suites =
  [
    ( "sim.kernel",
      [
        Alcotest.test_case "table netlists = oracle" `Quick test_table_netlists;
        Alcotest.test_case "verdicts = the definition" `Quick test_definition_verdicts;
        Alcotest.test_case "oscillating pair exceeds the budget" `Quick test_oscillating_pair;
        Alcotest.test_case "wide netlist shape" `Quick test_wide_shape;
        Alcotest.test_case "wide netlist = oracle" `Quick test_wide_matches_oracle;
        Alcotest.test_case "wide netlist build = reference" `Quick test_wide_build_reference;
        Alcotest.test_case "capped charges per firing" `Quick test_capped_charges;
        Alcotest.test_case "packed states spread over a table" `Quick test_words_hash_spreads;
      ] );
  ]
