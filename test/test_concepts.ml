(* The concept-combinator DSL: compilation to well-formed STGs, the
   derived initial marking, compile-time validation, the qcheck .g
   printer/parser round-trip, and the hazard-free cover selection the
   generated latch family exists to exercise. *)

open Satg_logic
open Satg_stg
open Satg_concepts
open Concepts

let ok = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected compile error: %s" m

let err = function
  | Ok _ -> Alcotest.fail "expected a compile error"
  | Error m -> m

let explore stg =
  match Stg.explore stg with
  | Ok sg -> sg
  | Error m -> Alcotest.failf "explore: %s" m

let n_states stg = Array.length (explore stg).Stg.states

(* Canonical structural view of an STG: everything the .g text is
   supposed to carry, in an order-insensitive shape. *)
let canonical (t : Stg.t) =
  let tlabel i = t.Stg.transitions.(i).Stg.label in
  let places =
    Array.to_list t.Stg.places
    |> List.mapi (fun i (p : Stg.place) ->
           ( List.sort compare (List.map tlabel p.Stg.pre),
             List.sort compare (List.map tlabel p.Stg.post),
             t.Stg.marking.(i) ))
    |> List.sort compare
  in
  ( Array.to_list t.Stg.signals,
    t.Stg.n_inputs,
    List.sort compare
      (Array.to_list (Array.map (fun (tr : Stg.transition) -> tr.Stg.label)
                        t.Stg.transitions)),
    places,
    Array.to_list t.Stg.init_values )

(* --- compilation basics --------------------------------------------------- *)

let test_handshake_phasings () =
  (* All four phasings compile with a consistent marking: the cycle has
     exactly one token, placed before the phase's next event. *)
  List.iter
    (fun (nm, spec, expected_first) ->
      let stg =
        ok (compile ~name:nm (inputs [ "r" ] <+> outputs [ "a" ] <+> spec))
      in
      let sg = explore stg in
      Alcotest.(check int) (nm ^ ": cycle states") 4 (Array.length sg.Stg.states);
      Alcotest.(check int) (nm ^ ": one token")
        1
        (Array.fold_left ( + ) 0 stg.Stg.marking);
      (* the unique initially enabled transition is the phase's next event *)
      let enabled =
        List.filter
          (fun ti ->
            Array.to_list stg.Stg.places
            |> List.mapi (fun pi p -> (pi, p))
            |> List.for_all (fun (pi, (p : Stg.place)) ->
                   (not (List.mem ti p.Stg.post)) || stg.Stg.marking.(pi) > 0))
          (List.init (Array.length stg.Stg.transitions) Fun.id)
        |> List.map (fun ti -> stg.Stg.transitions.(ti).Stg.label)
      in
      Alcotest.(check (list string)) (nm ^ ": initially enabled")
        [ expected_first ] enabled)
    [
      ("hs00", handshake00 "r" "a", "r+");
      ("hs11", handshake11 "r" "a", "r-");
      ("hs10", handshake10 "r" "a", "a+");
      ("hs01", handshake01 "r" "a", "a-");
    ]

let test_c_element_concept () =
  let stg =
    ok
      (compile ~name:"celem_dsl"
         (concat
            [
              inputs [ "a"; "b" ]; outputs [ "c" ];
              initialise0 [ "a"; "b"; "c" ];
              c_element "a" "b" "c";
              (* environment: inputs toggle back once c answers *)
              rise "c" --> fall "a"; rise "c" --> fall "b";
              fall "c" --> rise "a"; fall "c" --> rise "b";
            ]))
  in
  let sg = explore stg in
  Alcotest.(check int) "celem state count" 8 (Array.length sg.Stg.states);
  Alcotest.(check bool) "csc" true (Stg.check_csc sg = Ok ());
  (match Synth.complex_gate stg with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "synthesis: %s" m);
  (* the DSL celem is the celem benchmark: same canonical state graph
     shape (8 states, one output function = Celem) *)
  match Synth.next_state_covers sg with
  | [ ("c", cover) ] ->
    Alcotest.(check bool) "c cover nonempty" false (Cover.is_empty cover)
  | other ->
    Alcotest.failf "expected exactly one output cover, got %d"
      (List.length other)

let test_or_causality () =
  (* Structure: a two-cause or place is one explicit place with both
     causes in its preset (unlike AND-causality's two implicit
     places). *)
  let merge =
    ok
      (compile ~name:"or_dsl"
         (concat
            [
              inputs [ "a"; "b" ]; outputs [ "c" ];
              initialise0 [ "a"; "b"; "c" ];
              me "a" "b";
              [ rise "a"; rise "b" ] |--> rise "c";
              rise "a" --> fall "a"; rise "b" --> fall "b";
              rise "c" --> fall "c";
              [ fall "a"; fall "b" ] |--> fall "c";
            ]))
  in
  let or_places =
    Array.to_list merge.Stg.places
    |> List.filter (fun (p : Stg.place) ->
           String.length p.Stg.pname >= 2 && String.sub p.Stg.pname 0 2 = "or")
  in
  Alcotest.(check int) "two explicit or places" 2 (List.length or_places);
  List.iter
    (fun (p : Stg.place) ->
      Alcotest.(check int) (p.Stg.pname ^ ": both causes in preset") 2
        (List.length p.Stg.pre))
    or_places;
  (* Behavior: a single-cause or place is an explicit spelling of plain
     causality — the cycle must explore to the same 4 handshake states,
     and the phasing-aware marking rule must seed the or place when the
     cause has already happened. *)
  let cycle ~a_init =
    concat
      [
        inputs [ "a" ]; outputs [ "b" ];
        initialise "a" a_init; initialise "b" false;
        [ rise "a" ] |--> rise "b";
        rise "b" --> fall "a";
        [ fall "a" ] |--> fall "b";
        fall "b" --> rise "a";
      ]
  in
  let hs00 = ok (compile ~name:"or00" (cycle ~a_init:false)) in
  Alcotest.(check int) "single-cause or cycle: 4 states" 4
    (Array.length (explore hs00).Stg.states);
  Alcotest.(check int) "phasing 00: or places unmarked" 1
    (Array.fold_left ( + ) 0 hs00.Stg.marking);
  let hs10 = ok (compile ~name:"or10" (cycle ~a_init:true)) in
  let marked_names =
    Array.to_list hs10.Stg.places
    |> List.mapi (fun i (p : Stg.place) -> (p.Stg.pname, hs10.Stg.marking.(i)))
    |> List.filter (fun (_, m) -> m > 0)
    |> List.map fst
  in
  Alcotest.(check (list string)) "phasing 10: or place holds the token"
    [ "or0" ] marked_names;
  Alcotest.(check int) "phasing 10 explores" 4
    (Array.length (explore hs10).Stg.states)

let test_me_token () =
  (* me over two initially-low grants: the shared place starts marked;
     with one grant initially high the token is taken. *)
  let base g1v =
    concat
      [
        inputs [ "r1"; "r2" ]; outputs [ "g1"; "g2" ];
        initialise "r1" g1v; initialise0 [ "r2"; "g2" ];
        initialise "g1" g1v;
        (if g1v then handshake11 else handshake00) "r1" "g1";
        handshake "r2" "g2";
        me "g1" "g2";
      ]
  in
  let token_count stg =
    Array.to_list stg.Stg.places
    |> List.mapi (fun i (p : Stg.place) -> (p.Stg.pname, stg.Stg.marking.(i)))
    |> List.assoc "me_g1_g2"
  in
  Alcotest.(check int) "both low: token free" 1 (token_count (ok (compile ~name:"me0" (base false))));
  Alcotest.(check int) "g1 high: token held" 0 (token_count (ok (compile ~name:"me1" (base true))));
  (* both high is rejected, not silently mis-marked *)
  let both =
    concat
      [
        inputs [ "r1"; "r2" ]; outputs [ "g1"; "g2" ];
        initialise1 [ "r1"; "r2"; "g1"; "g2" ];
        handshake11 "r1" "g1"; handshake11 "r2" "g2"; me "g1" "g2";
      ]
  in
  Alcotest.(check bool) "both high rejected" true
    (String.length (err (to_g ~name:"me2" both)) > 0)

let test_validation_errors () =
  let cases =
    [
      ("undeclared signal", rise "a" --> rise "b");
      ( "uninitialised signal",
        inputs [ "a" ] <+> outputs [ "b" ] <+> (rise "a" --> rise "b") );
      ( "conflicting init",
        inputs [ "a" ] <+> outputs [ "b" ]
        <+> initialise0 [ "a"; "b" ]
        <+> initialise1 [ "a" ]
        <+> (rise "a" --> rise "b") );
      ( "input and output",
        inputs [ "a" ] <+> outputs [ "a"; "b" ]
        <+> initialise0 [ "a"; "b" ]
        <+> (rise "a" --> rise "b") );
      ( "silent signal switches",
        inputs [ "a" ] <+> outputs [ "b" ]
        <+> initialise0 [ "a"; "b" ]
        <+> silent [ "b" ]
        <+> (rise "a" --> rise "b") );
      ("empty spec", inputs [ "a" ] <+> initialise0 [ "a" ]);
      ( "override without arc",
        inputs [ "a" ] <+> outputs [ "b" ]
        <+> initialise0 [ "a"; "b" ]
        <+> (rise "a" --> rise "b")
        <+> token (rise "b") (rise "a") );
    ]
  in
  List.iter
    (fun (nm, spec) -> ignore (err (to_g ~name:"bad" spec) : string) |> fun () ->
      Alcotest.(check pass) nm () ())
    cases

let test_marking_overrides () =
  (* no_token strips the default token; token forces one on a
     multi-instance arc the default rule leaves unmarked. *)
  let spec =
    concat
      [
        inputs [ "a" ]; outputs [ "b" ];
        initialise0 [ "a"; "b" ];
        rise "a" --> rise "b"; rise "b" --> fall "a";
        fall "a" --> fall "b"; fall "b" --> inst 2 (rise "a");
        inst 2 (rise "a") --> inst 2 (rise "b");
        inst 2 (rise "b") --> fall "a";
        (* both arcs touch a second-instance transition, so the default
           rule leaves them unmarked; place the cycle's tokens by hand *)
        token (fall "b") (inst 2 (rise "a"));
        token (inst 2 (rise "b")) (fall "a");
      ]
  in
  let stg = ok (compile ~name:"ovr" spec) in
  let marked =
    Array.to_list stg.Stg.places
    |> List.mapi (fun i (p : Stg.place) -> (p.Stg.pname, stg.Stg.marking.(i)))
    |> List.filter (fun (_, m) -> m > 0)
    |> List.map fst |> List.sort compare
  in
  Alcotest.(check (list string)) "default + forced tokens"
    [ "<b+/2,a->"; "<b-,a+/2>" ]
    marked

(* --- families ------------------------------------------------------------- *)

let test_families_compile_and_verify () =
  List.iter
    (fun (f : Families.family) ->
      let n = min f.default_n f.max_n in
      let stg =
        match Families.generate f.fname ~n with
        | Ok stg -> stg
        | Error m -> Alcotest.failf "%s n=%d: %s" f.fname n m
      in
      let sg = explore stg in
      Alcotest.(check bool) (f.fname ^ ": nonempty") true
        (Array.length sg.Stg.states > 0);
      Alcotest.(check bool) (f.fname ^ ": csc") true (Stg.check_csc sg = Ok ());
      (match Synth.complex_gate stg with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s: complex_gate: %s" f.fname m);
      match Synth.decomposed ~redundant:true stg with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s: decomposed: %s" f.fname m)
    Families.all

(* Every family's top size compiles to a spec whose state codes fit the
   bits synthesis works in, and the size past it is refused. *)
let test_family_caps () =
  List.iter
    (fun (f : Families.family) ->
      let stg = ok (Families.generate f.fname ~n:f.max_n) in
      let n_sig = Array.length stg.Stg.signals in
      Alcotest.(check bool)
        (Printf.sprintf "%s %d: %d signals <= %d" f.fname f.max_n n_sig
           Qm.max_vars)
        true (n_sig <= Qm.max_vars);
      Alcotest.(check bool)
        (Printf.sprintf "%s %d refused" f.fname (f.max_n + 1))
        true
        (Result.is_error (Families.generate f.fname ~n:(f.max_n + 1))))
    Families.all

let test_family_matches_seed_benchmarks () =
  (* The scaling recipes collapse to the fixed benchmarks at the small
     end: fifo 2 is vbe5b, latch 1 is dff (same reachable state count —
     the families are renamed copies, not lookalikes). *)
  let bench nm =
    match Satg_bench.Suite.find nm with
    | Some e -> e.Satg_bench.Suite.stg
    | None -> Alcotest.failf "missing benchmark %s" nm
  in
  let fam f n =
    match Families.generate f ~n with
    | Ok stg -> stg
    | Error m -> Alcotest.failf "%s: %s" f m
  in
  Alcotest.(check int) "fifo2 = vbe5b states" (n_states (bench "vbe5b"))
    (n_states (fam "fifo" 2));
  Alcotest.(check int) "latch1 = dff states" (n_states (bench "dff"))
    (n_states (fam "latch" 1));
  Alcotest.(check int) "pipeline states double per stage" (2 * n_states (fam "pipeline" 2))
    (n_states (fam "pipeline" 3))

let test_family_bounds () =
  (match Families.generate "pipeline" ~n:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "n=0 must be rejected");
  (match Families.generate "nosuch" ~n:3 with
  | Error m ->
    Alcotest.(check bool) "lists known families" true
      (List.for_all
         (fun nm ->
           String.length m >= String.length nm)
         Families.names)
  | Ok _ -> Alcotest.fail "unknown family must be rejected");
  (* suite registry exposes the same families *)
  Alcotest.(check (list string)) "suite registry" Families.names
    Satg_bench.Suite.family_names;
  Alcotest.(check int) "suite defaults build" (List.length Families.names)
    (List.length (Satg_bench.Suite.family_defaults ()))

(* --- .g round-trip -------------------------------------------------------- *)

(* Random consistent concept composition: a sequencer ring whose rises
   fire in a random order sigma and whose falls fire in the same order
   (same-order falls keep CSC; the marking rule puts the single token
   before sigma_0's rise), optionally composed with extra handshake
   pairs.  This generates specs with implicit places, explicit or- and
   me-places, and multi-signal interfaces. *)
type rt_spec = {
  ring_size : int;
  perm_picks : int list;
  n_inputs_pick : int;
  extra_handshakes : int;
}

let rt_gen =
  QCheck.Gen.(
    let* ring_size = int_range 2 6 in
    let* perm_picks = list_size (return ring_size) (int_bound 1000) in
    let* n_inputs_pick = int_bound (ring_size - 1) in
    let* extra_handshakes = int_bound 2 in
    return { ring_size; perm_picks; n_inputs_pick; extra_handshakes })

let rt_arb =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "ring=%d perm=[%s] inputs=%d hs=%d" s.ring_size
        (String.concat ";" (List.map string_of_int s.perm_picks))
        s.n_inputs_pick s.extra_handshakes)
    rt_gen

let rt_build s =
  let n = s.ring_size in
  let sigs = List.init n (fun i -> Printf.sprintf "s%d" i) in
  (* Fisher-Yates driven by the raw picks: a permutation of sigs. *)
  let arr = Array.of_list sigs in
  List.iteri
    (fun i pick ->
      let j = i + (pick mod (n - i)) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp)
    s.perm_picks;
  let order = Array.to_list arr in
  let rec chain edge = function
    | a :: (b :: _ as rest) -> (edge a --> edge b) <+> chain edge rest
    | _ -> empty
  in
  let first = List.hd order and last = List.nth order (n - 1) in
  (* The ring head must be an input (it is the initially enabled
     transition, and synthesis requires a stable reset state), and at
     least one signal must remain an output.  Split along the firing
     order. *)
  let cut = 1 + min s.n_inputs_pick (n - 2) in
  let ins = List.filteri (fun i _ -> i < cut) order in
  let outs = List.filteri (fun i _ -> i >= cut) order in
  let hs =
    List.init s.extra_handshakes (fun i ->
        let r = Printf.sprintf "hr%d" i and a = Printf.sprintf "ha%d" i in
        inputs [ r ] <+> outputs [ a ] <+> handshake r a)
  in
  concat
    ([
       inputs ins; outputs outs; initialise0 sigs;
       chain rise order;
       rise last --> fall first;
       chain fall order;
       fall last --> rise first;
     ]
    @ hs)

let prop_g_round_trip =
  QCheck.Test.make ~name:"concepts: .g text round-trips" ~count:200 rt_arb
    (fun s ->
      let spec = rt_build s in
      match compile ~name:"rt" spec with
      | Error m -> QCheck.Test.fail_reportf "compile: %s" m
      | Ok stg -> (
        let text = Stg.to_string stg in
        match Stg.parse_string text with
        | Error m -> QCheck.Test.fail_reportf "reparse: %s" m
        | Ok stg' ->
          canonical stg = canonical stg'
          && Stg.to_string stg' = text))

let test_round_trip_families () =
  List.iter
    (fun (f : Families.family) ->
      let stg =
        match Families.generate f.fname ~n:f.default_n with
        | Ok stg -> stg
        | Error m -> Alcotest.failf "%s: %s" f.fname m
      in
      let stg' =
        match Stg.parse_string (Stg.to_string stg) with
        | Ok s -> s
        | Error m -> Alcotest.failf "%s: reparse: %s" f.fname m
      in
      Alcotest.(check bool) (f.fname ^ ": canonical round-trip") true
        (canonical stg = canonical stg'))
    Families.all

let test_duplicate_arc_lines () =
  (* A spec that repeats an arc line parses to the same net as the spec
     that states it once — and can be printed again (the printer's
     one-transition-per-implicit-place invariant must survive). *)
  let dup =
    ".model d\n.inputs a\n.outputs b\n.graph\na+ b+\na+ b+\nb+ a-\na- b-\n\
     b- a+\n.marking { <b-,a+> }\n.init a=0 b=0\n.end\n"
  in
  let once =
    ".model d\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\n\
     b- a+\n.marking { <b-,a+> }\n.init a=0 b=0\n.end\n"
  in
  let p text =
    match Stg.parse_string text with
    | Ok s -> s
    | Error m -> Alcotest.failf "parse: %s" m
  in
  let s_dup = p dup and s_once = p once in
  Alcotest.(check bool) "same net" true (canonical s_dup = canonical s_once);
  Alcotest.(check string) "printable and identical"
    (Stg.to_string s_once) (Stg.to_string s_dup)

(* --- hazard-free cover selection ------------------------------------------ *)

let covers_of stg = Synth.hazard_free_covers (explore stg)
let minimal_of stg = Synth.next_state_covers (explore stg)
let primes_of stg = Synth.prime_covers (explore stg)

let test_has_opposing_pair_direct () =
  (* xy' + x'y oppose in both variables; xy + y- don't. *)
  let mk strs = Cover.make ~n:2 (List.map Cube.of_string strs) in
  Alcotest.(check bool) "xor-ish opposes" true
    (Synth.has_opposing_pair (mk [ "10"; "01" ]));
  Alcotest.(check bool) "unate cover does not" false
    (Synth.has_opposing_pair (mk [ "11"; "-1" ]));
  Alcotest.(check bool) "single cube does not" false
    (Synth.has_opposing_pair (mk [ "1-" ]));
  Alcotest.(check bool) "empty does not" false
    (Synth.has_opposing_pair (Cover.empty 2))

let test_hazard_covers_on_latch () =
  (* The generated latch family is the opposing-literal pathology by
     construction: every q_i minimal cover is set + hold*state (d*c +
     hold-term with c negated).  hazard_free_covers must switch those
     functions to their full prime cover, and only those. *)
  let stg =
    match Families.generate "latch" ~n:2 with
    | Ok s -> s
    | Error m -> Alcotest.failf "latch: %s" m
  in
  let minimal = minimal_of stg and hf = covers_of stg and primes = primes_of stg in
  let some_redundant = ref false in
  List.iter
    (fun (nm, mc) ->
      let hc = List.assoc nm hf and pc = List.assoc nm primes in
      (* hf may differ from the minimal cover only inside don't-care
         space; on the minimal cover's own minterms they must agree *)
      Alcotest.(check bool) (nm ^ ": hf covers the on-set") true
        (List.for_all (Cover.eval_minterm hc) (Cover.minterms mc));
      if Synth.has_opposing_pair mc then begin
        some_redundant := true;
        Alcotest.(check (list string)) (nm ^ ": all primes kept")
          (List.sort compare (List.map Cube.to_string (Cover.cubes pc)))
          (List.sort compare (List.map Cube.to_string (Cover.cubes hc)));
        Alcotest.(check bool) (nm ^ ": strictly redundant") true
          (Cover.cube_count hc > Cover.cube_count mc
           || Cover.cube_count mc = Cover.cube_count pc)
      end
      else
        Alcotest.(check int) (nm ^ ": minimal kept")
          (Cover.cube_count mc) (Cover.cube_count hc))
    minimal;
  Alcotest.(check bool) "latch family has an opposing-literal function" true
    !some_redundant

let test_hazard_covers_stay_minimal () =
  (* The token ring is a pure sequencer: every next-state function is
     unate, so hazard-free synthesis must not inflate anything. *)
  let stg =
    match Families.generate "ring" ~n:4 with
    | Ok s -> s
    | Error m -> Alcotest.failf "ring: %s" m
  in
  let minimal = minimal_of stg and hf = covers_of stg in
  List.iter
    (fun (nm, mc) ->
      Alcotest.(check bool) (nm ^ ": no opposing pair") false
        (Synth.has_opposing_pair mc);
      Alcotest.(check int) (nm ^ ": untouched") (Cover.cube_count mc)
        (Cover.cube_count (List.assoc nm hf)))
    minimal

let test_hazard_covers_handcrafted () =
  (* dff is the seed's own latch: its q cover has opposing literals and
     redundant synthesis grows it; vbe5b's chain functions do not. *)
  let bench nm =
    match Satg_bench.Suite.find nm with
    | Some e -> e.Satg_bench.Suite.stg
    | None -> Alcotest.failf "missing %s" nm
  in
  let dff_min = minimal_of (bench "dff") in
  Alcotest.(check bool) "dff q opposes" true
    (List.exists (fun (_, c) -> Synth.has_opposing_pair c) dff_min);
  let hf = covers_of (bench "dff") in
  List.iter
    (fun (nm, mc) ->
      if Synth.has_opposing_pair mc then
        Alcotest.(check bool) (nm ^ ": grew or already prime") true
          (Cover.cube_count (List.assoc nm hf) >= Cover.cube_count mc))
    dff_min

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_g_round_trip ]

let suites =
  [
    ( "concepts",
      [
        Alcotest.test_case "handshake phasings" `Quick test_handshake_phasings;
        Alcotest.test_case "c-element concept" `Quick test_c_element_concept;
        Alcotest.test_case "or-causality" `Quick test_or_causality;
        Alcotest.test_case "me token derivation" `Quick test_me_token;
        Alcotest.test_case "validation errors" `Quick test_validation_errors;
        Alcotest.test_case "marking overrides" `Quick test_marking_overrides;
        Alcotest.test_case "families compile + verify" `Quick
          test_families_compile_and_verify;
        Alcotest.test_case "family caps fit a state code" `Quick
          test_family_caps;
        Alcotest.test_case "families match seed benchmarks" `Quick
          test_family_matches_seed_benchmarks;
        Alcotest.test_case "family bounds + registry" `Quick test_family_bounds;
        Alcotest.test_case "families round-trip" `Quick test_round_trip_families;
        Alcotest.test_case "duplicate arc lines" `Quick test_duplicate_arc_lines;
        Alcotest.test_case "has_opposing_pair" `Quick
          test_has_opposing_pair_direct;
        Alcotest.test_case "hazard covers: latch family" `Quick
          test_hazard_covers_on_latch;
        Alcotest.test_case "hazard covers: ring stays minimal" `Quick
          test_hazard_covers_stay_minimal;
        Alcotest.test_case "hazard covers: seed benchmarks" `Quick
          test_hazard_covers_handcrafted;
      ]
      @ qcheck_cases );
  ]
