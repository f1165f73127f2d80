(* Tests for the logic substrate: ternary algebra, cubes, covers and the
   Quine-McCluskey minimizer. *)

open Satg_logic

let tern = Alcotest.testable Ternary.pp Ternary.equal

let all_ternary = Ternary.[ Zero; One; Phi ]

let check_tern = Alcotest.check tern

(* --- Ternary ----------------------------------------------------------- *)

let test_ternary_basic () =
  check_tern "not 0" Ternary.One (Ternary.not_ Ternary.Zero);
  check_tern "not phi" Ternary.Phi (Ternary.not_ Ternary.Phi);
  check_tern "0 and phi" Ternary.Zero (Ternary.and_ Ternary.Zero Ternary.Phi);
  check_tern "1 and phi" Ternary.Phi (Ternary.and_ Ternary.One Ternary.Phi);
  check_tern "1 or phi" Ternary.One (Ternary.or_ Ternary.One Ternary.Phi);
  check_tern "0 or phi" Ternary.Phi (Ternary.or_ Ternary.Zero Ternary.Phi);
  check_tern "phi xor 1" Ternary.Phi (Ternary.xor_ Ternary.Phi Ternary.One);
  check_tern "lub 0 1" Ternary.Phi (Ternary.lub Ternary.Zero Ternary.One);
  check_tern "lub 1 1" Ternary.One (Ternary.lub Ternary.One Ternary.One)

let test_ternary_monotone () =
  (* Every operator is monotone w.r.t. the information ordering: refining
     Phi to a binary value can only refine the result. *)
  let refinements = function
    | Ternary.Phi -> all_ternary
    | v -> [ v ]
  in
  let ops =
    [ ("and", Ternary.and_); ("or", Ternary.or_); ("xor", Ternary.xor_) ]
  in
  List.iter
    (fun (name, op) ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let coarse = op a b in
              List.iter
                (fun a' ->
                  List.iter
                    (fun b' ->
                      let fine = op a' b' in
                      Alcotest.(check bool)
                        (Printf.sprintf "%s monotone" name)
                        true
                        (Ternary.leq fine coarse))
                    (refinements b))
                (refinements a))
            all_ternary)
        all_ternary)
    ops

let test_ternary_strings () =
  let v = Ternary.vector_of_string "10X" in
  Alcotest.(check string) "roundtrip" "10X" (Ternary.vector_to_string v);
  Alcotest.(check bool) "binary" false (Ternary.vector_is_binary v);
  Alcotest.(check bool)
    "binary yes" true
    (Ternary.vector_is_binary (Ternary.vector_of_string "0101"));
  Alcotest.check_raises "bad char"
    (Invalid_argument "Ternary.vector_of_string: bad char '2' at 1")
    (fun () -> ignore (Ternary.vector_of_string "12"))

let test_ternary_lub_vector () =
  let a = Ternary.vector_of_string "0011" in
  let b = Ternary.vector_of_string "0101" in
  Alcotest.(check string)
    "lub" "0XX1"
    (Ternary.vector_to_string (Ternary.vector_lub a b))

(* --- Cube -------------------------------------------------------------- *)

let test_cube_roundtrip () =
  let c = Cube.of_string "1-0" in
  Alcotest.(check string) "to_string" "1-0" (Cube.to_string c);
  Alcotest.(check int) "size" 3 (Cube.size c);
  Alcotest.(check int) "literals" 2 (Cube.num_literals c)

let test_cube_contains () =
  let c = Cube.of_string "1-0" in
  Alcotest.(check bool) "100" true (Cube.contains_minterm c 0b100);
  Alcotest.(check bool) "110" true (Cube.contains_minterm c 0b110);
  Alcotest.(check bool) "111" false (Cube.contains_minterm c 0b111);
  Alcotest.(check bool) "000" false (Cube.contains_minterm c 0b000);
  Alcotest.(check bool)
    "vector" true
    (Cube.contains_vector c [| true; false; false |])

let test_cube_minterm_msb () =
  (* Variable 0 is the most significant bit. *)
  let c = Cube.of_minterm 3 0b101 in
  Alcotest.(check string) "of_minterm" "101" (Cube.to_string c)

let test_cube_ops () =
  let a = Cube.of_string "1--" and b = Cube.of_string "-0-" in
  (match Cube.intersect a b with
  | Some i -> Alcotest.(check string) "intersect" "10-" (Cube.to_string i)
  | None -> Alcotest.fail "expected intersection");
  (match Cube.intersect (Cube.of_string "1--") (Cube.of_string "0--") with
  | Some _ -> Alcotest.fail "expected disjoint"
  | None -> ());
  Alcotest.(check string)
    "supercube" "1--"
    (Cube.to_string (Cube.supercube (Cube.of_string "10-") (Cube.of_string "11-")));
  Alcotest.(check bool) "covers" true (Cube.covers a (Cube.of_string "101"));
  Alcotest.(check bool) "covers not" false (Cube.covers (Cube.of_string "101") a)

let test_cube_cofactor () =
  let c = Cube.of_string "1-0" in
  (match Cube.cofactor c ~var:0 ~value:true with
  | Some c' -> Alcotest.(check string) "pos" "--0" (Cube.to_string c')
  | None -> Alcotest.fail "expected cofactor");
  (match Cube.cofactor c ~var:0 ~value:false with
  | Some _ -> Alcotest.fail "incompatible cofactor should be None"
  | None -> ())

let test_cube_minterms () =
  let c = Cube.of_string "1-0" in
  Alcotest.(check (list int)) "minterms" [ 0b100; 0b110 ] (Cube.minterms c)

let test_cube_eval_ternary () =
  let c = Cube.of_string "1-0" in
  check_tern "all binary in-cube" Ternary.One
    (Cube.eval_ternary c (Ternary.vector_of_string "110"));
  check_tern "off" Ternary.Zero
    (Cube.eval_ternary c (Ternary.vector_of_string "010"));
  check_tern "uncertain literal" Ternary.Phi
    (Cube.eval_ternary c (Ternary.vector_of_string "X10"));
  check_tern "dc uncertain still on" Ternary.One
    (Cube.eval_ternary c (Ternary.vector_of_string "1X0"))

(* --- Cover ------------------------------------------------------------- *)

let test_cover_eval () =
  let f = Cover.make ~n:3 [ Cube.of_string "11-"; Cube.of_string "--1" ] in
  Alcotest.(check bool) "110" true (Cover.eval_minterm f 0b110);
  Alcotest.(check bool) "001" true (Cover.eval_minterm f 0b001);
  Alcotest.(check bool) "010" false (Cover.eval_minterm f 0b010);
  Alcotest.(check (list int))
    "minterms" [ 1; 3; 5; 6; 7 ] (Cover.minterms f)

let test_cover_ternary_hazard () =
  (* f = a b + !a c evaluated at a=Phi, b=c=1: the SOP ternary value is Phi
     (the classic static-1 hazard), even though the boolean function is 1
     for both values of a. *)
  let f = Cover.make ~n:3 [ Cube.of_string "11-"; Cube.of_string "0-1" ] in
  check_tern "hazard visible" Ternary.Phi
    (Cover.eval_ternary f [| Ternary.Phi; Ternary.One; Ternary.One |]);
  (* Adding the consensus term b c makes the ternary evaluation 1. *)
  let g = Cover.add_cube f (Cube.of_string "-11") in
  check_tern "consensus kills hazard" Ternary.One
    (Cover.eval_ternary g [| Ternary.Phi; Ternary.One; Ternary.One |])

let test_cover_irredundant () =
  let f =
    Cover.make ~n:3
      [ Cube.of_string "11-"; Cube.of_string "111"; Cube.of_string "--1" ]
  in
  let g = Cover.irredundant f in
  Alcotest.(check int) "dropped contained cube" 2 (Cover.cube_count g);
  Alcotest.(check bool) "same function" true (Cover.equal_semantics f g)

(* --- Quine-McCluskey ---------------------------------------------------- *)

let universe n = List.init (1 lsl n) Fun.id

(* The off-set of a function given by its on-set and don't-cares. *)
let off_of ~n ~on ~dc =
  List.filter (fun m -> not (List.mem m on || List.mem m dc)) (universe n)

let test_qm_textbook () =
  (* Classic example: f(a,b,c,d) on {4,8,10,11,12,15}, dc {9,14}.
     Minimal covers have 3 product terms. *)
  let on = [ 4; 8; 10; 11; 12; 15 ] and dc = [ 9; 14 ] in
  let off = off_of ~n:4 ~on ~dc in
  let cover = Qm.minimize ~n:4 ~on ~off in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "on %d covered" m)
        true
        (Cover.eval_minterm cover m))
    on;
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "off %d not covered" m)
        false
        (Cover.eval_minterm cover m))
    off;
  Alcotest.(check int) "3 cubes" 3 (Cover.cube_count cover)

let test_qm_constant () =
  let c = Qm.minimize ~n:3 ~on:(universe 3) ~off:[] in
  Alcotest.(check int) "tautology is one cube" 1 (Cover.cube_count c);
  Alcotest.(check string)
    "universe" "---"
    (Cube.to_string (List.hd (Cover.cubes c)));
  let z = Qm.minimize ~n:3 ~on:[] ~off:(off_of ~n:3 ~on:[] ~dc:[ 1; 2 ]) in
  Alcotest.(check bool) "empty on-set" true (Cover.is_empty z)

let test_qm_xor () =
  (* XOR has no merging opportunities: expect 2^(n-1) full cubes. *)
  let n = 3 in
  let on = List.filter (fun m ->
      let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
      pop m mod 2 = 1)
      (universe n)
  in
  let cover = Qm.minimize ~n ~on ~off:(off_of ~n ~on ~dc:[]) in
  Alcotest.(check int) "4 cubes" 4 (Cover.cube_count cover);
  List.iter
    (fun c -> Alcotest.(check int) "full cube" n (Cube.num_literals c))
    (Cover.cubes cover)

let test_qm_primes () =
  (* f = sum(0,1,2,3) over 2 vars: single prime "--". *)
  let ps = Qm.primes ~n:2 ~on:[ 0; 1; 2; 3 ] ~off:[] in
  Alcotest.(check (list string))
    "single prime" [ "--" ]
    (List.map Cube.to_string ps)

let test_qm_bad_args () =
  Alcotest.check_raises "minterm range"
    (Invalid_argument "Qm: minterm out of range") (fun () ->
      ignore (Qm.minimize ~n:2 ~on:[ 4 ] ~off:[]));
  Alcotest.check_raises "off-set minterm range"
    (Invalid_argument "Qm: minterm out of range") (fun () ->
      ignore (Qm.primes ~n:2 ~on:[ 1 ] ~off:[ -1 ]));
  Alcotest.check_raises "var count"
    (Invalid_argument "Qm: variable count out of [0, 62]") (fun () ->
      ignore (Qm.minimize ~n:63 ~on:[] ~off:[]));
  Alcotest.check_raises "on and off overlap"
    (Invalid_argument "Qm: minterm in both the on-set and the off-set")
    (fun () -> ignore (Qm.primes ~n:3 ~on:[ 1; 5 ] ~off:[ 2; 5 ]))

(* Property: on random functions, the QM cover equals the function on the
   on-set, avoids the off-set, and every selected cube is prime (covered
   by no strictly larger implicant of on ∪ dc). *)
let prop_qm_correct =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 5 in
      let* assigns = array_size (return (1 lsl n)) (int_range 0 2) in
      return (n, assigns))
  in
  let arb =
    QCheck.make gen ~print:(fun (n, a) ->
        Printf.sprintf "n=%d f=%s" n
          (String.concat ""
             (Array.to_list (Array.map string_of_int a))))
  in
  QCheck.Test.make ~name:"qm cover is correct and on-only" ~count:300 arb
    (fun (n, assigns) ->
      let value m = assigns.(m) in
      let on = List.filter (fun m -> value m = 1) (universe n)
      and off = List.filter (fun m -> value m = 0) (universe n) in
      let cover = Qm.minimize ~n ~on ~off in
      List.for_all
        (fun m ->
          let v = Cover.eval_minterm cover m in
          match value m with
          | 1 -> v
          | 0 -> not v
          | _ -> true)
        (universe n))

let prop_qm_minimize_f_agrees =
  QCheck.Test.make ~name:"minimize_f agrees with minimize" ~count:100
    QCheck.(pair (int_range 1 4) (int_bound 0xFFFF))
    (fun (n, bits) ->
      let f m = Some (bits land (1 lsl m) <> 0) in
      let on = List.filter (fun m -> bits land (1 lsl m) <> 0) (universe n) in
      let a = Qm.minimize_f ~n f
      and b = Qm.minimize ~n ~on ~off:(off_of ~n ~on ~dc:[]) in
      Cover.equal_semantics a b)

(* The reference: the pairwise Quine–McCluskey of [Qm_oracle], which
   lists every don't-care.  Random disjoint on/off sets over up to 8
   variables, with a random share of don't-cares (sparse ones look like
   the reached codes of an STG, dense ones like a pipeline's). *)
let qm_instance =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 8 in
      let* w_on = int_range 0 4 and* w_off = int_range 0 4
      and* w_dc = int_range 0 8 in
      let* classes =
        array_size
          (return (1 lsl n))
          (frequency
             [ (w_on, return 1); (w_off, return 0); (w_dc + 1, return 2) ])
      in
      return (n, classes))
  in
  QCheck.make gen ~print:(fun (n, a) ->
      Printf.sprintf "n=%d f=%s" n
        (String.concat "" (Array.to_list (Array.map string_of_int a))))

let split (n, classes) =
  let with_class c = List.filter (fun m -> classes.(m) = c) (universe n) in
  (with_class 1, with_class 0, with_class 2)

let cube_strings cover = List.map Cube.to_string (Cover.cubes cover)

let prop_qm_matches_oracle =
  QCheck.Test.make ~name:"primes and covers = pairwise QM" ~count:300
    qm_instance (fun ((n, _) as inst) ->
      let on, off, dc = split inst in
      let oracle_primes =
        List.filter
          (fun p -> List.exists (Cube.contains_minterm p) on)
          (Qm_oracle.primes ~n ~on ~dc)
      in
      List.map Cube.to_string (Qm.primes ~n ~on ~off)
      = List.map Cube.to_string oracle_primes
      && cube_strings (Qm.minimize ~n ~on ~off)
         = cube_strings (Qm_oracle.minimize ~n ~on ~dc))

let test_qm_edge_sets () =
  let same ~n ~on ~off =
    let dc = off_of ~n ~on ~dc:off in
    Alcotest.(check (list string))
      (Printf.sprintf "n=%d primes" n)
      (List.map Cube.to_string
         (List.filter
            (fun p -> List.exists (Cube.contains_minterm p) on)
            (Qm_oracle.primes ~n ~on ~dc)))
      (List.map Cube.to_string (Qm.primes ~n ~on ~off));
    Alcotest.(check (list string))
      (Printf.sprintf "n=%d cover" n)
      (cube_strings (Qm_oracle.minimize ~n ~on ~dc))
      (cube_strings (Qm.minimize ~n ~on ~off))
  in
  (* empty on-set: no prime, the empty cover *)
  Alcotest.(check (list string)) "empty on-set" []
    (List.map Cube.to_string (Qm.primes ~n:3 ~on:[] ~off:[ 0; 7 ]));
  same ~n:3 ~on:[] ~off:[ 0; 7 ];
  (* empty off-set: one universal cube *)
  Alcotest.(check (list string)) "empty off-set" [ "----" ]
    (List.map Cube.to_string (Qm.primes ~n:4 ~on:[ 3; 12 ] ~off:[]));
  same ~n:4 ~on:[ 3; 12 ] ~off:[];
  (* n = 0: the one minterm is on (the empty-width cube) or off *)
  Alcotest.(check (list string)) "n=0 on" [ "" ]
    (List.map Cube.to_string (Qm.primes ~n:0 ~on:[ 0 ] ~off:[]));
  Alcotest.(check bool) "n=0 off" true
    (Cover.is_empty (Qm.minimize ~n:0 ~on:[] ~off:[ 0 ]));
  same ~n:0 ~on:[ 0 ] ~off:[];
  (* a position one flip from an off-minterm is fixed in every prime *)
  Alcotest.(check (list string)) "forced position" [ "-1-" ]
    (List.map Cube.to_string (Qm.primes ~n:3 ~on:[ 2 ] ~off:[ 0 ]))

let test_qm_wide () =
  (* 62 variables, the int-mask limit: two reached codes of opposite
     value, far apart, give two half-spaces split on each differing
     position. *)
  let n = 62 in
  let on = [ 1 ] and off = [ 1 lor (1 lsl 61) ] in
  let ps = Qm.primes ~n ~on ~off in
  Alcotest.(check (list string)) "one prime"
    [ "0" ^ String.make 61 '-' ]
    (List.map Cube.to_string ps);
  let c = Qm.minimize ~n ~on ~off in
  Alcotest.(check bool) "covers on" true (Cover.eval_minterm c 1);
  Alcotest.(check bool) "avoids off" false
    (Cover.eval_minterm c (1 lor (1 lsl 61)))

let test_qm_degenerate_sizes () =
  (* n = 0: the only minterm is 0; the cover is the empty-width cube. *)
  let c = Qm.minimize ~n:0 ~on:[ 0 ] ~off:[] in
  Alcotest.(check int) "one cube" 1 (Cover.cube_count c);
  Alcotest.(check bool) "covers it" true (Cover.eval_minterm c 0);
  (* n = 1 identity *)
  let c = Qm.minimize ~n:1 ~on:[ 1 ] ~off:[ 0 ] in
  Alcotest.(check (list string)) "single literal" [ "1" ]
    (List.map Cube.to_string (Cover.cubes c))

let test_cover_width_mismatch () =
  Alcotest.check_raises "add_cube"
    (Invalid_argument "Cover.add_cube: width mismatch") (fun () ->
      ignore (Cover.add_cube (Cover.empty 2) (Cube.of_string "101")))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_qm_correct; prop_qm_minimize_f_agrees; prop_qm_matches_oracle ]

let suites =
  [
    ( "logic.ternary",
      [
        Alcotest.test_case "basic ops" `Quick test_ternary_basic;
        Alcotest.test_case "monotonicity" `Quick test_ternary_monotone;
        Alcotest.test_case "string io" `Quick test_ternary_strings;
        Alcotest.test_case "vector lub" `Quick test_ternary_lub_vector;
      ] );
    ( "logic.cube",
      [
        Alcotest.test_case "roundtrip" `Quick test_cube_roundtrip;
        Alcotest.test_case "contains" `Quick test_cube_contains;
        Alcotest.test_case "msb convention" `Quick test_cube_minterm_msb;
        Alcotest.test_case "intersect/supercube/covers" `Quick test_cube_ops;
        Alcotest.test_case "cofactor" `Quick test_cube_cofactor;
        Alcotest.test_case "minterms" `Quick test_cube_minterms;
        Alcotest.test_case "ternary eval" `Quick test_cube_eval_ternary;
      ] );
    ( "logic.cover",
      [
        Alcotest.test_case "eval" `Quick test_cover_eval;
        Alcotest.test_case "ternary hazard" `Quick test_cover_ternary_hazard;
        Alcotest.test_case "irredundant" `Quick test_cover_irredundant;
        Alcotest.test_case "width mismatch" `Quick test_cover_width_mismatch;
      ] );
    ( "logic.qm",
      [
        Alcotest.test_case "textbook" `Quick test_qm_textbook;
        Alcotest.test_case "constants" `Quick test_qm_constant;
        Alcotest.test_case "xor" `Quick test_qm_xor;
        Alcotest.test_case "primes" `Quick test_qm_primes;
        Alcotest.test_case "bad args" `Quick test_qm_bad_args;
        Alcotest.test_case "degenerate sizes" `Quick test_qm_degenerate_sizes;
        Alcotest.test_case "edge sets = pairwise QM" `Quick test_qm_edge_sets;
        Alcotest.test_case "62 variables" `Quick test_qm_wide;
      ]
      @ qcheck_cases );
  ]
