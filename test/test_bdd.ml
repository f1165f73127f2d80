(* Tests for the ROBDD package: canonicity, boolean algebra laws,
   quantification, relational product, permutation, sat enumeration,
   exact model counting, manager statistics, and guard weaving. *)

open Satg_guard
open Satg_bdd

let test_terminals () =
  let m = Bdd.create ~nvars:3 () in
  Alcotest.(check bool) "zero" true (Bdd.is_zero (Bdd.zero m));
  Alcotest.(check bool) "one" true (Bdd.is_one (Bdd.one m));
  Alcotest.(check bool)
    "not zero = one" true
    (Bdd.equal (Bdd.not_ m (Bdd.zero m)) (Bdd.one m))

let test_canonicity () =
  let m = Bdd.create ~nvars:4 () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  (* a AND b built two different ways must be physically equal. *)
  let f1 = Bdd.and_ m a b in
  let f2 = Bdd.not_ m (Bdd.or_ m (Bdd.not_ m a) (Bdd.not_ m b)) in
  Alcotest.(check bool) "de morgan" true (Bdd.equal f1 f2);
  let g1 = Bdd.xor_ m a b in
  let g2 = Bdd.or_ m (Bdd.diff m a b) (Bdd.diff m b a) in
  Alcotest.(check bool) "xor via diff" true (Bdd.equal g1 g2);
  Alcotest.(check bool)
    "ite(a,b,0) = and" true
    (Bdd.equal (Bdd.ite m a b (Bdd.zero m)) f1)

let test_eval () =
  let m = Bdd.create ~nvars:3 () in
  let f =
    Bdd.or_ m
      (Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1))
      (Bdd.and_ m (Bdd.nvar m 0) (Bdd.var m 2))
  in
  let ev a b c = Bdd.eval m f (function 0 -> a | 1 -> b | _ -> c) in
  Alcotest.(check bool) "110" true (ev true true false);
  Alcotest.(check bool) "100" false (ev true false false);
  Alcotest.(check bool) "001" true (ev false false true);
  Alcotest.(check bool) "000" false (ev false false false)

let test_cofactor_compose () =
  let m = Bdd.create ~nvars:3 () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 and c = Bdd.var m 2 in
  let f = Bdd.ite m a b c in
  Alcotest.(check bool)
    "f|a=1 is b" true
    (Bdd.equal (Bdd.cofactor m f ~var:0 ~value:true) b);
  Alcotest.(check bool)
    "f|a=0 is c" true
    (Bdd.equal (Bdd.cofactor m f ~var:0 ~value:false) c);
  (* compose a := b xor c in f = a and b *)
  let g = Bdd.compose m (Bdd.and_ m a b) ~var:0 (Bdd.xor_ m b c) in
  let expect = Bdd.and_ m (Bdd.xor_ m b c) b in
  Alcotest.(check bool) "compose" true (Bdd.equal g expect)

let test_quantify () =
  let m = Bdd.create ~nvars:3 () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  let f = Bdd.and_ m a b in
  Alcotest.(check bool)
    "exists a. a&b = b" true
    (Bdd.equal (Bdd.exists m ~vars:[ 0 ] f) b);
  Alcotest.(check bool)
    "forall a. a&b = 0" true
    (Bdd.is_zero (Bdd.forall m ~vars:[ 0 ] f));
  Alcotest.(check bool)
    "forall a. a|!a = 1" true
    (Bdd.is_one (Bdd.forall m ~vars:[ 0 ] (Bdd.or_ m a (Bdd.not_ m a))))

let test_and_exists () =
  let m = Bdd.create ~nvars:4 () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 and c = Bdd.var m 2 in
  let r = Bdd.and_ m (Bdd.iff m a b) (Bdd.iff m b c) in
  (* ∃b. (a<->b)(b<->c) = (a<->c) *)
  let img = Bdd.and_exists m ~vars:[ 1 ] r (Bdd.one m) in
  Alcotest.(check bool) "chain" true (Bdd.equal img (Bdd.iff m a c));
  (* agreement with the naive formulation on random pieces *)
  let f = Bdd.or_ m (Bdd.and_ m a b) (Bdd.and_ m b c) in
  let g = Bdd.or_ m (Bdd.xor_ m a c) b in
  let lhs = Bdd.and_exists m ~vars:[ 1; 2 ] f g in
  let rhs = Bdd.exists m ~vars:[ 1; 2 ] (Bdd.and_ m f g) in
  Alcotest.(check bool) "vs naive" true (Bdd.equal lhs rhs)

let test_permute () =
  let m = Bdd.create ~nvars:4 () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  let f = Bdd.diff m a b in
  (* swap 0 <-> 1 *)
  let p = function 0 -> 1 | 1 -> 0 | v -> v in
  let g = Bdd.permute m p f in
  Alcotest.(check bool) "swap" true (Bdd.equal g (Bdd.diff m b a));
  Alcotest.(check bool)
    "involution" true
    (Bdd.equal (Bdd.permute m p g) f)

let test_sat () =
  let m = Bdd.create ~nvars:3 () in
  let f = Bdd.xor_ m (Bdd.var m 0) (Bdd.var m 1) in
  Alcotest.(check (float 0.001)) "satcount" 4.0 (Bdd.sat_count m ~nvars:3 f);
  let assign = Bdd.any_sat m f in
  let lookup v = List.assoc_opt v assign |> Option.value ~default:false in
  Alcotest.(check bool) "any_sat satisfies" true (Bdd.eval m f lookup);
  let cubes = Bdd.all_sat m f in
  Alcotest.(check int) "two paths" 2 (List.length cubes);
  Alcotest.check_raises "any_sat zero" Not_found (fun () ->
      ignore (Bdd.any_sat m (Bdd.zero m)))

let test_support_size () =
  let m = Bdd.create ~nvars:5 () in
  let f = Bdd.and_ m (Bdd.var m 1) (Bdd.or_ m (Bdd.var m 3) (Bdd.var m 4)) in
  Alcotest.(check (list int)) "support" [ 1; 3; 4 ] (Bdd.support m f);
  Alcotest.(check bool) "size nonzero" true (Bdd.size m f > 0);
  Alcotest.(check int) "terminal size" 0 (Bdd.size m (Bdd.one m))

(* sat_count is exact past the 2^53 float-mantissa cliff: x0 or
   (x1 & ... & x53) over 54 vars has exactly 2^53 + 1 models, a count
   no float can represent. *)
let test_sat_count_exact () =
  let nvars = 54 in
  let m = Bdd.create ~nvars () in
  let rest = ref (Bdd.one m) in
  for v = 1 to nvars - 1 do
    rest := Bdd.and_ m !rest (Bdd.var m v)
  done;
  let f = Bdd.or_ m (Bdd.var m 0) !rest in
  (match Bdd.sat_count_int m ~nvars f with
  | Some n -> Alcotest.(check int) "2^53 + 1" ((1 lsl 53) + 1) n
  | None -> Alcotest.fail "count fits an int but came back None");
  (* the float path necessarily rounds the +1 away... *)
  Alcotest.(check (float 0.0))
    "float rounds" (Float.ldexp 1.0 53) (Bdd.sat_count m ~nvars f);
  (* ...and a count past 62 bits overflows the int path gracefully *)
  let m70 = Bdd.create ~nvars:70 () in
  (match Bdd.sat_count_int m70 ~nvars:70 (Bdd.one m70) with
  | None -> ()
  | Some n -> Alcotest.failf "2^70 cannot be an int, got %d" n);
  Alcotest.(check (float 1e6))
    "float still usable past 62 bits" (Float.ldexp 1.0 70)
    (Bdd.sat_count m70 ~nvars:70 (Bdd.one m70));
  Alcotest.(check (option int)) "zero" (Some 0)
    (Bdd.sat_count_int m ~nvars:10 (Bdd.zero m));
  Alcotest.(check (option int)) "one over 10 vars" (Some 1024)
    (Bdd.sat_count_int m ~nvars:10 (Bdd.one m))

let test_stats () =
  (* A cache large enough that the replay below is pure cache hits,
     though the first chain doubles the unique table and the op cache
     with it. *)
  let m = Bdd.create ~cache_size:8192 ~nvars:8 () in
  let f = ref (Bdd.zero m) in
  for v = 0 to 7 do
    f := Bdd.xor_ m !f (Bdd.var m v)
  done;
  let s1 = Bdd.stats m in
  Alcotest.(check bool) "nodes made" true (s1.Bdd.live_nodes > 2);
  Alcotest.(check int) "peak = live before any collection" s1.Bdd.live_nodes
    s1.Bdd.peak_nodes;
  Alcotest.(check int) "n_vars" 8 s1.Bdd.n_vars;
  Alcotest.(check bool)
    "load in (0, 0.75]" true
    (s1.Bdd.unique_load > 0.0 && s1.Bdd.unique_load <= 0.75);
  Alcotest.(check bool) "xor misses counted" true (s1.Bdd.xor_misses > 0);
  (* replaying the same chain must be pure cache hits, no new nodes *)
  let g = ref (Bdd.zero m) in
  for v = 0 to 7 do
    g := Bdd.xor_ m !g (Bdd.var m v)
  done;
  let s2 = Bdd.stats m in
  Alcotest.(check int) "replay allocates nothing" s1.Bdd.live_nodes
    s2.Bdd.live_nodes;
  Alcotest.(check bool) "replay hits cache" true
    (s2.Bdd.xor_hits > s1.Bdd.xor_hits);
  Alcotest.(check int) "misses unchanged" s1.Bdd.xor_misses s2.Bdd.xor_misses;
  Alcotest.(check bool) "apply_ops totals" true
    (Bdd.apply_ops s2 >= s2.Bdd.xor_hits + s2.Bdd.xor_misses);
  let rate = Bdd.cache_hit_rate s2 in
  Alcotest.(check bool) "hit rate in [0,1]" true (rate >= 0.0 && rate <= 1.0)

(* The hot paths allocate nothing.  Once a formula's nodes exist, a
   rebuild with the op cache cleared runs every operation, cache probe
   and unique-table probe again but creates no node, so any minor word
   it takes is a closure or a box on the hot path.  Reading
   [Gc.minor_words] may box its result; an empty interval measures
   that and is subtracted. *)
let n_alloc_vars = 16

let alloc_formula m =
  let f = ref (Bdd.one m) in
  for v = 0 to n_alloc_vars - 1 do
    let x = Bdd.var m v and y = Bdd.nvar m ((v + 5) mod n_alloc_vars) in
    let s = Bdd.var m ((v + 3) mod n_alloc_vars) in
    let g = Bdd.ite m s (Bdd.xor_ m !f x) (Bdd.or_ m !f (Bdd.and_ m x y)) in
    f := Bdd.flip_var m ~var:((v + 7) mod n_alloc_vars) g (Bdd.not_ m !f)
  done;
  !f

let test_hot_path_allocation_free () =
  let m = Bdd.create ~nvars:n_alloc_vars () in
  let f = alloc_formula m in
  Bdd.clear_caches m;
  let before = Bdd.stats m in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let f' = alloc_formula m in
  let w2 = Gc.minor_words () in
  let after = Bdd.stats m in
  Alcotest.(check bool) "same function" true (Bdd.equal f f');
  Alcotest.(check int) "no node created" before.Bdd.peak_nodes
    after.Bdd.peak_nodes;
  Alcotest.(check bool) "real work" true
    (Bdd.apply_ops after - Bdd.apply_ops before > 500);
  Alcotest.(check (float 0.)) "minor words" 0. (w2 -. w1 -. (w1 -. w0))

(* Quantifying a terminal allocates nothing: [Symbolic.build] asks for
   the sources of an empty new-stable set on most [TCR_k] steps. *)
let test_quantify_terminal_allocation_free () =
  let m = Bdd.create ~nvars:8 () in
  let vars = [ 0; 3; 7 ] and zero = Bdd.zero m and one = Bdd.one m in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let e0 = Bdd.exists m ~vars zero and e1 = Bdd.exists m ~vars one in
  let a0 = Bdd.forall m ~vars zero and a1 = Bdd.forall m ~vars one in
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words" 0. (w2 -. w1 -. (w1 -. w0));
  Alcotest.(check bool) "terminals kept" true
    (Bdd.equal e0 zero && Bdd.equal a0 zero && Bdd.equal e1 one && Bdd.equal a1 one);
  Alcotest.check_raises "variables still checked" (Invalid_argument "Bdd.quantify: bad var")
    (fun () -> ignore (Bdd.exists m ~vars:[ 8 ] zero))

(* A tripped guard must surface from {e inside} an apply/mk hot path:
   that is what lets --timeout/--max-states interrupt a symbolic image
   computation mid-flight rather than between frontier steps. *)
let test_guard_in_hot_path () =
  let tripped =
    let g = Guard.create ~max_states:1 () in
    (try Guard.spend_states g 2 with Guard.Exhausted _ -> ());
    g
  in
  let m = Bdd.create ~nvars:6 () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  Bdd.set_guard m tripped;
  Alcotest.check_raises "apply raises mid-op"
    (Guard.Exhausted Guard.State_limit) (fun () -> ignore (Bdd.and_ m a b));
  Alcotest.check_raises "mk raises on allocation"
    (Guard.Exhausted Guard.State_limit) (fun () -> ignore (Bdd.var m 5));
  (* detaching the guard makes the manager usable again (salvage) *)
  Bdd.set_guard m Guard.none;
  Alcotest.(check bool) "recovers after detach" true
    (Bdd.equal (Bdd.and_ m a b) (Bdd.and_ m b a));
  (* a guard given at creation is held by the manager *)
  let m2 = Bdd.create ~nvars:4 ~guard:tripped () in
  Alcotest.check_raises "creation guard active"
    (Guard.Exhausted Guard.State_limit) (fun () -> ignore (Bdd.var m2 0))

let test_add_var () =
  let m = Bdd.create ~nvars:1 () in
  let v = Bdd.add_var m in
  Alcotest.(check int) "new index" 1 v;
  let f = Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1) in
  Alcotest.(check (list int)) "usable" [ 0; 1 ] (Bdd.support m f)

(* --- properties --------------------------------------------------------- *)

(* Random boolean expression over [n] vars, evaluated both through the
   BDD and directly; results must agree on every assignment. *)
type expr =
  | EVar of int
  | ENot of expr
  | EAnd of expr * expr
  | EOr of expr * expr
  | EXor of expr * expr

let rec gen_expr n depth =
  let open QCheck.Gen in
  if depth = 0 then map (fun v -> EVar v) (int_bound (n - 1))
  else
    frequency
      [
        (1, map (fun v -> EVar v) (int_bound (n - 1)));
        (2, map (fun e -> ENot e) (gen_expr n (depth - 1)));
        ( 2,
          map2 (fun a b -> EAnd (a, b)) (gen_expr n (depth - 1))
            (gen_expr n (depth - 1)) );
        ( 2,
          map2 (fun a b -> EOr (a, b)) (gen_expr n (depth - 1))
            (gen_expr n (depth - 1)) );
        ( 1,
          map2 (fun a b -> EXor (a, b)) (gen_expr n (depth - 1))
            (gen_expr n (depth - 1)) );
      ]

let rec expr_to_string = function
  | EVar v -> Printf.sprintf "x%d" v
  | ENot e -> Printf.sprintf "!(%s)" (expr_to_string e)
  | EAnd (a, b) -> Printf.sprintf "(%s & %s)" (expr_to_string a) (expr_to_string b)
  | EOr (a, b) -> Printf.sprintf "(%s | %s)" (expr_to_string a) (expr_to_string b)
  | EXor (a, b) -> Printf.sprintf "(%s ^ %s)" (expr_to_string a) (expr_to_string b)

let rec eval_expr assign = function
  | EVar v -> assign v
  | ENot e -> not (eval_expr assign e)
  | EAnd (a, b) -> eval_expr assign a && eval_expr assign b
  | EOr (a, b) -> eval_expr assign a || eval_expr assign b
  | EXor (a, b) -> eval_expr assign a <> eval_expr assign b

let rec build m = function
  | EVar v -> Bdd.var m v
  | ENot e -> Bdd.not_ m (build m e)
  | EAnd (a, b) -> Bdd.and_ m (build m a) (build m b)
  | EOr (a, b) -> Bdd.or_ m (build m a) (build m b)
  | EXor (a, b) -> Bdd.xor_ m (build m a) (build m b)

let n_prop_vars = 4

let expr_arb =
  QCheck.make (gen_expr n_prop_vars 4) ~print:expr_to_string

let prop_bdd_matches_semantics =
  QCheck.Test.make ~name:"bdd eval = direct eval" ~count:200 expr_arb
    (fun e ->
      let m = Bdd.create ~nvars:n_prop_vars () in
      let f = build m e in
      let ok = ref true in
      for mask = 0 to (1 lsl n_prop_vars) - 1 do
        let assign v = mask land (1 lsl v) <> 0 in
        if Bdd.eval m f assign <> eval_expr assign e then ok := false
      done;
      !ok)

let prop_satcount_matches =
  QCheck.Test.make ~name:"sat_count = truth-table count" ~count:200 expr_arb
    (fun e ->
      let m = Bdd.create ~nvars:n_prop_vars () in
      let f = build m e in
      let count = ref 0 in
      for mask = 0 to (1 lsl n_prop_vars) - 1 do
        let assign v = mask land (1 lsl v) <> 0 in
        if eval_expr assign e then incr count
      done;
      Float.abs (Bdd.sat_count m ~nvars:n_prop_vars f -. Float.of_int !count)
      < 0.5)

let prop_exists_matches =
  QCheck.Test.make ~name:"exists = or of cofactors" ~count:200
    QCheck.(pair expr_arb (int_bound (n_prop_vars - 1)))
    (fun (e, v) ->
      let m = Bdd.create ~nvars:n_prop_vars () in
      let f = build m e in
      let lhs = Bdd.exists m ~vars:[ v ] f in
      let rhs =
        Bdd.or_ m
          (Bdd.cofactor m f ~var:v ~value:false)
          (Bdd.cofactor m f ~var:v ~value:true)
      in
      Bdd.equal lhs rhs)

let prop_canonical_equal =
  QCheck.Test.make ~name:"semantic equality = physical equality" ~count:200
    QCheck.(pair expr_arb expr_arb)
    (fun (e1, e2) ->
      let m = Bdd.create ~nvars:n_prop_vars () in
      let f1 = build m e1 and f2 = build m e2 in
      let same_semantics = ref true in
      for mask = 0 to (1 lsl n_prop_vars) - 1 do
        let assign v = mask land (1 lsl v) <> 0 in
        if eval_expr assign e1 <> eval_expr assign e2 then
          same_semantics := false
      done;
      Bdd.equal f1 f2 = !same_semantics)

let test_accessors () =
  let m = Bdd.create ~nvars:3 () in
  let f = Bdd.and_ m (Bdd.var m 0) (Bdd.var m 2) in
  Alcotest.(check int) "top var" 0 (Bdd.top_var m f);
  Alcotest.(check bool) "low is zero" true (Bdd.is_zero (Bdd.low m f));
  Alcotest.(check bool) "high is x2" true
    (Bdd.equal (Bdd.high m f) (Bdd.var m 2));
  Alcotest.check_raises "terminal top_var"
    (Invalid_argument "Bdd.top_var: terminal") (fun () ->
      ignore (Bdd.top_var m (Bdd.one m)))

let test_clear_caches_preserves () =
  let m = Bdd.create ~nvars:4 () in
  let f = Bdd.xor_ m (Bdd.var m 0) (Bdd.var m 1) in
  Bdd.clear_caches m;
  let g = Bdd.xor_ m (Bdd.var m 0) (Bdd.var m 1) in
  Alcotest.(check bool) "canonicity survives cache clear" true (Bdd.equal f g)

let prop_de_morgan =
  QCheck.Test.make ~name:"de morgan on arbitrary formulas" ~count:200
    QCheck.(pair expr_arb expr_arb)
    (fun (e1, e2) ->
      let m = Bdd.create ~nvars:n_prop_vars () in
      let f = build m e1 and g = build m e2 in
      Bdd.equal
        (Bdd.not_ m (Bdd.and_ m f g))
        (Bdd.or_ m (Bdd.not_ m f) (Bdd.not_ m g))
      && Bdd.equal
           (Bdd.not_ m (Bdd.or_ m f g))
           (Bdd.and_ m (Bdd.not_ m f) (Bdd.not_ m g)))

let prop_ite_decomposition =
  QCheck.Test.make ~name:"ite f g h = (f&g) | (!f&h)" ~count:200
    QCheck.(triple expr_arb expr_arb expr_arb)
    (fun (e1, e2, e3) ->
      let m = Bdd.create ~nvars:n_prop_vars () in
      let f = build m e1 and g = build m e2 and h = build m e3 in
      Bdd.equal (Bdd.ite m f g h)
        (Bdd.or_ m (Bdd.and_ m f g) (Bdd.and_ m (Bdd.not_ m f) h)))

let prop_forall_matches =
  QCheck.Test.make ~name:"forall = and of cofactors" ~count:200
    QCheck.(pair expr_arb (int_bound (n_prop_vars - 1)))
    (fun (e, v) ->
      let m = Bdd.create ~nvars:n_prop_vars () in
      let f = build m e in
      Bdd.equal
        (Bdd.forall m ~vars:[ v ] f)
        (Bdd.and_ m
           (Bdd.cofactor m f ~var:v ~value:false)
           (Bdd.cofactor m f ~var:v ~value:true)))

(* The same differential oracle, but deep and wide enough (8 vars,
   depth 6) that unique-table rehashing and op-cache evictions happen
   along the way — the regimes the packed engine optimises. *)
let n_deep_vars = 8

let deep_expr_arb = QCheck.make (gen_expr n_deep_vars 6) ~print:expr_to_string

let prop_deep_bdd_matches_semantics =
  QCheck.Test.make ~name:"deep bdd eval = direct eval" ~count:100 deep_expr_arb
    (fun e ->
      let m = Bdd.create ~unique_size:64 ~cache_size:64 ~nvars:n_deep_vars () in
      let f = build m e in
      let ok = ref true in
      for mask = 0 to (1 lsl n_deep_vars) - 1 do
        let assign v = mask land (1 lsl v) <> 0 in
        if Bdd.eval m f assign <> eval_expr assign e then ok := false
      done;
      !ok)

(* --- cofactor exchange (flip_var) ---------------------------------------- *)

let test_flip_var () =
  let m = Bdd.create ~nvars:3 () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 and c = Bdd.var m 2 in
  let f = Bdd.or_ m (Bdd.and_ m a b) (Bdd.and_ m (Bdd.not_ m a) c) in
  let g = Bdd.flip_var m ~var:0 f (Bdd.one m) in
  (* flipping var 0 exchanges the roles of the two AND terms *)
  for mask = 0 to 7 do
    let assign v = mask land (1 lsl v) <> 0 in
    let flipped v = if v = 0 then not (assign v) else assign v in
    Alcotest.(check bool) "flip semantics" (Bdd.eval m f flipped)
      (Bdd.eval m g assign)
  done;
  Alcotest.(check bool) "involution" true
    (Bdd.equal (Bdd.flip_var m ~var:0 g (Bdd.one m)) f);
  (* variables absent from the support are no-ops, terminals too *)
  Alcotest.(check bool) "absent var" true
    (Bdd.equal (Bdd.flip_var m ~var:1 c (Bdd.one m)) c);
  Alcotest.(check bool) "terminal" true
    (Bdd.is_one (Bdd.flip_var m ~var:0 (Bdd.one m) (Bdd.one m)));
  let s = Bdd.stats m in
  Alcotest.(check bool) "flip misses counted" true (s.Bdd.flip_misses > 0)

let prop_flip_var_matches =
  QCheck.Test.make ~name:"flip_var = polarity exchange" ~count:200
    QCheck.(pair expr_arb (int_bound (n_prop_vars - 1)))
    (fun (e, v) ->
      let m = Bdd.create ~nvars:n_prop_vars () in
      let f = build m e in
      let g = Bdd.flip_var m ~var:v f (Bdd.one m) in
      let ok = ref (Bdd.equal (Bdd.flip_var m ~var:v g (Bdd.one m)) f) in
      for mask = 0 to (1 lsl n_prop_vars) - 1 do
        let assign u = mask land (1 lsl u) <> 0 in
        let flipped u = if u = v then not (assign u) else assign u in
        if Bdd.eval m g assign <> Bdd.eval m f flipped then ok := false
      done;
      !ok)

(* The fused form [flip_var ~var:v a b] is the flip of [a ∧ b]: it must
   equal the one-operand flip of the built conjunction, the
   one-operand flip must be an involution, and evaluation must match
   [a ∧ b] read with [v] negated. *)
let flip_laws m nvars v a b =
  let one = Bdd.one m in
  let fused = Bdd.flip_var m ~var:v a b in
  let ok =
    ref
      (Bdd.equal fused (Bdd.flip_var m ~var:v (Bdd.and_ m a b) one)
      && Bdd.equal
           (Bdd.flip_var m ~var:v (Bdd.flip_var m ~var:v a one) one)
           a)
  in
  for mask = 0 to (1 lsl nvars) - 1 do
    let assign u = mask land (1 lsl u) <> 0 in
    let flipped u = if u = v then not (assign u) else assign u in
    if Bdd.eval m fused assign <> (Bdd.eval m a flipped && Bdd.eval m b flipped)
    then ok := false
  done;
  !ok

(* After a sifting pass the recursion must follow levels, not
   variable indices. *)
let prop_flip_fused_after_sift =
  QCheck.Test.make ~name:"fused flip laws after sift" ~count:100
    QCheck.(triple deep_expr_arb deep_expr_arb (int_bound (n_deep_vars - 1)))
    (fun (ea, eb, v) ->
      let m = Bdd.create ~nvars:n_deep_vars () in
      let a = build m ea and b = build m eb in
      Bdd.sift m;
      flip_laws m n_deep_vars v a b)

(* Small auto-sized managers: a few dozen nodes, a 256-entry cache. *)
let prop_flip_fused_small =
  QCheck.Test.make ~name:"fused flip laws on small managers"
    ~count:200
    QCheck.(
      triple
        (make (gen_expr n_prop_vars 2) ~print:expr_to_string)
        (make (gen_expr n_prop_vars 2) ~print:expr_to_string)
        (int_bound (n_prop_vars - 1)))
    (fun (ea, eb, v) ->
      let m = Bdd.create ~nvars:n_prop_vars () in
      let a = build m ea and b = build m eb in
      flip_laws m n_prop_vars v a b)

(* --- dynamic variable reordering ------------------------------------------ *)

(* Hand-built DAG: one adjacent swap must leave every function intact,
   update the level maps, and tick the swap counter. *)
let test_swap_adjacent () =
  let m = Bdd.create ~nvars:4 () in
  let f =
    Bdd.or_ m
      (Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1))
      (Bdd.and_ m (Bdd.var m 2) (Bdd.var m 3))
  in
  let g = Bdd.xor_ m (Bdd.var m 1) (Bdd.var m 2) in
  let s0 = Bdd.stats m in
  Bdd.swap_adjacent m 1;
  Alcotest.(check int) "var 2 moved up" 1 (Bdd.level_of_var m 2);
  Alcotest.(check int) "var 1 moved down" 2 (Bdd.level_of_var m 1);
  Alcotest.(check int) "level 1 holds var 2" 2 (Bdd.var_at_level m 1);
  let s1 = Bdd.stats m in
  Alcotest.(check int) "one swap counted" (s0.Bdd.swaps + 1) s1.Bdd.swaps;
  for mask = 0 to 15 do
    let assign v = mask land (1 lsl v) <> 0 in
    let direct_f =
      (assign 0 && assign 1) || (assign 2 && assign 3)
    in
    Alcotest.(check bool) "f intact" direct_f (Bdd.eval m f assign);
    Alcotest.(check bool) "g intact" (assign 1 <> assign 2)
      (Bdd.eval m g assign)
  done;
  (* handles stay canonical across the swap: rebuilding finds them *)
  let f' =
    Bdd.or_ m
      (Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1))
      (Bdd.and_ m (Bdd.var m 2) (Bdd.var m 3))
  in
  Alcotest.(check bool) "rebuild is physically equal" true (Bdd.equal f f');
  (* swapping back restores the identity order *)
  Bdd.swap_adjacent m 1;
  Alcotest.(check (list int)) "identity order restored" [ 0; 1; 2; 3 ]
    (Array.to_list (Bdd.order m));
  let bad l = try Bdd.swap_adjacent m l; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "level -1 rejected" true (bad (-1));
  Alcotest.(check bool) "last level rejected" true (bad 3)

(* The canonical sifting showcase: a1·b1 + ... + an·bn with all the
   a's ordered before all the b's is exponential; sifting must find an
   interleaving and collapse it to the linear form. *)
let interleaved_pairs m n =
  let f = ref (Bdd.zero m) in
  for i = 0 to n - 1 do
    f := Bdd.or_ m !f (Bdd.and_ m (Bdd.var m i) (Bdd.var m (n + i)))
  done;
  !f

let eval_pairs n assign =
  let rec go i = i < n && ((assign i && assign (n + i)) || go (i + 1)) in
  go 0

(* A rooted pass sizes the caller's function alone: [f] reaches the
   linear form (2 nodes per pair) and nothing else stays in the store. *)
let test_sift_explicit () =
  let n = 6 in
  let m = Bdd.create ~nvars:(2 * n) () in
  let f = interleaved_pairs m n in
  let before = Bdd.size m f in
  let s0 = Bdd.stats m in
  Bdd.sift ~roots:[ f ] m;
  let s1 = Bdd.stats m in
  let after = Bdd.size m f in
  Alcotest.(check bool)
    (Printf.sprintf "size shrank (%d -> %d)" before after)
    true (after < before);
  Alcotest.(check int) "linear form" (2 * n) after;
  Alcotest.(check int) "only f and the terminals live" (after + 2)
    s1.Bdd.live_nodes;
  Alcotest.(check int) "one pass counted" (s0.Bdd.reorders + 1) s1.Bdd.reorders;
  Alcotest.(check bool) "swaps counted" true (s1.Bdd.swaps > s0.Bdd.swaps);
  Alcotest.(check bool) "reorder time counted" true
    (s1.Bdd.reorder_seconds >= 0.0);
  let semantics m f =
    for mask = 0 to (1 lsl (2 * n)) - 1 do
      let assign v = mask land (1 lsl v) <> 0 in
      if Bdd.eval m f assign <> eval_pairs n assign then
        Alcotest.failf "semantics changed at mask %d" mask
    done;
    (* canonicity survives the reorder *)
    Alcotest.(check bool) "rebuild physically equal" true
      (Bdd.equal (interleaved_pairs m n) f)
  in
  semantics m f;
  (* An unrooted pass pins the whole store, the intermediate results of
     the build included: it may move variables, but never ends with
     more nodes in use than it started with. *)
  let m = Bdd.create ~nvars:(2 * n) () in
  let f = interleaved_pairs m n in
  let live0 = (Bdd.stats m).Bdd.live_nodes in
  Bdd.sift m;
  let live1 = (Bdd.stats m).Bdd.live_nodes in
  Alcotest.(check bool)
    (Printf.sprintf "unrooted pass does not grow (%d -> %d)" live0 live1)
    true (live1 <= live0);
  semantics m f

(* Automatic reordering: build the pair function big enough to cross
   the 4096-node growth trigger under [Reorder_sift]; a pass must have
   fired, and the function must still be right.  With reordering
   disabled the same build must not reorder at all. *)
let test_auto_reorder_trigger () =
  let n = 13 in
  let build_with setup =
    let m = Bdd.create ~nvars:(2 * n) () in
    setup m;
    let f = interleaved_pairs m n in
    (m, f)
  in
  let m, f = build_with (fun m -> Bdd.set_reorder m Bdd.Reorder_sift) in
  Alcotest.(check bool) "mode readable" true
    (Bdd.reorder_mode m = Bdd.Reorder_sift);
  let s = Bdd.stats m in
  Alcotest.(check bool) "a pass fired" true (s.Bdd.reorders >= 1);
  (* spot-check semantics on a deterministic sample of assignments *)
  let lcg = ref 12345 in
  for _ = 1 to 500 do
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
    let mask = !lcg in
    let assign v = mask land (1 lsl v) <> 0 in
    if Bdd.eval m f assign <> eval_pairs n assign then
      Alcotest.failf "auto-reorder changed semantics at mask %d" mask
  done;
  let mn, _ = build_with (fun m -> Bdd.disable_reorder m) in
  Alcotest.(check int) "disabled means no passes" 0 (Bdd.stats mn).Bdd.reorders

(* A transition budget must bound sifting itself: swaps allocate nodes
   and the saved guard is charged per allocation, so a tiny budget
   trips mid-pass with the manager left consistent. *)
let test_sift_guard_budget () =
  let n = 6 in
  let m = Bdd.create ~nvars:(2 * n) () in
  let f = interleaved_pairs m n in
  let g = Guard.create ~max_transitions:5 () in
  Bdd.set_guard m g;
  (match Bdd.sift m with
  | () -> Alcotest.fail "a 5-transition budget cannot fund a sift pass"
  | exception Guard.Exhausted Guard.Transition_limit -> ());
  (* fail-soft: detach the guard and the manager is fully usable *)
  Bdd.set_guard m Guard.none;
  for mask = 0 to (1 lsl (2 * n)) - 1 do
    let assign v = mask land (1 lsl v) <> 0 in
    if Bdd.eval m f assign <> eval_pairs n assign then
      Alcotest.failf "aborted sift corrupted the manager at mask %d" mask
  done;
  Alcotest.(check bool) "canonicity intact" true
    (Bdd.equal (interleaved_pairs m n) f)

(* Adaptive sizing: small managers get small tables; an explicit cache
   size is honoured. *)
let test_adaptive_sizes () =
  let small = Bdd.stats (Bdd.create ~nvars:8 ()) in
  let large = Bdd.stats (Bdd.create ~nvars:400 ()) in
  Alcotest.(check bool) "small tables for small managers" true
    (small.Bdd.unique_buckets_init < large.Bdd.unique_buckets_init);
  Alcotest.(check bool) "small cache too" true
    (small.Bdd.cache_slots < large.Bdd.cache_slots);
  let explicit = Bdd.stats (Bdd.create ~cache_size:4096 ~nvars:8 ()) in
  Alcotest.(check int) "explicit cache size honoured" 4096
    explicit.Bdd.cache_slots

(* The op cache doubles with each unique-table doubling, up to 2^15
   entries.  ([test_stats] replays a chain whose first build doubled
   the table: every entry survives the doubling.) *)
let test_cache_grows_with_store () =
  let m = Bdd.create ~nvars:n_alloc_vars () in
  let s0 = Bdd.stats m in
  ignore (alloc_formula m);
  let s1 = Bdd.stats m in
  let doublings = s1.Bdd.unique_buckets / s0.Bdd.unique_buckets_init in
  Alcotest.(check bool) "the unique table doubled" true (doublings > 1);
  Alcotest.(check int) "the op cache doubled with it"
    (min (1 lsl 15) (s0.Bdd.cache_slots * doublings))
    s1.Bdd.cache_slots;
  let capped = Bdd.create ~nvars:n_alloc_vars ~cache_size:(1 lsl 15) () in
  ignore (alloc_formula capped);
  Alcotest.(check int) "never past 2^15 entries" (1 lsl 15)
    (Bdd.stats capped).Bdd.cache_slots

let prop_sift_preserves_semantics =
  QCheck.Test.make ~name:"sift preserves semantics and canonicity" ~count:100
    deep_expr_arb (fun e ->
      let m = Bdd.create ~nvars:n_deep_vars () in
      let f = build m e in
      Bdd.sift m;
      let ok = ref (Bdd.equal (build m e) f) in
      for mask = 0 to (1 lsl n_deep_vars) - 1 do
        let assign v = mask land (1 lsl v) <> 0 in
        if Bdd.eval m f assign <> eval_expr assign e then ok := false
      done;
      !ok)

(* --- garbage collection ---------------------------------------------------- *)

(* A collection keeps exactly what its roots reach: survivors keep
   their handles and functions, the freed slots are reused before the
   store grows, and a dead root is refused. *)
let test_collect () =
  let n = 6 in
  let m = Bdd.create ~nvars:(2 * n) () in
  let keep = Bdd.xor_ m (Bdd.var m 0) (Bdd.var m 1) in
  (* built, then dropped: no root reaches it *)
  ignore (interleaved_pairs m n : Bdd.t);
  let before = Bdd.stats m in
  let allocated = Bdd.node_count m in
  Bdd.collect m [ keep ];
  let after = Bdd.stats m in
  Alcotest.(check int) "one collection" 1 after.Bdd.collections;
  Alcotest.(check bool) "live < peak after a collection" true
    (after.Bdd.live_nodes < after.Bdd.peak_nodes);
  Alcotest.(check int) "peak unchanged" before.Bdd.peak_nodes
    after.Bdd.peak_nodes;
  Alcotest.(check int) "survivor and terminals" (2 + Bdd.size m keep)
    after.Bdd.live_nodes;
  Alcotest.(check bool) "survivor handle canonical" true
    (Bdd.equal keep (Bdd.xor_ m (Bdd.var m 1) (Bdd.var m 0)));
  (* rebuilding the dropped function refills freed slots only *)
  let rebuilt = interleaved_pairs m n in
  for mask = 0 to (1 lsl (2 * n)) - 1 do
    let assign v = mask land (1 lsl v) <> 0 in
    if Bdd.eval m rebuilt assign <> eval_pairs n assign then
      Alcotest.failf "rebuilt function wrong at mask %d" mask
  done;
  Alcotest.(check int) "no store growth" before.Bdd.peak_nodes
    (Bdd.stats m).Bdd.peak_nodes;
  Alcotest.(check bool) "allocations keep counting" true
    (Bdd.node_count m > allocated);
  Alcotest.(check bool) "collect_due below 2^16 nodes" false
    (Bdd.collect_due m);
  Bdd.collect m [ keep ];
  Alcotest.(check bool) "dead root refused" true
    (try Bdd.collect m [ rebuilt ]; false with Invalid_argument _ -> true)

(* Random programs over a pool of handles, each paired with its truth
   table over [n_gc_vars] variables.  [Collect] keeps a random subset
   of the pool as roots and drops the rest from the pool; so does a
   rooted [Sift], while an unrooted one keeps the whole pool. *)
let n_gc_vars = 5

type gc_op =
  | Gc_bin of int * int * int  (* and / or / xor of two pool entries *)
  | Gc_ite of int * int * int
  | Gc_flip of int * int * int  (* var, two pool entries *)
  | Gc_quant of bool * int * int  (* exists?, var, pool entry *)
  | Gc_sift of bool list option  (* roots' keep flags, or unrooted *)
  | Gc_collect of bool list  (* keep flags, cycled over the pool *)

let gc_op_gen ~sift =
  let open QCheck.Gen in
  let idx = int_bound 1000 in
  let keep_flags = list_size (int_range 1 8) bool in
  frequency
    ([
       (6, map3 (fun o a b -> Gc_bin (o, a, b)) (int_bound 2) idx idx);
       (2, map3 (fun f g h -> Gc_ite (f, g, h)) idx idx idx);
       (2, map3 (fun v a b -> Gc_flip (v, a, b)) (int_bound (n_gc_vars - 1)) idx idx);
       (2, map3 (fun e v a -> Gc_quant (e, v, a)) bool (int_bound (n_gc_vars - 1)) idx);
       (2, map (fun keep -> Gc_collect keep) keep_flags);
     ]
    @ if sift then [ (1, map (fun roots -> Gc_sift roots) (option keep_flags)) ]
      else [])

let flags_print keep =
  "[" ^ String.concat "" (List.map (fun b -> if b then "1" else "0") keep) ^ "]"

let gc_op_print = function
  | Gc_bin (o, a, b) -> Printf.sprintf "bin%d(%d,%d)" o a b
  | Gc_ite (f, g, h) -> Printf.sprintf "ite(%d,%d,%d)" f g h
  | Gc_flip (v, a, b) -> Printf.sprintf "flip%d(%d,%d)" v a b
  | Gc_quant (e, v, a) -> Printf.sprintf "%s%d(%d)" (if e then "ex" else "all") v a
  | Gc_sift None -> "sift"
  | Gc_sift (Some keep) -> "sift" ^ flags_print keep
  | Gc_collect keep -> "collect" ^ flags_print keep

let gc_prog_arb ~sift =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 40) (gc_op_gen ~sift))
    ~print:(fun ops -> String.concat " " (List.map gc_op_print ops))

let n_gc_rows = 1 lsl n_gc_vars
let tt_of f = Array.init n_gc_rows (fun row -> f (fun v -> row land (1 lsl v) <> 0))

(* Shannon expansion of a truth table: the function rebuilt from
   scratch, never from an existing handle. *)
let of_tt m tt =
  let rec go v row =
    if v < 0 then if tt.(row) then Bdd.one m else Bdd.zero m
    else
      Bdd.ite m (Bdd.var m v) (go (v - 1) (row lor (1 lsl v))) (go (v - 1) row)
  in
  go (n_gc_vars - 1) 0

let survivors_intact m pool =
  List.for_all
    (fun (f, tt) ->
      tt_of (Bdd.eval m f) = tt && Bdd.equal (of_tt m tt) f)
    pool

(* Internal nodes reachable from any of [roots], shared ones once. *)
let shared_size m roots =
  let seen = Hashtbl.create 64 in
  let rec go t =
    if (not (Bdd.is_zero t || Bdd.is_one t)) && not (Hashtbl.mem seen t) then begin
      Hashtbl.replace seen t ();
      go (Bdd.low m t);
      go (Bdd.high m t)
    end
  in
  List.iter go roots;
  Hashtbl.length seen

(* Run a program; after every collection and rooted pass each pooled
   handle must still denote its truth table, and rebuilding that table
   from scratch must return the very same handle.  A rooted pass leaves
   exactly the roots' nodes in use; an unrooted one never leaves more
   in use than it found.  Returns whether every check held, and the
   final pool. *)
let exec_gc_prog m ops =
  let var_pool () =
    List.init n_gc_vars (fun v ->
        (Bdd.var m v, tt_of (fun a -> a v)))
  in
  let pool = ref (var_pool ()) in
  let pick i = List.nth !pool (i mod List.length !pool) in
  let push f = pool := !pool @ [ (f, tt_of (Bdd.eval m f)) ] in
  let keep_of keep =
    let flags = Array.of_list keep in
    List.filteri (fun i _ -> flags.(i mod Array.length flags)) !pool
  in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | Gc_bin (o, a, b) ->
        let (fa, _), (fb, _) = (pick a, pick b) in
        push ((match o with 0 -> Bdd.and_ | 1 -> Bdd.or_ | _ -> Bdd.xor_) m fa fb)
      | Gc_ite (f, g, h) ->
        let (ff, _), (fg, _), (fh, _) = (pick f, pick g, pick h) in
        push (Bdd.ite m ff fg fh)
      | Gc_flip (v, a, b) ->
        let (fa, _), (fb, _) = (pick a, pick b) in
        push (Bdd.flip_var m ~var:v fa fb)
      | Gc_quant (e, v, a) ->
        let fa, _ = pick a in
        push ((if e then Bdd.exists else Bdd.forall) m ~vars:[ v ] fa)
      | Gc_sift None ->
        let before = (Bdd.stats m).Bdd.live_nodes in
        Bdd.sift m;
        if (Bdd.stats m).Bdd.live_nodes > before then ok := false
      | Gc_sift (Some keep) ->
        let kept = keep_of keep in
        let roots = List.map fst kept in
        Bdd.sift ~roots m;
        if (Bdd.stats m).Bdd.live_nodes <> shared_size m roots + 2 then
          ok := false;
        if not (survivors_intact m kept) then ok := false;
        pool := if kept = [] then var_pool () else kept
      | Gc_collect keep ->
        let kept = keep_of keep in
        let before = (Bdd.stats m).Bdd.live_nodes in
        Bdd.collect m (List.map fst kept);
        let s = Bdd.stats m in
        if s.Bdd.live_nodes < before && s.Bdd.live_nodes >= s.Bdd.peak_nodes
        then ok := false;
        if not (survivors_intact m kept) then ok := false;
        pool := if kept = [] then var_pool () else kept)
    ops;
  (!ok, !pool)

(* ... and at the end, too. *)
let run_gc_prog m ops =
  let ok, pool = exec_gc_prog m ops in
  ok && survivors_intact m pool

let prop_collect_laws =
  QCheck.Test.make ~name:"collection keeps survivors and canonicity"
    ~count:200 (gc_prog_arb ~sift:false) (fun ops ->
      run_gc_prog (Bdd.create ~nvars:n_gc_vars ()) ops)

let prop_collect_laws_sift =
  QCheck.Test.make ~name:"collection laws with sifting" ~count:100
    (gc_prog_arb ~sift:true) (fun ops ->
      run_gc_prog (Bdd.create ~nvars:n_gc_vars ()) ops)

(* Build a program's functions, then drop them all: every cycle after
   the first refills the freed slots, so the store's high-water mark
   stops moving. *)
let prop_collect_no_growth =
  QCheck.Test.make ~name:"build-and-drop cycles keep the high-water mark"
    ~count:100 (gc_prog_arb ~sift:false) (fun ops ->
      let m = Bdd.create ~nvars:n_gc_vars () in
      let ops = List.filter (function Gc_collect _ -> false | _ -> true) ops in
      let cycle () =
        ignore (run_gc_prog m ops);
        Bdd.collect m [];
        (Bdd.stats m).Bdd.peak_nodes
      in
      let first = cycle () in
      List.for_all (fun _ -> cycle () = first) [ 1; 2; 3 ])

(* --- frozen functions -------------------------------------------------------- *)

(* A program's pool, frozen and thawed into a fresh manager: every root
   keeps its truth table and size, the fresh store holds exactly the
   roots' nodes, and thawing again (into it, or into the manager the
   roots came from) hands back the same handles.  A program that sifted
   the order away from the identity has its freeze refused. *)
let identity_order m = Bdd.order m = Array.init (Bdd.nvars m) Fun.id

let prop_freeze_thaw =
  QCheck.Test.make ~name:"thaw (freeze roots) keeps functions and sizes"
    ~count:200 (gc_prog_arb ~sift:true) (fun ops ->
      let m = Bdd.create ~nvars:n_gc_vars () in
      let ok, pool = exec_gc_prog m ops in
      let roots = List.map fst pool in
      if not (identity_order m) then
        ok
        && match Bdd.freeze m roots with
           | _ -> false
           | exception Invalid_argument _ -> true
      else
        let f = Bdd.freeze m roots in
        let m' = Bdd.create ~nvars:n_gc_vars () in
        let thawed = Bdd.thaw m' f in
        ok
        && List.for_all2
             (fun (r, tt) r' ->
               tt_of (Bdd.eval m' r') = tt && Bdd.size m' r' = Bdd.size m r)
             pool thawed
        && (Bdd.stats m').Bdd.live_nodes = shared_size m' thawed + 2
        && List.equal Bdd.equal (Bdd.thaw m' f) thawed
        && List.equal Bdd.equal (Bdd.thaw m f) roots)

(* A sifted order is refused at both ends; the identity order of a
   fresh manager is not. *)
let test_freeze_refuses_sifted_order () =
  let n = 6 in
  let m = Bdd.create ~nvars:(2 * n) () in
  let f = interleaved_pairs m n in
  let frozen = Bdd.freeze m [ f ] in
  Bdd.sift ~roots:[ f ] m;
  Alcotest.(check bool) "the pass moved the order" false (identity_order m);
  Alcotest.(check bool) "freeze refused" true
    (try ignore (Bdd.freeze m [ f ]); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "thaw refused" true
    (try ignore (Bdd.thaw m frozen); false with Invalid_argument _ -> true);
  let m' = Bdd.create ~nvars:(2 * n) () in
  match Bdd.thaw m' frozen with
  | [ f' ] ->
    Alcotest.(check bool) "the pairs function thaws" true
      (Bdd.equal f' (interleaved_pairs m' n))
  | _ -> Alcotest.fail "one root in, one handle out"

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bdd_matches_semantics;
      prop_satcount_matches;
      prop_exists_matches;
      prop_canonical_equal;
      prop_de_morgan;
      prop_ite_decomposition;
      prop_forall_matches;
      prop_deep_bdd_matches_semantics;
      prop_flip_var_matches;
      prop_flip_fused_after_sift;
      prop_flip_fused_small;
      prop_sift_preserves_semantics;
      prop_collect_laws;
      prop_collect_laws_sift;
      prop_collect_no_growth;
      prop_freeze_thaw;
    ]

let suites =
  [
    ( "bdd",
      [
        Alcotest.test_case "terminals" `Quick test_terminals;
        Alcotest.test_case "canonicity" `Quick test_canonicity;
        Alcotest.test_case "eval" `Quick test_eval;
        Alcotest.test_case "cofactor/compose" `Quick test_cofactor_compose;
        Alcotest.test_case "quantify" `Quick test_quantify;
        Alcotest.test_case "and_exists" `Quick test_and_exists;
        Alcotest.test_case "permute" `Quick test_permute;
        Alcotest.test_case "sat" `Quick test_sat;
        Alcotest.test_case "support/size" `Quick test_support_size;
        Alcotest.test_case "sat_count exact" `Quick test_sat_count_exact;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "guard in hot path" `Quick test_guard_in_hot_path;
        Alcotest.test_case "hot path allocates nothing" `Quick
          test_hot_path_allocation_free;
        Alcotest.test_case "quantify a terminal, no alloc" `Quick
          test_quantify_terminal_allocation_free;
        Alcotest.test_case "add_var" `Quick test_add_var;
        Alcotest.test_case "accessors" `Quick test_accessors;
        Alcotest.test_case "clear caches" `Quick test_clear_caches_preserves;
        Alcotest.test_case "flip_var" `Quick test_flip_var;
        Alcotest.test_case "swap adjacent" `Quick test_swap_adjacent;
        Alcotest.test_case "sift explicit" `Quick test_sift_explicit;
        Alcotest.test_case "auto reorder trigger" `Slow test_auto_reorder_trigger;
        Alcotest.test_case "sift under budget" `Quick test_sift_guard_budget;
        Alcotest.test_case "adaptive sizes" `Quick test_adaptive_sizes;
        Alcotest.test_case "op cache grows with the store" `Quick
          test_cache_grows_with_store;
        Alcotest.test_case "collect" `Quick test_collect;
        Alcotest.test_case "freeze refuses a sifted order" `Quick
          test_freeze_refuses_sifted_order;
      ]
      @ qcheck_cases );
  ]
