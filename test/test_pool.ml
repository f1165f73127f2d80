(* Domain-pool contract tests: deterministic in-order [map] results,
   min-index exception funneling, the jobs=1 inline anchor, pool reuse
   across regions, and the guard family's cross-domain cancel token. *)

open Satg_guard
open Satg_pool

let test_map_order () =
  Pool.with_pool ~jobs:4 (fun p ->
      let input = Array.init 100 (fun i -> i) in
      let out = Pool.map p (fun _wid x -> x * x) input in
      Alcotest.(check (array int))
        "squares in input order"
        (Array.map (fun x -> x * x) input)
        out)

let test_map_worker_ids () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check int) "clamped width" 4 (Pool.jobs p);
      let wids = Pool.map p (fun wid _ -> wid) (Array.make 64 ()) in
      Array.iter
        (fun wid ->
          Alcotest.(check bool) "worker id in range" true (wid >= 0 && wid < 4))
        wids)

let test_exception_min_index () =
  Pool.with_pool ~jobs:4 (fun p ->
      let input = Array.init 50 (fun i -> i) in
      match
        Pool.map p
          (fun _ x -> if x mod 7 = 3 then failwith (string_of_int x) else x)
          input
      with
      | _ -> Alcotest.fail "map should re-raise"
      | exception Failure m ->
        (* items 3, 10, 17, ... all fail; the lowest index wins,
           mirroring where a sequential loop would have stopped *)
        Alcotest.(check string) "lowest failing index" "3" m)

let test_jobs_one_inline () =
  Pool.with_pool ~jobs:1 (fun p ->
      let self = Domain.self () in
      let out =
        Pool.map p
          (fun wid x ->
            Alcotest.(check bool) "runs on the caller" true
              (Domain.self () = self);
            Alcotest.(check int) "as worker 0" 0 wid;
            x + 1)
          (Array.init 10 (fun i -> i))
      in
      Alcotest.(check (array int))
        "results" (Array.init 10 (fun i -> i + 1)) out)

let test_pool_reuse () =
  Pool.with_pool ~jobs:3 (fun p ->
      for round = 1 to 5 do
        let out = Pool.map p (fun _ x -> x * round) (Array.init 20 (fun i -> i)) in
        Alcotest.(check (array int))
          "round results"
          (Array.init 20 (fun i -> i * round))
          out
      done)

let test_map_after_failure () =
  (* a region that raised must not wedge the pool *)
  Pool.with_pool ~jobs:4 (fun p ->
      (try ignore (Pool.map p (fun _ _ -> failwith "boom") (Array.make 8 ()))
       with Failure _ -> ());
      let out = Pool.map p (fun _ x -> x + 1) (Array.init 8 (fun i -> i)) in
      Alcotest.(check (array int))
        "pool still serves" (Array.init 8 (fun i -> i + 1)) out)

let test_with_pool_returns () =
  Alcotest.(check int) "with_pool value" 42 (Pool.with_pool ~jobs:2 (fun _ -> 42));
  (* a caller-owned pool is used as given and left running *)
  Pool.with_pool ~jobs:3 (fun p ->
      Alcotest.(check int) "caller's pool" 3
        (Pool.with_pool ~pool:p ~jobs:1 Pool.jobs);
      Alcotest.(check (array int)) "still serves" [| 1; 2 |]
        (Pool.map p (fun _ x -> x + 1) [| 0; 1 |]))

(* --- the guard family's cross-domain cancel token -------------------------- *)

let test_cancel_poisons_subs () =
  (* a limit-free guard never probes (and so never cancels): the
     family needs a live deadline for the token to matter *)
  let g = Guard.create ~timeout:3600.0 () in
  Guard.cancel g Guard.Timeout;
  let s = Guard.sub g in
  (match Guard.check_time s with
  | () -> Alcotest.fail "sub of a cancelled family must trip"
  | exception Guard.Exhausted Guard.Timeout -> ());
  Alcotest.(check bool) "reason recorded" true
    (Guard.tripped s = Some Guard.Timeout)

let test_cancel_across_domains () =
  (* worker 1 cancels the family; the caller's own sub-guard observes
     the trip after the barrier *)
  let g = Guard.create ~timeout:3600.0 () in
  Pool.with_pool ~jobs:4 (fun p ->
      let _ =
        Pool.map p
          (fun _ i -> if i = 0 then Guard.cancel g Guard.Timeout)
          (Array.init 16 (fun i -> i))
      in
      let s = Guard.sub g in
      match Guard.tick s with
      | () -> Alcotest.fail "cancel must cross the domain boundary"
      | exception Guard.Exhausted Guard.Timeout -> ())

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

let suites =
  [
    ( "pool.map",
      [
        Alcotest.test_case "in-order results" `Quick test_map_order;
        Alcotest.test_case "worker ids in range" `Quick test_map_worker_ids;
        Alcotest.test_case "min-index exception" `Quick test_exception_min_index;
        Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs_one_inline;
        Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
        Alcotest.test_case "map after failure" `Quick test_map_after_failure;
        Alcotest.test_case "with_pool value" `Quick test_with_pool_returns;
      ] );
    ( "pool.guard-cancel",
      [
        Alcotest.test_case "cancel poisons subs" `Quick test_cancel_poisons_subs;
        Alcotest.test_case "cancel crosses domains" `Quick
          test_cancel_across_domains;
        Alcotest.test_case "sub trip stays local" `Quick
          test_sub_trip_stays_local;
      ] );
  ]
