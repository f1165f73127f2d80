open Satg_guard
open Satg_circuit
open Satg_fault
open Satg_sg

type justification_engine = Explicit | Bdd | Sat

type config = {
  k : int option;
  enable_random : bool;
  enable_fault_sim : bool;
  engine : justification_engine;
  collapse : bool;
  timeout : float option;
  max_states : int option;
  max_transitions : int option;
  reorder : Satg_bdd.Bdd.reorder_mode;
  cluster_cap : int;
  random : Random_tpg.config;
  three_phase : Three_phase.config;
}

let default_config =
  {
    k = None;
    enable_random = true;
    enable_fault_sim = true;
    engine = Explicit;
    collapse = true;
    timeout = None;
    max_states = None;
    max_transitions = None;
    reorder = Satg_bdd.Bdd.Reorder_none;
    cluster_cap = Symbolic.default_cluster_cap;
    random = Random_tpg.default_config;
    three_phase = Three_phase.default_config;
  }

(* The retry config for a fault that exhausted its budget: same phases,
   roughly half the search envelope, floors keeping it meaningful. *)
let reduced_effort c =
  {
    Three_phase.max_depth = max 4 (c.Three_phase.max_depth / 2);
    max_product_states = max 64 (c.Three_phase.max_product_states / 2);
    max_activation_tries = max 2 (c.Three_phase.max_activation_tries / 2);
  }

type result = {
  circuit : Circuit.t;
  cssg : Cssg.t;
  outcomes : Testset.outcome list;
  cpu_seconds : float;
  faults_searched : int;
  bdd_stats : Satg_bdd.Bdd.stats option;
  sat_stats : Satg_sat.Sat.stats option;
  cnf_defs : (int * int) option;
}

(* A phase's guard: fresh state/transition counters (so one runaway
   fault cannot starve the others) under the run guard's absolute
   deadline (so --timeout bounds the whole run).  Sub-guards also share
   the run guard's cancel token, so a drain signal that cancels the run
   guard stops the search in progress. *)
let sub_guard config run_guard =
  Guard.sub ?max_states:config.max_states
    ?max_transitions:config.max_transitions run_guard

let build_symbolic ~config ~guard g circuit =
  Symbolic.build ~k:(Cssg.k g) ~reorder:config.reorder
    ~cluster_cap:config.cluster_cap ~guard:(sub_guard config guard) circuit

let run ?(config = default_config) ?cssg ?symbolic ?guard ?settled ?on_outcome
    circuit ~faults =
  let t0 = Sys.time () in
  (* Structural fault collapsing: every phase searches one
     representative per equivalence class; afterwards each given fault
     inherits its representative's outcome, so the reported universe
     stays the caller's.  The expansion assumes that faults with the
     same faulty network function are detected by the same tests.  That
     holds only when their faulty machines also power up in the same
     state: a pin fault whose gate resets away from the stuck value
     starts where the output fault cannot (ROADMAP item 2). *)
  let targets =
    if config.collapse then Fault.collapse circuit faults else faults
  in
  let run_guard =
    match guard with
    | Some g -> g
    | None ->
      Guard.create ?timeout:config.timeout ?max_states:config.max_states
        ?max_transitions:config.max_transitions ()
  in
  (* every phase below draws on its own [sub_guard] *)
  let sub_guard () = sub_guard config run_guard in
  let g =
    match cssg with
    | Some g -> g
    | None -> Explicit.build ?k:config.k ~guard:run_guard circuit
  in
  let symbolic =
    match (config.engine, symbolic) with
    | Bdd, Some s -> Some s
    | Bdd, None -> Some (build_symbolic ~config ~guard:run_guard g circuit)
    | (Explicit | Sat), _ -> None
  in
  (* The deterministic-phase backend.  The SAT engine is made on the
     first search, so a run whose faults all fall to random TPG reports
     no solver instance. *)
  let sat = ref None in
  let backend () =
    match config.engine with
    | Explicit -> None
    | Bdd -> Option.map (Three_phase.symbolic_backend g) symbolic
    | Sat ->
      let se =
        match !sat with
        | Some se -> se
        | None ->
          let se = Sat_engine.create g in
          sat := Some se;
          se
      in
      Some (Sat_engine.backend se)
  in
  let status = Hashtbl.create (List.length targets) in
  (* Durable sessions: [settled] pre-loads journal-replayed outcomes
     (no [on_outcome] echo — they are already on disk); [record] is the
     single choke point through which every freshly computed outcome
     lands, so the journal receives outcomes exactly in commit order —
     the invariant that makes a journal prefix equal a prefix of the
     uninterrupted run. *)
  (match settled with
  | None -> ()
  | Some settled ->
    List.iter
      (fun f ->
        match settled f with
        | Some st -> Hashtbl.replace status f st
        | None -> ())
      targets);
  let record f st =
    Hashtbl.replace status f st;
    match on_outcome with Some k -> k f st | None -> ()
  in
  let open_targets =
    List.filter (fun f -> not (Hashtbl.mem status f)) targets
  in
  (* Phase 1: random TPG.  Each walk fault-simulates the whole
     remaining list in one multi-word bit-parallel pack, dropping
     machines as they are detected.  Runs even over a truncated graph
     (its edges are all genuine); skipped only if the deadline is
     already gone.  A fault's detection by walk [w] is a property of
     (graph, walk) alone — lane dropping never changes which walks
     catch a surviving fault — so running over [open_targets] instead
     of the full list yields the same per-fault statuses a fresh run
     would: resume stays bit-identical. *)
  let remaining =
    if config.enable_random then
      match
        Guard.guarded (sub_guard ()) (fun () ->
            Random_tpg.run ~config:config.random g ~faults:open_targets)
      with
      | Ok (detected, remaining) ->
        List.iter
          (fun (f, seq) ->
            record f
              (Testset.Detected { sequence = seq; phase = Testset.Random }))
          detected;
        remaining
      | Error _ -> open_targets
    else open_targets
  in
  (* Phase 2: three-phase ATPG per fault, with fault simulation of each
     found test over the faults still pending (one pack per test, all
     pending faults at once).  Each fault searches
     under its own sub-guard; exhaustion aborts that fault only, after
     one retry at reduced effort (explicit justification, smaller
     search envelope).  A blown deadline is global, so it skips the
     retry. *)
  let attempt tp_config backend f =
    match
      Three_phase.find_test ~config:tp_config ~guard:(sub_guard ()) ?backend g
        f
    with
    | Some seq -> `Found seq
    | None -> `Not_found
    | exception Guard.Exhausted r -> `Exhausted r
  in
  let find backend f =
    match attempt config.three_phase backend f with
    | `Exhausted ((Guard.Timeout | Guard.Interrupt) as r) -> `Aborted r
    | `Exhausted _ -> (
      (* the retry always runs the explicit algorithms: smaller search
         envelope, no chance of a second backend blowup *)
      match attempt (reduced_effort config.three_phase) None f with
      | `Exhausted r -> `Aborted r
      | (`Found _ | `Not_found) as x -> x)
    | (`Found _ | `Not_found) as x -> x
  in
  (* One fault at a time: search the first pending fault, then commit
     its result.  A found test fault-simulates the faults still pending,
     and the ones it catches leave the list.  A fault listed twice is
     searched once. *)
  let rec search = function
    | [] -> ()
    | f :: rest when Hashtbl.mem status f -> search rest
    | f :: rest ->
      let rest =
        match find (backend ()) f with
        | `Aborted r ->
          record f (Testset.Aborted r);
          rest
        | `Not_found ->
          record f Testset.Undetected;
          rest
        | `Found seq ->
          record f
            (Testset.Detected { sequence = seq; phase = Testset.Three_phase });
          if config.enable_fault_sim then begin
            let caught, pending = Detect.sweep g seq rest in
            List.iter
              (fun f' ->
                record f'
                  (Testset.Detected
                     { sequence = seq; phase = Testset.Fault_simulation }))
              caught;
            pending
          end
          else rest
      in
      search rest
  in
  search remaining;
  let by_class = Hashtbl.create (List.length targets) in
  if config.collapse then
    List.iter
      (fun t ->
        match Hashtbl.find_opt status t with
        | Some s -> Hashtbl.replace by_class (Fault.representative circuit t) s
        | None -> ())
      targets;
  let outcomes =
    List.map
      (fun f ->
        let s =
          match Hashtbl.find_opt status f with
          | Some s -> Some s
          | None when config.collapse ->
            Hashtbl.find_opt by_class (Fault.representative circuit f)
          | None -> None
        in
        { Testset.fault = f; status = Option.value s ~default:Testset.Undetected })
      faults
  in
  {
    circuit;
    cssg = g;
    outcomes;
    cpu_seconds = Sys.time () -. t0;
    faults_searched = List.length targets;
    (* sampled after all phases, so justification traffic is included *)
    bdd_stats = Option.map Symbolic.bdd_stats symbolic;
    sat_stats =
      (match config.engine with
      | Sat ->
        Some
          (match !sat with
          | Some se -> Sat_engine.stats se
          | None -> Satg_sat.Sat.zero_stats)
      | Explicit | Bdd -> None);
    cnf_defs =
      (match config.engine with
      | Sat ->
        Some
          (match !sat with
          | Some se -> Sat_engine.defs_stats se
          | None -> (0, 0))
      | Explicit | Bdd -> None);
  }

(* The counting helpers work over raw outcome lists so that the
   durable-session layer can render the very same summary from a cache
   object, without an [Engine.result] in hand. *)
let count_detected outcomes =
  List.length
    (List.filter (fun o -> Testset.is_detected o.Testset.status) outcomes)

let count_aborted outcomes =
  List.length
    (List.filter (fun o -> Testset.is_aborted o.Testset.status) outcomes)

let count_detected_by outcomes phase =
  List.length
    (List.filter
       (fun o ->
         match o.Testset.status with
         | Testset.Detected { phase = p; _ } -> p = phase
         | Testset.Undetected | Testset.Aborted _ -> false)
       outcomes)

let aborted_of outcomes =
  List.filter_map
    (fun o ->
      match o.Testset.status with
      | Testset.Aborted reason -> Some (o.Testset.fault, reason)
      | Testset.Detected _ | Testset.Undetected -> None)
    outcomes

let total r = List.length r.outcomes
let detected r = count_detected r.outcomes
let aborted r = count_aborted r.outcomes
let detected_by r phase = count_detected_by r.outcomes phase

let coverage_pct r =
  if total r = 0 then 100.0
  else 100.0 *. float_of_int (detected r) /. float_of_int (total r)

let undetected_faults r =
  List.filter_map
    (fun o ->
      match o.Testset.status with
      | Testset.Undetected -> Some o.Testset.fault
      | Testset.Detected _ | Testset.Aborted _ -> None)
    r.outcomes

let aborted_faults r = aborted_of r.outcomes
let truncated r = Cssg.truncated r.cssg
let partial r = truncated r <> None || aborted r > 0

let pp_summary_of ~circuit ~outcomes ~faults_searched ~truncated ~cpu_seconds
    fmt =
  let total = List.length outcomes in
  let detected = count_detected outcomes in
  let coverage =
    if total = 0 then 100.0
    else 100.0 *. float_of_int detected /. float_of_int total
  in
  Format.fprintf fmt
    "%s: %d/%d faults detected (%.2f%%) [rnd %d, 3-ph %d, sim %d] in %.2fs"
    (Circuit.name circuit) detected total coverage
    (count_detected_by outcomes Testset.Random)
    (count_detected_by outcomes Testset.Three_phase)
    (count_detected_by outcomes Testset.Fault_simulation)
    cpu_seconds;
  if faults_searched <> total then
    Format.fprintf fmt
      "@\n  fault universe: %d, searched as %d after structural collapsing"
      total faults_searched;
  (match truncated with
  | Some reason ->
    Format.fprintf fmt "@\n  CSSG truncated (%s): coverage is a lower bound"
      (Guard.reason_to_string reason)
  | None -> ());
  match aborted_of outcomes with
  | [] -> ()
  | fs ->
    Format.fprintf fmt "@\n  aborted (%d): %s" (List.length fs)
      (String.concat ", "
         (List.map
            (fun (f, reason) ->
              Printf.sprintf "%s [%s]"
                (Fault.to_string circuit f)
                (Guard.reason_to_string reason))
            fs))

let pp_summary fmt r =
  pp_summary_of ~circuit:r.circuit ~outcomes:r.outcomes
    ~faults_searched:r.faults_searched ~truncated:(truncated r)
    ~cpu_seconds:r.cpu_seconds fmt
