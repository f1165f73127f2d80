(* The one-shot workloads, [tables] and [symbolic]: each netlist goes
   through the path [satg atpg] takes, [Parser.parse_string] ->
   [Session.run] -> [Session.render].  The traced pass calls the
   layers' public entry points in [Engine.run]'s order instead, with a
   span around each call, and must reproduce the same outcomes. *)

open Satg_circuit
open Satg_fault
open Satg_sg
open Satg_stg
open Satg_core
module Guard = Satg_guard.Guard
module Bdd = Satg_bdd.Bdd
module Sat = Satg_sat.Sat
module Suite = Satg_bench.Suite

type spec = {
  label : string;
  synth : unit -> Circuit.t;  (** or read: the set-up step *)
  config : seed:int -> Engine.config;
}

type netlist = { n_label : string; text : string; n_config : Engine.config }

let ok_or_fail label = function
  | Ok v -> v
  | Error m -> failwith (label ^ ": " ^ m)

(* -u both, -j unset, caps only from --max-states/--max-transitions. *)
let explicit ~seed =
  let c = Engine.default_config in
  { c with Engine.random = { c.Engine.random with Random_tpg.seed } }

let bdd reorder ~seed = { (explicit ~seed) with Engine.engine = Engine.Bdd; reorder }

let ci_caps ~seed =
  { (bdd Bdd.Reorder_sift ~seed) with
    Engine.max_states = Some 500; max_transitions = Some 200_000 }

(* Table 1 (speed-independent complex gates) and Table 2 (bounded-delay
   redundant covers) for every suite STG. *)
let tables_specs () =
  List.concat_map
    (fun (e : Suite.entry) ->
      [
        { label = e.Suite.name ^ "/si";
          synth = (fun () -> ok_or_fail e.Suite.name (Suite.speed_independent e));
          config = explicit };
        { label = e.Suite.name ^ "/bd";
          synth = (fun () -> ok_or_fail e.Suite.name (Suite.bounded_delay e));
          config = explicit };
      ])
    (Suite.all ())

let family name n style =
  let label = Printf.sprintf "%s%d/%s" name n
      (match style with `Decomposed -> "decomposed" | `Redundant -> "redundant")
  in
  { label;
    synth = (fun () ->
      let e = ok_or_fail label (Suite.generate name ~n) in
      ok_or_fail label
        (Synth.decomposed ~redundant:(style = `Redundant) e.Suite.stg));
    config = bdd Bdd.Reorder_none }

let read_netlist path () =
  let ic = open_in_bin path in
  let text =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  in
  ok_or_fail path (Parser.parse_string text)

(* Sifting runs only on the capped pair: uncapped, it goes past 3 GB
   inside Symbolic.build on four of the other netlists (BENCHMARK.json
   notes), where --reorder none peaks near 150 MB. *)
let symbolic_specs () =
  let vbe10b =
    match Suite.find "vbe10b" with
    | Some e -> e
    | None -> failwith "vbe10b missing from the suite"
  in
  [
    family "pipeline" 3 `Decomposed;
    family "arbiter" 3 `Decomposed;
    family "latch" 2 `Redundant;
    { label = "vbe10b/bd";
      synth = (fun () -> ok_or_fail "vbe10b" (Suite.bounded_delay vbe10b));
      config = bdd Bdd.Reorder_none };
    { label = "ring_storm";
      synth = read_netlist "examples/netlists/ring_storm.cct";
      config = ci_caps };
    { label = "toggle_farm";
      synth = read_netlist "examples/netlists/toggle_farm.cct";
      config = ci_caps };
  ]

let setup specs ~seed =
  Trace.span "stg.synth" @@ fun () ->
  List.map
    (fun s ->
      { n_label = s.label; text = Parser.to_string (s.synth ()); n_config = s.config ~seed })
    specs

(* --- one pass -------------------------------------------------------------- *)

type run = {
  r_label : string;
  circuit : Circuit.t;
  config : Engine.config;
  result : Engine.result;
}

let render c summary =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Session.render ~verbose:true fmt c summary;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let parse_text text = ok_or_fail "netlist" (Parser.parse_string text)

let untraced_pass netlists =
  List.map
    (fun n ->
      let c = parse_text n.text in
      let result = Session.run ~config:n.n_config c Session.Both in
      ignore (render c (Session.summary_of_result result));
      { r_label = n.n_label; circuit = c; config = n.n_config; result })
    netlists

(* --- the traced pass: Engine.run's sequential path, layer by layer ---------- *)

(* Counters gathered at the same boundaries as the spans. *)
type counts = {
  mutable states : int;
  mutable edges : int;
  mutable truncated : int;
  mutable random_targets : int;
  mutable random_caught : int;
  mutable searched : int;
  mutable found : int;
  mutable undetected : int;
  mutable exhausted : int;
  mutable sweep_caught : int;
  mutable bdd : Bdd.stats list;
  mutable sat : Sat.stats;
}

let zero_counts () =
  { states = 0; edges = 0; truncated = 0; random_targets = 0; random_caught = 0;
    searched = 0; found = 0; undetected = 0; exhausted = 0; sweep_caught = 0;
    bdd = []; sat = Sat.zero_stats }

(* Engine.run's retry envelope for a fault that exhausted its budget. *)
let reduced_effort c =
  { Three_phase.max_depth = max 4 (c.Three_phase.max_depth / 2);
    max_product_states = max 64 (c.Three_phase.max_product_states / 2);
    max_activation_tries = max 2 (c.Three_phase.max_activation_tries / 2) }

let traced_run ?(universe = Session.Both) counts (config : Engine.config) c =
  let faults = Session.faults_of c universe in
  let targets =
    if config.Engine.collapse then
      Trace.span "fault.collapse" (fun () -> Fault.collapse c faults)
    else faults
  in
  let run_guard =
    Guard.create ?max_states:config.Engine.max_states
      ?max_transitions:config.Engine.max_transitions ()
  in
  let sub_guard () =
    Guard.sub ?max_states:config.Engine.max_states
      ?max_transitions:config.Engine.max_transitions run_guard
  in
  let g =
    Trace.span "sg.explicit" (fun () -> Explicit.build ?k:config.Engine.k ~guard:run_guard c)
  in
  counts.states <- counts.states + Cssg.n_states g;
  counts.edges <- counts.edges + Cssg.n_edges g;
  if Cssg.truncated g <> None then counts.truncated <- counts.truncated + 1;
  let backend, stats_of_backend =
    match config.Engine.engine with
    | Engine.Explicit -> (None, fun () -> ())
    | Engine.Bdd ->
      let s =
        Trace.span "sg.symbolic" (fun () ->
            Symbolic.build ~k:(Cssg.k g) ~reorder:config.Engine.reorder
              ~cluster_cap:config.Engine.cluster_cap ~guard:(sub_guard ()) c)
      in
      ( Some (Three_phase.symbolic_backend g s),
        fun () -> counts.bdd <- Symbolic.bdd_stats s :: counts.bdd )
    | Engine.Sat ->
      let se = Trace.span "sat.create" (fun () -> Sat_engine.create g) in
      ( Some (Sat_engine.backend se),
        fun () -> counts.sat <- Sat.add_stats counts.sat (Sat_engine.stats se) )
  in
  let status = Hashtbl.create (List.length targets) in
  let remaining =
    if not config.Engine.enable_random then targets
    else begin
      counts.random_targets <- counts.random_targets + List.length targets;
      match
        Trace.span "core.random" (fun () ->
            Guard.guarded (sub_guard ()) (fun () ->
                Random_tpg.run ~config:config.Engine.random g ~faults:targets))
      with
      | Ok (detected, remaining) ->
        counts.random_caught <- counts.random_caught + List.length detected;
        List.iter
          (fun (f, seq) ->
            Hashtbl.replace status f
              (Testset.Detected { sequence = seq; phase = Testset.Random }))
          detected;
        remaining
      | Error _ -> targets
    end
  in
  let attempt tp backend f =
    match Three_phase.find_test ~config:tp ~guard:(sub_guard ()) ?backend g f with
    | Some seq -> `Found seq
    | None -> `Not_found
    | exception Guard.Exhausted r -> `Exhausted r
  in
  let find f =
    match attempt config.Engine.three_phase backend f with
    | `Exhausted ((Guard.Timeout | Guard.Interrupt) as r) -> `Aborted r
    | `Exhausted _ -> (
      counts.exhausted <- counts.exhausted + 1;
      match attempt (reduced_effort config.Engine.three_phase) None f with
      | `Exhausted r -> `Aborted r
      | (`Found _ | `Not_found) as x -> x)
    | (`Found _ | `Not_found) as x -> x
  in
  let rec search = function
    | [] -> ()
    | f :: rest when Hashtbl.mem status f -> search rest
    | f :: rest ->
      counts.searched <- counts.searched + 1;
      let t0 = Unix.gettimeofday () in
      let r = find f in
      (* search time of faults that end undetected, apart *)
      let name =
        match r with `Not_found -> "core.search_undetected" | _ -> "core.search"
      in
      Trace.record name t0 (Unix.gettimeofday ());
      let rest =
        match r with
        | `Aborted reason ->
          Hashtbl.replace status f (Testset.Aborted reason);
          rest
        | `Not_found ->
          counts.undetected <- counts.undetected + 1;
          Hashtbl.replace status f Testset.Undetected;
          rest
        | `Found seq ->
          counts.found <- counts.found + 1;
          Hashtbl.replace status f
            (Testset.Detected { sequence = seq; phase = Testset.Three_phase });
          if not config.Engine.enable_fault_sim then rest
          else begin
            let caught, pending =
              Trace.span "core.sweep" (fun () -> Detect.sweep g seq rest)
            in
            counts.sweep_caught <- counts.sweep_caught + List.length caught;
            List.iter
              (fun f' ->
                Hashtbl.replace status f'
                  (Testset.Detected
                     { sequence = seq; phase = Testset.Fault_simulation }))
              caught;
            pending
          end
      in
      search rest
  in
  search remaining;
  stats_of_backend ();
  let by_class = Hashtbl.create (List.length targets) in
  if config.Engine.collapse then
    List.iter
      (fun t ->
        Option.iter
          (fun s -> Hashtbl.replace by_class (Fault.representative c t) s)
          (Hashtbl.find_opt status t))
      targets;
  let outcomes =
    List.map
      (fun f ->
        let st =
          match Hashtbl.find_opt status f with
          | Some s -> Some s
          | None when config.Engine.collapse ->
            Hashtbl.find_opt by_class (Fault.representative c f)
          | None -> None
        in
        { Testset.fault = f; status = Option.value st ~default:Testset.Undetected })
      faults
  in
  { Engine.circuit = c; cssg = g; outcomes; cpu_seconds = 0.;
    faults_searched = List.length targets; bdd_stats = None; sat_stats = None;
    cnf_defs = None }

let traced_pass counts netlists =
  List.map
    (fun n ->
      Trace.group "netlist" @@ fun () ->
      let c = Trace.span "circuit.parse" (fun () -> parse_text n.text) in
      let result = traced_run counts n.n_config c in
      Trace.span "core.render" (fun () -> ignore (render c (Session.summary_of_result result)));
      { r_label = n.n_label; circuit = c; config = n.n_config; result })
    netlists

(* --- outcomes, replay and gates -------------------------------------------- *)

let status_char = function
  | Testset.Detected _ -> 'D'
  | Testset.Undetected -> 'U'
  | Testset.Aborted _ -> 'A'

let partition (r : Engine.result) =
  String.of_seq
    (List.to_seq (List.map (fun o -> status_char o.Testset.status) r.Engine.outcomes))

let partitions runs = List.map (fun r -> (r.r_label, partition r.result)) runs

(* Vectors in the distinct detecting sequences of one answer, each
   sequence counted once. *)
let test_vectors outcomes =
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun acc status ->
      match status with
      | Testset.Detected { sequence; _ } when not (Hashtbl.mem seen sequence) ->
        Hashtbl.replace seen sequence ();
        acc + List.length sequence
      | Testset.Detected _ | Testset.Undetected | Testset.Aborted _ -> acc)
    0 outcomes

(* Replay one reported detection with the scalar checker of the phase
   that claimed it. *)
let replays g f = function
  | Testset.Detected { sequence; phase = Testset.Three_phase } ->
    Detect.check_exact g f sequence
  | Testset.Detected { sequence; phase = Testset.Random | Testset.Fault_simulation } ->
    Detect.check g f sequence
  | Testset.Undetected | Testset.Aborted _ -> true

type tally = {
  given : int;
  detected : int;
  vectors : int;
  failed : string list;  (** aborted or not replaying, named *)
}

let tally runs =
  List.fold_left
    (fun t r ->
      let res = r.result in
      let failed =
        List.filter_map
          (fun o ->
            let f = o.Testset.fault and st = o.Testset.status in
            let why =
              match st with
              | Testset.Aborted _ -> Some "aborted"
              | _ when not (replays res.Engine.cssg f st) -> Some "does not replay"
              | _ -> None
            in
            Option.map
              (fun why ->
                Printf.sprintf "%s %s: %s" r.r_label (Fault.to_string r.circuit f) why)
              why)
          res.Engine.outcomes
      in
      { given = t.given + Engine.total res;
        detected = t.detected + Engine.detected res;
        vectors =
          t.vectors + test_vectors (List.map (fun o -> o.Testset.status) res.Engine.outcomes);
        failed = t.failed @ failed })
    { given = 0; detected = 0; vectors = 0; failed = [] }
    runs

(* Table 1: speed-independent complex-gate netlists reach 100% output
   stuck-at coverage (the paper's "well known theoretical result"). *)
let si_output_coverage runs =
  List.concat_map
    (fun r ->
      if not (String.ends_with ~suffix:"/si" r.r_label) then []
      else
        List.filter_map
          (fun o ->
            match (o.Testset.fault, o.Testset.status) with
            | Fault.Output_sa _, (Testset.Undetected | Testset.Aborted _) ->
              Some
                (Printf.sprintf "%s: output fault %s undetected" r.r_label
                   (Fault.to_string r.circuit o.Testset.fault))
            | _ -> None)
          r.result.Engine.outcomes)
    runs

(* The BDD engine's partition equals the explicit and SAT engines' on
   the same graph (Engine.run's prebuilt-CSSG hook: the run guard is
   spent only on construction, so reuse does not change outcomes). *)
let cross_engine runs =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun (name, engine) ->
          let other =
            Session.run ~cssg:r.result.Engine.cssg
              ~config:{ r.config with Engine.engine } r.circuit Session.Both
          in
          if partition other = partition r.result then None
          else Some (Printf.sprintf "%s: bdd and %s partitions differ" r.r_label name))
        [ ("explicit", Engine.Explicit); ("sat", Engine.Sat) ])
    runs

let count_values c =
  let bdd f = float_of_int (List.fold_left (fun a s -> a + f s) 0 c.bdd) in
  let lookups = bdd Bdd.apply_ops in
  let hits =
    List.fold_left
      (fun a s -> a +. (Bdd.cache_hit_rate s *. float_of_int (Bdd.apply_ops s)))
      0. c.bdd
  in
  let i = float_of_int in
  [
    ("sg.states", i c.states); ("sg.edges", i c.edges); ("sg.truncated", i c.truncated);
    ("bdd.apply_ops", lookups);
    ("bdd.cache_hit_rate", if lookups > 0. then hits /. lookups else 0.);
    ("bdd.peak_nodes",
     i (List.fold_left (fun a s -> max a s.Bdd.peak_nodes) 0 c.bdd));
    ("bdd.reorders", bdd (fun s -> s.Bdd.reorders));
    ("bdd.swaps", bdd (fun s -> s.Bdd.swaps));
    ("core.random_targets", i c.random_targets);
    ("core.random_caught", i c.random_caught);
    ("core.searched", i c.searched); ("core.found", i c.found);
    ("core.undetected", i c.undetected); ("core.exhausted", i c.exhausted);
    ("core.sweep_caught", i c.sweep_caught);
    ("sat.solves", i c.sat.Sat.solves); ("sat.decisions", i c.sat.Sat.decisions);
    ("sat.propagations", i c.sat.Sat.propagations);
    ("sat.conflicts", i c.sat.Sat.conflicts);
  ]

(* --- the workload ------------------------------------------------------------- *)

let bench ~specs ~gates ~seed ~seconds ~trace =
  let setup_times = ref [] and untraced = ref [] and traced = ref [] in
  let problems = ref [] and first = ref None and last = ref [] in
  let counts = ref (zero_counts ()) in
  let same_as_first what runs =
    let p = partitions runs in
    match !first with
    | None -> first := Some p
    | Some p0 when p0 = p -> ()
    | Some _ -> problems := (what ^ " pass changed the outcome partition") :: !problems
  in
  Measure.passes ~seconds ~trace (fun ~tracing ->
      if tracing then begin
        (* counts of the last traced pass; they repeat pass to pass *)
        counts := zero_counts ();
        let netlists = setup specs ~seed in
        let dt, runs =
          Measure.time (fun () -> Trace.span "pass" (fun () -> traced_pass !counts netlists))
        in
        traced := dt :: !traced;
        same_as_first "a traced" runs;
        dt
      end
      else begin
        last := [];
        let times, netlists = Measure.sample_setup (fun () -> setup specs ~seed) in
        setup_times := times @ !setup_times;
        let dt, runs = Measure.time (fun () -> untraced_pass netlists) in
        untraced := dt :: !untraced;
        same_as_first "an untraced" runs;
        last := runs;
        dt
      end);
  let rss = Measure.peak_rss_mb () in
  (* outside the timed passes: replay every detection, then the gates *)
  let t = tally !last in
  List.iter prerr_endline t.failed;
  let pass_s = Measure.median !untraced in
  let layers =
    if not trace then []
    else
      Measure.traced_layers ~traced:!traced ~untraced_pass_s:pass_s
      @ count_values !counts
  in
  {
    Measure.attempted = t.given;
    failed = List.length t.failed;
    problems = !problems @ gates !last;
    end_to_end =
      [
        ("setup_s", Measure.median !setup_times);
        ("pass_s", pass_s);
        ("peak_rss_mb", rss);
        ("coverage_pct", 100. *. float_of_int t.detected /. float_of_int t.given);
        ("test_vectors", float_of_int t.vectors);
        ("ok_pct",
         100. *. float_of_int (t.given - List.length t.failed) /. float_of_int t.given);
      ];
    layers;
  }
