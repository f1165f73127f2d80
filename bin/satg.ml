(* Command-line front end.

     satg synth   SPEC.g   [--backend complex|decomposed|redundant] [-o OUT]
     satg cssg    FILE.cct [-k N] [--engine explicit|bdd] [--dump]
     satg atpg    FILE.cct [--universe input|output|both] [-k N] [--no-random]
     satg program FILE.cct emit a synchronous tester program
     satg delay   FILE.cct gross gate-delay fault ATPG
     satg dft     FILE.cct recommend + evaluate observation points
     satg dot     FILE     graphviz (netlist .cct, spec .g, or --cssg)
     satg bench   [NAME]   list bundled benchmark STGs / print one
     satg gen     [FAMILY] generate a scalable benchmark-family instance
     satg check   FILE.cct validate a netlist and print structural stats

   The graph/ATPG commands accept --timeout SEC, --max-states N and
   --max-transitions N resource limits.  Exit codes: 0 = complete run,
   2 = run completed but degraded (truncated CSSG and/or aborted
   faults; printed results are lower bounds), 1 = error. *)

open Cmdliner
open Satg_guard
open Satg_circuit
open Satg_fault
open Satg_sg
open Satg_stg
open Satg_core
open Satg_bench
open Satg_inject
open Satg_store

module Proto = Satg_server.Proto

let exit_partial = 2

let or_die = function
  | Ok v -> v
  | Error m ->
    prerr_endline ("error: " ^ m);
    exit 1

(* Every spec and netlist is read here, to end of file rather than by
   length, so a pipe works too.  A pipe can be read only once: a command
   that needs both the text and the circuit parses the text it read. *)
let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> text
  | exception Sys_error m ->
    (* an open error names the file, a read error does not *)
    or_die
      (Error
         (if String.starts_with ~prefix:path m then m
          else Printf.sprintf "%s: %s" path m))

let parse_circuit path text =
  Result.map_error (Printf.sprintf "%s: %s" path) (Parser.parse_string text)

let read_circuit path = parse_circuit path (read_file path)

(* Every command that builds a CSSG refuses up front, as an ordinary
   error, a circuit the explicit builder cannot explore. *)
let explorable path c =
  or_die (Result.map_error (Printf.sprintf "%s: %s" path) (Explicit.check c));
  c

let read_explorable path = explorable path (or_die (read_circuit path))

(* SIGINT/SIGTERM drain the run instead of killing it: the handler
   cancels the run guard with [Interrupt], every in-flight search trips
   at its next probe, the wave merge commits (and journals) what is
   already done, and the normal epilogue prints the partial summary and
   exits 2.  Journaled [Interrupt] aborts are re-searched on resume. *)
let drain_on_signal guard =
  let handle =
    Sys.Signal_handle (fun _ -> Guard.cancel guard Guard.Interrupt)
  in
  try
    Sys.set_signal Sys.sigint handle;
    Sys.set_signal Sys.sigterm handle
  with Invalid_argument _ | Sys_error _ -> ()

(* --- synth ---------------------------------------------------------------- *)

let synth_cmd =
  let spec =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC.g")
  in
  let backend =
    Arg.(
      value
      & opt (enum [ ("complex", `Complex); ("decomposed", `Decomposed);
                    ("redundant", `Redundant) ])
          `Complex
      & info [ "backend"; "b" ] ~doc:"Synthesis backend.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT")
  in
  let run spec backend output =
    let stg = or_die (Stg.parse_string (read_file spec)) in
    let circuit =
      or_die
        (match backend with
        | `Complex -> Synth.complex_gate stg
        | `Decomposed -> Synth.decomposed stg
        | `Redundant -> Synth.decomposed ~redundant:true stg)
    in
    let text = Parser.to_string circuit in
    match output with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s (%s)\n" path
        (Format.asprintf "%a" Circuit.pp_stats circuit)
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Synthesize an STG specification into a netlist.")
    Term.(const run $ spec $ backend $ output)

(* --- cssg ----------------------------------------------------------------- *)

let k_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "k" ] ~docv:"K" ~doc:"Test-cycle budget in gate firings.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget in seconds.  On expiry the run degrades \
           gracefully (truncated state graph, aborted faults) and exits \
           with code 2 instead of failing.")

let max_states_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-states" ] ~docv:"N"
        ~doc:
          "Ceiling on explored states (CSSG construction and per-fault \
           product search).")

let max_transitions_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-transitions" ] ~docv:"N"
        ~doc:"Ceiling on transition expansions, per phase / per fault.")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~env:(Cmd.Env.info "SATG_JOBS")
        ~doc:
          "Run the deterministic fault search on $(docv) worker domains \
           (default 1).  Merging is deterministic: the reported coverage \
           partition is identical for every $(docv).  The BDD engine's \
           deterministic phase searches one fault at a time \
           (single-domain manager).")

let reorder_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("none", Satg_bdd.Bdd.Reorder_none);
             ("sift", Satg_bdd.Bdd.Reorder_sift) ])
        Satg_bdd.Bdd.Reorder_none
    & info [ "reorder" ]
        ~doc:
          "Dynamic BDD variable reordering for $(b,--engine bdd): \
           $(b,none) (default) or $(b,sift) (Rudell sifting, fired \
           automatically when the node store crosses a growth trigger).  \
           Reordering never changes the computed graph or the coverage \
           partition, only the representation size.")

let cluster_cap_arg =
  Arg.(
    value
    & opt int Symbolic.default_cluster_cap
    & info [ "cluster-cap" ] ~docv:"N"
        ~doc:
          "Node cap per chunk of primary-input equalities in the BDD \
           engine's non-confluence check, which runs as an \
           early-quantification schedule over the chunks.  Smaller caps \
           mean more, smaller conjuncts; the computed graph is identical \
           for every value.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print BDD-manager statistics (node counts, unique-table load, \
           per-op cache hit/miss) after the run.  Only $(b,--engine bdd) \
           has a BDD manager to report on.")

let cssg_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cct") in
  let engine =
    Arg.(
      value
      & opt (enum [ ("explicit", `Explicit); ("bdd", `Bdd) ]) `Explicit
      & info [ "engine"; "e" ] ~doc:"State-graph engine.")
  in
  let dump =
    Arg.(value & flag & info [ "dump" ] ~doc:"Print every state and edge.")
  in
  let run file engine dump stats k timeout max_states max_transitions reorder
      cluster_cap =
    let c = read_explorable file in
    let guard = Guard.create ?timeout ?max_states ?max_transitions () in
    let g, bdd_stats =
      match engine with
      | `Explicit -> (Explicit.build ?k ~guard c, None)
      | `Bdd ->
        let sym = Symbolic.build ?k ~reorder ~cluster_cap ~guard c in
        let g = Symbolic.to_cssg sym in
        (* sampled after enumeration so the whole build is covered *)
        (g, Some (Symbolic.bdd_stats sym))
    in
    if dump then Format.printf "%a@." Cssg.pp g
    else Format.printf "%a@." Cssg.pp_stats g;
    (if stats then
       match bdd_stats with
       | Some s -> Format.printf "%a@." Satg_bdd.Bdd.pp_stats s
       | None -> Format.printf "bdd stats: n/a (explicit engine)@.");
    if Cssg.truncated g <> None then exit exit_partial
  in
  Cmd.v
    (Cmd.info "cssg"
       ~doc:"Build the Confluent Stable State Graph of a netlist.")
    Term.(
      const run $ file $ engine $ dump $ stats_arg $ k_arg $ timeout_arg
      $ max_states_arg $ max_transitions_arg $ reorder_arg $ cluster_cap_arg)

(* --- atpg ----------------------------------------------------------------- *)

let universe_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("input", Session.Input); ("output", Session.Output);
             ("both", Session.Both) ])
        Session.Input
    & info [ "universe"; "u" ] ~doc:"Fault universe.")

let no_random_arg =
  Arg.(value & flag & info [ "no-random" ] ~doc:"Skip the random TPG phase.")

let seed_arg =
  Arg.(value & opt int Random_tpg.default_config.Random_tpg.seed
       & info [ "seed" ] ~docv:"N")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every outcome.")

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("explicit", Engine.Explicit); ("bdd", Engine.Bdd);
             ("sat", Engine.Sat) ])
        Engine.Explicit
    & info [ "engine"; "e" ]
        ~doc:
          "Deterministic-phase backend: $(b,explicit) BFS (default), \
           $(b,bdd) symbolic justification, or $(b,sat) CDCL time-frame \
           search.  All three yield identical detected/undetected \
           partitions.")

let no_collapse_arg =
  Arg.(
    value & flag
    & info [ "no-collapse" ]
        ~doc:
          "Target the raw fault universe instead of one representative \
           per structural-equivalence class.")

(* The one-shot run, the daemon and the client all shape the same
   engine configuration from the same flags. *)
let make_config ~k ~no_random ~engine ~no_collapse ~timeout ~max_states
    ~max_transitions ~reorder ~cluster_cap ~seed =
  {
    Engine.default_config with
    k;
    enable_random = not no_random;
    engine;
    collapse = not no_collapse;
    timeout;
    max_states;
    max_transitions;
    reorder;
    cluster_cap;
    random = { Random_tpg.default_config with seed };
  }

let atpg_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cct") in
  let universe = universe_arg in
  let no_random = no_random_arg in
  let seed = seed_arg in
  let verbose = verbose_arg in
  let engine = engine_arg in
  let no_collapse = no_collapse_arg in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~env:(Cmd.Env.info "SATG_CACHE_DIR")
          ~doc:
            "Durable session store.  Outcomes are journaled to \
             $(docv)/sessions as they land (crash-safe, fsync per \
             append) and a settled run is published to $(docv)/objects \
             keyed by (netlist, configuration); an identical later \
             invocation is served from the store with zero fault \
             searches.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay the journal of an interrupted run from \
             $(b,--cache-dir) and search only the fault classes it did \
             not settle.  Output is bit-identical to the uninterrupted \
             run (timing aside).  Requires $(b,--cache-dir).")
  in
  (* Live, cached and daemon-served runs all render through
     [Session.render], so their stdout is diffable byte for byte
     (the recorded cpu time travels with the summary — goldens strip
     timing anyway). *)
  let print_result c verbose stats r =
    Session.render ~verbose Format.std_formatter c
      (Session.summary_of_result r);
    (if stats then
       match (r.Engine.bdd_stats, r.Engine.sat_stats) with
       | Some s, _ -> Format.printf "%a@." Satg_bdd.Bdd.pp_stats s
       | None, Some s ->
         Format.printf "%a@." Satg_sat.Sat.pp_stats s;
         Option.iter
           (fun (defined, interned) ->
             Format.printf "cnf: %d definitions, %d interned@." defined
               interned)
           r.Engine.cnf_defs
       | None, None ->
         Format.printf
           "engine stats: n/a (pass --engine bdd or --engine sat)@.");
    if Engine.partial r then exit exit_partial
  in
  let print_cached c verbose stats (p : Codec.result_payload) =
    Session.render ~verbose Format.std_formatter c p;
    if stats then Format.printf "engine stats: n/a (cached result)@.";
    if Session.degraded p then exit exit_partial
  in
  let run file universe no_random seed verbose engine no_collapse stats k
      jobs timeout max_states max_transitions reorder cluster_cap cache_dir
      resume =
    let netlist = read_file file in
    let c = explorable file (or_die (parse_circuit file netlist)) in
    let config =
      {
        (make_config ~k ~no_random ~engine ~no_collapse ~timeout ~max_states
           ~max_transitions ~reorder ~cluster_cap ~seed)
        with
        jobs;
      }
    in
    let guard = Guard.create ?timeout ?max_states ?max_transitions () in
    drain_on_signal guard;
    let engine_run ?settled ?on_outcome ~cleanup () =
      try Session.run ~guard ?settled ?on_outcome ~config c universe with
      | Inject.Injected m ->
        cleanup ();
        or_die (Error ("injected fault: " ^ m))
      | Unix.Unix_error (err, op, arg) ->
        cleanup ();
        or_die
          (Error
             (Printf.sprintf "%s %s: %s" op arg (Unix.error_message err)))
      | e ->
        cleanup ();
        raise e
    in
    match cache_dir with
    | None ->
      if resume then
        or_die (Error "--resume needs --cache-dir (or SATG_CACHE_DIR)");
      print_result c verbose stats (engine_run ~cleanup:(fun () -> ()) ())
    | Some dir -> (
      let key = Durable.key_of ~netlist ~universe ~config in
      match Durable.cached ~dir ~key with
      | Some p ->
        Printf.eprintf
          "[store] hit %s: settled result served, 0 fault searches\n%!" key;
        print_cached c verbose stats p
      | None ->
        let t =
          match Durable.start ~resume ~dir ~key () with
          | r -> or_die r
          | exception Inject.Injected m ->
            or_die (Error ("injected fault: " ^ m))
        in
        if resume then
          Printf.eprintf
            "[store] resume %s: %d fault classes settled from journal\n%!"
            key (Durable.settled_count t);
        let cleanup () =
          (* the journal appends are already durable; a failure while
             sealing must not mask the error being reported *)
          try Durable.finish t ~keep:true
          with e ->
            Printf.eprintf "[store] cleanup failed: %s\n%!"
              (Printexc.to_string e)
        in
        let r =
          engine_run ~settled:(Durable.settled t)
            ~on_outcome:(Durable.record t) ~cleanup ()
        in
        let complete = Durable.cacheable r in
        (* never publish while the injection harness is armed: the
           outcomes may carry injected budget trips that a clean rerun
           would not reproduce *)
        (if complete && not (Inject.enabled ()) then
           try Durable.publish ~dir ~key (Session.summary_of_result r)
           with e ->
             Printf.eprintf "[store] publish failed: %s\n%!"
               (Printexc.to_string e));
        (match Durable.finish t ~keep:(not complete) with
        | () -> ()
        | exception Inject.Injected m ->
          or_die (Error ("injected fault: " ^ m))
        | exception Unix.Unix_error (err, op, arg) ->
          or_die
            (Error
               (Printf.sprintf "%s %s: %s" op arg (Unix.error_message err))));
        print_result c verbose stats r)
  in
  Cmd.v
    (Cmd.info "atpg" ~doc:"Generate synchronous test patterns for a netlist.")
    Term.(
      const run $ file $ universe $ no_random $ seed $ verbose $ engine
      $ no_collapse $ stats_arg $ k_arg $ jobs_arg $ timeout_arg
      $ max_states_arg $ max_transitions_arg $ reorder_arg $ cluster_cap_arg
      $ cache_dir $ resume)

(* --- bench ---------------------------------------------------------------- *)

let bench_cmd =
  let name_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME") in
  let run = function
    | None ->
      List.iter
        (fun e ->
          Printf.printf "%-16s %d inputs, %d outputs, %d transitions\n"
            e.Suite.name
            (List.length (Stg.input_signals e.Suite.stg))
            (List.length (Stg.output_signals e.Suite.stg))
            (Array.length e.Suite.stg.Stg.transitions))
        (Suite.all ())
    | Some nm -> (
      match Suite.find nm with
      | Some e -> print_string (Stg.to_string e.Suite.stg)
      | None ->
        prerr_endline ("unknown benchmark " ^ nm);
        exit 1)
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"List the bundled benchmark STGs or print one.")
    Term.(const run $ name_arg)

(* --- gen ------------------------------------------------------------------ *)

let gen_cmd =
  let family_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FAMILY")
  in
  let size_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "n"; "size" ] ~docv:"N"
          ~doc:"Family size knob (stages / clients / stations / latches).  \
                Default: the family's own default size.")
  in
  let style_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("complex", `Complex); ("decomposed", `Decomposed);
                  ("redundant", `Redundant) ]))
          None
      & info [ "style" ]
          ~doc:
            "Synthesize the generated STG into a netlist with the given \
             backend and print the $(b,.cct) text instead of the $(b,.g) \
             specification.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT")
  in
  let emit output text =
    match output with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc
  in
  let run family size style output =
    match family with
    | None ->
      List.iter
        (fun (f : Satg_concepts.Families.family) ->
          Printf.printf "%-10s n = %-2d..%-2d (default %d, %s)  %s\n" f.fname
            f.min_n f.max_n f.default_n f.size_doc f.doc)
        Satg_concepts.Families.all
    | Some fname ->
      let n =
        match (size, Satg_concepts.Families.find fname) with
        | Some n, _ -> n
        | None, Some f -> f.default_n
        | None, None -> 0 (* generate reports the unknown family *)
      in
      let e = or_die (Suite.generate fname ~n) in
      (match style with
      | None -> emit output (Stg.to_string e.Suite.stg)
      | Some backend ->
        let circuit =
          or_die
            (match backend with
            | `Complex -> Synth.complex_gate e.Suite.stg
            | `Decomposed -> Synth.decomposed e.Suite.stg
            | `Redundant -> Synth.decomposed ~redundant:true e.Suite.stg)
        in
        emit output (Parser.to_string circuit))
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a benchmark-family instance (STG, or netlist with \
          --style).  Without FAMILY, list the available families.")
    Term.(const run $ family_arg $ size_arg $ style_arg $ output)

(* --- check ---------------------------------------------------------------- *)

(* Every diagnostic with its line number, then one clean nonzero exit —
   not just the parser's first complaint.  Shared with [client check],
   whose diagnostics arrive as a structured wire response. *)
let print_diags file diags =
  List.iter
    (fun d ->
      if d.Parser.line = 0 then Printf.eprintf "%s: %s\n" file d.Parser.msg
      else Printf.eprintf "%s:%d: %s\n" file d.Parser.line d.Parser.msg)
    diags;
  Printf.eprintf "%s: %d problem(s)\n" file (List.length diags);
  exit 1

let check_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cct") in
  let run file =
    let text = read_file file in
    (* Lint first. *)
    (match Parser.lint_string text with
    | [] -> ()
    | diags -> print_diags file diags);
    let c = or_die (parse_circuit file text) in
    (match Circuit.validate c with
    | Ok () -> ()
    | Error m -> or_die (Error m));
    (* the success report is the session layer's, shared with the
       daemon's [check] kind *)
    print_string (Session.check_report c)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Validate a netlist and print structural stats.")
    Term.(const run $ file)

(* --- program --------------------------------------------------------------- *)

let program_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cct") in
  let run file k timeout max_states max_transitions =
    let c = read_explorable file in
    let config =
      { Engine.default_config with k; timeout; max_states; max_transitions }
    in
    let faults = Fault.universe_input_sa c @ Fault.universe_output_sa c in
    let r = Engine.run ~config c ~faults in
    print_string (Tester.to_string (Tester.of_result r));
    if Engine.partial r then exit exit_partial
  in
  Cmd.v
    (Cmd.info "program"
       ~doc:"Generate tests and emit them as a synchronous tester program.")
    Term.(
      const run $ file $ k_arg $ timeout_arg $ max_states_arg
      $ max_transitions_arg)

(* --- delay ----------------------------------------------------------------- *)

let delay_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cct") in
  let run file k timeout max_states max_transitions =
    let c = read_explorable file in
    let guard = Guard.create ?timeout ?max_states ?max_transitions () in
    let g = Explicit.build ?k ~guard c in
    let r = Delay_fault.run ~guard g in
    List.iter
      (fun (f, status) ->
        match status with
        | Delay_fault.Found seq ->
          Format.printf "%s: detected by [%s]@." (Delay_fault.to_string c f)
            (Testset.sequence_to_string seq)
        | Delay_fault.Not_found ->
          Format.printf "%s: UNDETECTED@." (Delay_fault.to_string c f)
        | Delay_fault.Aborted reason ->
          Format.printf "%s: ABORTED (%s)@." (Delay_fault.to_string c f)
            (Guard.reason_to_string reason))
      r.Delay_fault.outcomes;
    Format.printf "%a@." Delay_fault.pp_summary r;
    if Cssg.truncated g <> None || Delay_fault.aborted r > 0 then
      exit exit_partial
  in
  Cmd.v
    (Cmd.info "delay" ~doc:"Gross gate-delay fault test generation.")
    Term.(
      const run $ file $ k_arg $ timeout_arg $ max_states_arg
      $ max_transitions_arg)

(* --- dft ------------------------------------------------------------------- *)

let dft_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cct") in
  let budget =
    Arg.(value & opt int 2 & info [ "budget" ] ~docv:"N"
         ~doc:"Maximum observation points to insert.")
  in
  let control =
    Arg.(value & opt_all string [] & info [ "control" ] ~docv:"SIGNAL"
         ~doc:"Insert a control point (test-mode mux) on the signal and \
               re-run ATPG; repeatable.")
  in
  let run file budget control k jobs timeout max_states max_transitions =
    let c = read_explorable file in
    let faults = Fault.universe_input_sa c in
    (* The same config (test-cycle budget and resource limits) governs
       every ATPG run below, instrumented circuits included. *)
    let config =
      {
        Engine.default_config with
        k;
        jobs;
        timeout;
        max_states;
        max_transitions;
      }
    in
    if control = [] then begin
      let imp = Dft.evaluate ~budget ~config c ~faults in
      Format.printf "coverage before: %d/%d@." imp.Dft.before_detected imp.Dft.total;
      (match imp.Dft.points with
      | [] -> Format.printf "no observation points needed@."
      | points ->
        Format.printf "observation points:%s@."
          (String.concat ""
             (List.map (fun p -> " " ^ Circuit.node_name c p) points));
        Format.printf "coverage after:  %d/%d@." imp.Dft.after_detected imp.Dft.total);
      if imp.Dft.partial then exit exit_partial
    end
    else begin
      let nodes =
        List.map
          (fun nm ->
            match Circuit.find_node c nm with
            | Some id -> id
            | None -> or_die (Error ("unknown signal " ^ nm)))
          control
      in
      let before = Engine.run ~config c ~faults in
      let cp = Dft.insert_control_points c nodes in
      let after = Engine.run ~config cp ~faults:(Fault.universe_input_sa cp) in
      Format.printf "before: %d/%d; with control points: %d/%d@."
        (Engine.detected before) (Engine.total before)
        (Engine.detected after) (Engine.total after);
      if Engine.partial before || Engine.partial after then exit exit_partial
    end
  in
  Cmd.v
    (Cmd.info "dft"
       ~doc:"Recommend and evaluate test observation/control points.")
    Term.(
      const run $ file $ budget $ control $ k_arg $ jobs_arg $ timeout_arg
      $ max_states_arg $ max_transitions_arg)

(* --- dot ------------------------------------------------------------------- *)

let dot_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let what =
    Arg.(
      value
      & opt (enum [ ("circuit", `Circuit); ("cssg", `Cssg); ("stg", `Stg) ])
          `Circuit
      & info [ "view" ] ~doc:"What to render: circuit, cssg, or stg.")
  in
  let run file what k =
    match what with
    | `Stg ->
      let stg = or_die (Stg.parse_string (read_file file)) in
      print_string (Stg.to_dot stg)
    | `Circuit ->
      let c = or_die (read_circuit file) in
      print_string (Dot.circuit c)
    | `Cssg ->
      let c = read_explorable file in
      print_string (Cssg.to_dot (Explicit.build ?k c))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Graphviz export of a netlist, its CSSG, or an STG.")
    Term.(const run $ file $ what $ k_arg)

(* --- serve / client -------------------------------------------------------- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "SATG_SOCKET")
        ~doc:"Unix-domain socket path of the ATPG daemon.")

let serve_cmd =
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~env:(Cmd.Env.info "SATG_CACHE_DIR")
          ~doc:
            "Back the daemon's warm store with the durable object store at \
             $(docv) — shared, in both directions, with one-shot \
             $(b,--cache-dir) runs.")
  in
  let run socket jobs cache_dir =
    let service = Satg_server.Service.create ?cache_dir ~jobs () in
    let on_ready () = Printf.eprintf "[serve] listening on %s\n%!" socket in
    match Satg_server.Server.serve ~on_ready ~socket service with
    | Ok () ->
      (* the drain epilogue: final counters, visible to smoke tests *)
      Printf.eprintf "[serve] drained: %s\n%!"
        (String.concat ", "
           (List.map
              (fun (k, v) -> k ^ "=" ^ v)
              (Satg_server.Service.stats_fields service)))
    | Error m -> or_die (Error m)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent ATPG daemon: batched requests, per-request \
          QoS budgets, a warm content-addressed result store, and each \
          graph built once per daemon.  SIGINT/SIGTERM drain gracefully.")
    Term.(const run $ socket_arg $ jobs_arg $ cache_dir)

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request QoS deadline in milliseconds; the daemon maps it \
           onto the run's wall-clock guard budget, so a request that blows \
           it degrades (truncated graph, aborted faults, exit 2) instead \
           of hogging the daemon.  Overrides $(b,--timeout).")

let retry_for = 5.0 (* seconds to wait out a daemon that is still booting *)

let client_die = function
  | Proto.Failure { code; msg } -> or_die (Error (code ^ ": " ^ msg))
  | _ -> or_die (Error "unexpected response kind")

let request_or_die socket req =
  match Satg_server.Client.one_shot ~retry_for ~socket req with
  | Error m -> or_die (Error m)
  | Ok response -> response

let effective_timeout ~deadline_ms ~timeout =
  match deadline_ms with
  | Some ms -> Some (float_of_int ms /. 1000.)
  | None -> timeout

(* Renders exactly like the one-shot [atpg] path — both run through
   [Session.render] — and returns the member's exit code. *)
let print_response c verbose = function
  | Proto.Result { hit; payload } ->
    if hit then
      Printf.eprintf "[client] hit: settled result served, 0 fault searches\n%!";
    Session.render ~verbose Format.std_formatter c payload;
    if Session.degraded payload then exit_partial else 0
  | r -> client_die r

let client_atpg_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cct") in
  let run socket file universe no_random seed verbose engine no_collapse k
      deadline_ms timeout max_states max_transitions reorder cluster_cap =
    let netlist = read_file file in
    let c = or_die (parse_circuit file netlist) in
    let config =
      make_config ~k ~no_random ~engine ~no_collapse
        ~timeout:(effective_timeout ~deadline_ms ~timeout)
        ~max_states ~max_transitions ~reorder ~cluster_cap ~seed
    in
    let response =
      request_or_die socket (Proto.Atpg { Proto.netlist; universe; config })
    in
    let code = print_response c verbose response in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "atpg"
       ~doc:
         "Run ATPG on the daemon.  Output (and exit code) is bit-identical \
          to the one-shot $(b,satg atpg).")
    Term.(
      const run $ socket_arg $ file $ universe_arg $ no_random_arg $ seed_arg
      $ verbose_arg $ engine_arg $ no_collapse_arg $ k_arg $ deadline_arg
      $ timeout_arg $ max_states_arg $ max_transitions_arg $ reorder_arg
      $ cluster_cap_arg)

let client_cssg_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cct") in
  let dump =
    Arg.(value & flag & info [ "dump" ] ~doc:"Print every state and edge.")
  in
  let run socket file dump k deadline_ms timeout max_states max_transitions =
    let response =
      request_or_die socket
        (Proto.Cssg
           {
             Proto.c_netlist = read_file file;
             c_k = k;
             c_dump = dump;
             c_timeout = effective_timeout ~deadline_ms ~timeout;
             c_max_states = max_states;
             c_max_transitions = max_transitions;
           })
    in
    match response with
    | Proto.Text { degraded; text } ->
      print_string text;
      if degraded then exit exit_partial
    | r -> client_die r
  in
  Cmd.v
    (Cmd.info "cssg" ~doc:"Build a CSSG on the daemon (explicit engine).")
    Term.(
      const run $ socket_arg $ file $ dump $ k_arg $ deadline_arg $ timeout_arg
      $ max_states_arg $ max_transitions_arg)

let client_check_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cct") in
  let run socket file =
    match request_or_die socket (Proto.Check (read_file file)) with
    | Proto.Text { text; _ } -> print_string text
    | Proto.Diags diags -> print_diags file diags
    | r -> client_die r
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate a netlist on the daemon; lint findings come back as a \
          structured wire response.")
    Term.(const run $ socket_arg $ file)

let client_batch_cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.cct")
  in
  let run socket files universe no_random seed verbose engine no_collapse k
      deadline_ms timeout max_states max_transitions reorder cluster_cap =
    let members =
      List.map
        (fun file ->
          let netlist = read_file file in
          (file, or_die (parse_circuit file netlist), netlist))
        files
    in
    let config =
      make_config ~k ~no_random ~engine ~no_collapse
        ~timeout:(effective_timeout ~deadline_ms ~timeout)
        ~max_states ~max_transitions ~reorder ~cluster_cap ~seed
    in
    let requests =
      List.map
        (fun (_, _, netlist) -> Proto.Atpg { Proto.netlist; universe; config })
        members
    in
    match request_or_die socket (Proto.Batch requests) with
    | Proto.Batch_r responses when List.length responses = List.length members ->
      let failed = ref false and degraded = ref false in
      List.iter2
        (fun (file, c, _) response ->
          Format.printf "== %s ==@." file;
          match response with
          | Proto.Failure { code; msg } ->
            (* per-member isolation: report and move on *)
            Printf.eprintf "error: %s: %s: %s\n%!" file code msg;
            failed := true
          | r ->
            if print_response c verbose r = exit_partial then degraded := true)
        members responses;
      if !failed then exit 1;
      if !degraded then exit exit_partial
    | r -> client_die r
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run one ATPG request per FILE as a single batch; members share \
          graph builds on the daemon like any other requests, and a member \
          that blows its budget degrades alone.")
    Term.(
      const run $ socket_arg $ files $ universe_arg $ no_random_arg $ seed_arg
      $ verbose_arg $ engine_arg $ no_collapse_arg $ k_arg $ deadline_arg
      $ timeout_arg $ max_states_arg $ max_transitions_arg $ reorder_arg
      $ cluster_cap_arg)

let client_stats_cmd =
  let run socket =
    match request_or_die socket Proto.Stats with
    | Proto.Stats_r fields ->
      List.iter (fun (k, v) -> Printf.printf "%s %s\n" k v) fields
    | r -> client_die r
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print the daemon's server-side counters.")
    Term.(const run $ socket_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client" ~doc:"Send requests to a running satg daemon.")
    [ client_atpg_cmd; client_cssg_cmd; client_check_cmd; client_batch_cmd;
      client_stats_cmd ]

let () =
  (match Inject.configure_from_env () with
  | Ok () -> ()
  | Error m ->
    prerr_endline ("error: SATG_FAULT_INJECT: " ^ m);
    exit 1);
  let doc = "Synchronous test pattern generation for asynchronous circuits" in
  let info = Cmd.info "satg" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ synth_cmd; cssg_cmd; atpg_cmd; program_cmd; delay_cmd; dft_cmd;
            dot_cmd; bench_cmd; gen_cmd; check_cmd; serve_cmd; client_cmd ]))
