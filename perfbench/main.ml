(* The ATPG benchmark.

     main.exe --workload tables|symbolic|serve --seed N --seconds S --trace 0|1

   Prints one JSON line last: with --trace 0 the end-to-end metrics of
   the untraced passes, with --trace 1 the per-layer metrics of traced
   passes run alternately with untraced ones.  Exits 1 when a
   correctness gate fails.  BENCHMARK.json names every metric and why
   each workload exists; NOTES.md explains them. *)

let end_to_end =
  [ ("setup_s", "s"); ("pass_s", "s"); ("peak_rss_mb", "MB"); ("coverage_pct", "%");
    ("test_vectors", "vectors"); ("ok_pct", "%") ]

let per_layer =
  [ ("stg.synth_s", "s"); ("circuit.parse_s", "s"); ("fault.collapse_s", "s");
    ("sg.explicit_s", "s"); ("sg.symbolic_s", "s"); ("core.random_s", "s");
    ("core.search_s", "s"); ("core.search_undetected_s", "s"); ("core.sweep_s", "s");
    ("core.render_s", "s"); ("sg.states", "count"); ("sg.edges", "count");
    ("sg.truncated", "count"); ("bdd.apply_ops", "count"); ("bdd.cache_hit_rate", "ratio");
    ("bdd.peak_nodes", "count"); ("bdd.reorders", "count"); ("bdd.swaps", "count");
    ("core.random_targets", "count"); ("core.random_caught", "count");
    ("core.searched", "count"); ("core.found", "count"); ("core.undetected", "count");
    ("core.exhausted", "count"); ("core.sweep_caught", "count"); ("sat.solves", "count");
    ("sat.decisions", "count"); ("sat.propagations", "count"); ("sat.conflicts", "count");
    ("server.connect_ms", "ms"); ("server.proto_s", "s"); ("server.hit_p50_ms", "ms");
    ("server.miss_p50_ms", "ms"); ("server.batch_p50_ms", "ms");
    ("server.cssg_builds", "count"); ("store.hits", "count"); ("store.misses", "count");
    ("store.hit_ratio", "ratio"); ("req_p50_ms", "ms"); ("req_p99_ms", "ms");
    ("trace.overhead_s", "s"); ("trace.coverage_pct", "%") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload tables|symbolic|serve --seed N --seconds S --trace 0|1";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "--daemon"; socket ] -> Serve.daemon_main socket
  | _ :: args ->
    let rec opts acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let o = opts [] args in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let seed = int "seed" and seconds = float_of_int (int "seconds") in
    let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    let workload = get "workload" in
    (try Unix.mkdir ".bench_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let r =
      match workload with
      | "tables" ->
        Oneshot.bench ~specs:(Oneshot.tables_specs ()) ~gates:Oneshot.si_output_coverage
          ~seed ~seconds ~trace
      | "symbolic" ->
        Oneshot.bench ~specs:(Oneshot.symbolic_specs ()) ~gates:Oneshot.cross_engine ~seed
          ~seconds ~trace
      | "serve" -> Serve.bench ~seed ~seconds ~trace
      | _ -> usage ()
    in
    let metrics =
      List.map
        (fun (name, unit) ->
          let v =
            List.assoc_opt name (if trace then r.Measure.layers else r.Measure.end_to_end)
          in
          Measure.m name unit (Option.value v ~default:0.))
        (if trace then per_layer else end_to_end)
    in
    let problems =
      r.Measure.problems
      @
      match List.assoc_opt "trace.coverage_pct" r.Measure.layers with
      | Some c when c < 90. ->
        [ Printf.sprintf "layer spans cover %.1f%% of the traced pass (< 90%%)" c ]
      | Some _ | None -> []
    in
    if trace then
      Trace.write_chrome (Printf.sprintf ".bench_out/trace-%s-%d.json" workload seed);
    List.iter (fun p -> prerr_endline ("gate failed: " ^ p)) problems;
    Measure.print_result ~correct:(problems = []) ~attempted:r.Measure.attempted
      ~failed:r.Measure.failed metrics;
    if problems <> [] then exit 1
  | [] -> usage ()
