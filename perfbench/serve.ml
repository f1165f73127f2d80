(* The [serve] workload: a daemon started as its own process (this
   executable in [--daemon] mode, running [Server.serve]) and one
   caller in a closed loop.  Each request goes on its own connection
   and the caller waits for the answer, as [satg client] does.  Every
   pass gets a fresh daemon, so every pass starts with a cold warm
   store, and sends the same requests in an order of its own. *)

open Satg_circuit
open Satg_stg
open Satg_core
module Proto = Satg_server.Proto
module Client = Satg_server.Client
module Suite = Satg_bench.Suite

(* --- netlists -------------------------------------------------------------- *)

(* Table 1 netlists, then complex-gate family instances; popularity
   falls along this order. *)
let specs () =
  let table1 =
    List.map
      (fun (e : Suite.entry) ->
        (e.Suite.name, fun () -> Oneshot.ok_or_fail e.Suite.name (Suite.speed_independent e)))
      (Suite.all ())
  in
  let families =
    List.concat_map
      (fun (name, sizes) ->
        List.map
          (fun n ->
            let label = Printf.sprintf "%s%d" name n in
            ( label,
              fun () ->
                let e = Oneshot.ok_or_fail label (Suite.generate name ~n) in
                Oneshot.ok_or_fail label (Synth.complex_gate e.Suite.stg) ))
          sizes)
      [ ("pipeline", [ 1; 2; 3; 4; 5; 6 ]); ("arbiter", [ 2; 3; 4 ]);
        ("ring", [ 2; 3; 4; 5; 6 ]); ("fifo", [ 2; 3; 4; 5; 6 ]) ]
  in
  table1 @ families

let synthesize specs =
  Trace.span "stg.synth" @@ fun () ->
  Array.of_list (List.map (fun (_, synth) -> Parser.to_string (synth ())) specs)

(* --- the request stream ------------------------------------------------------ *)

type item =
  | Atpg of int * Session.universe * Engine.config
  | Batch of int * (Session.universe * Engine.config) list
  | Check of int

let pick rng weights =
  let total = Array.fold_left ( +. ) 0. weights in
  let x = Random.State.float rng total in
  let rec go i acc =
    if i = Array.length weights - 1 || x < acc +. weights.(i) then i
    else go (i + 1) (acc +. weights.(i))
  in
  go 0 0.

(* No daemon traffic has been recorded, so the mix is assumed.  What
   is given: a request names a netlist, an engine, a universe and a TPG
   seed; most requests are atpg, some batch, some check; and a
   5000-request prototype of this traffic saw about 1400 distinct keys
   and 76% warm hits.  Engine, universe and TPG-seed offset are
   uniform, since nothing makes one more popular.  The only skew is
   netlist popularity, 1/rank^0.7 along [specs]: with 4 seed offsets
   it gives those 1400 keys and 76% hits.  85/10/5% atpg/batch/check
   and 2-4 batch members stand for "most", "some" and "several".

   The mix is drawn once from a fixed generator, so every workload seed
   sends the same popularity profile (same distinct keys, same misses).
   The workload seed shifts every request's random-TPG seed, so each
   seed still gets inputs of its own, and it seeds the arrival order of
   each pass: a run's passes average over orders, on which the daemon's
   heap peak depends. *)
let engines = [| Engine.Explicit; Engine.Sat; Engine.Bdd |]
let universes = [| Session.Both; Session.Input; Session.Output |]
let seed_offsets = 4
let zipf_exponent = 0.7

let requests ~seed ~count ~netlists =
  let mix = Random.State.make [| 0x5eed |] in
  let popularity =
    Array.init netlists (fun i -> 1. /. (float_of_int (i + 1) ** zipf_exponent))
  in
  let member () =
    let config =
      { (Oneshot.explicit ~seed:(seed + Random.State.int mix seed_offsets)) with
        Engine.engine = engines.(Random.State.int mix (Array.length engines)) }
    in
    (universes.(Random.State.int mix (Array.length universes)), config)
  in
  Array.init count (fun _ ->
      let kind = Random.State.float mix 1. in
      let i = pick mix popularity in
      if kind < 0.85 then
        let u, c = member () in
        Atpg (i, u, c)
      else if kind < 0.95 then Batch (i, List.init (2 + Random.State.int mix 3) (fun _ -> member ()))
      else Check i)

(* The arrival order of pass [pass]. *)
let shuffled ~seed ~pass items =
  let items = Array.copy items in
  let order = Random.State.make [| seed; pass |] in
  for i = Array.length items - 1 downto 1 do
    let j = Random.State.int order (i + 1) in
    let t = items.(i) in
    items.(i) <- items.(j);
    items.(j) <- t
  done;
  items

let atpg_request texts i (universe, config) =
  Proto.Atpg { Proto.netlist = texts.(i); universe; config }

let request texts = function
  | Atpg (i, u, c) -> atpg_request texts i (u, c)
  | Batch (i, members) -> Proto.Batch (List.map (atpg_request texts i) members)
  | Check i -> Proto.Check texts.(i)

(* --- the daemon ---------------------------------------------------------------- *)

(* Run by this executable in [--daemon] mode: say "ready" on stdout
   once the socket listens, serve until SIGTERM, then report the
   daemon's peak resident set on the next line. *)
let daemon_main socket =
  let ready () = print_string "ready\n"; flush stdout in
  match Satg_server.Server.serve ~on_ready:ready ~socket (Satg_server.Service.create ()) with
  | Ok () ->
    Printf.printf "%.17g\n%!" (Measure.peak_rss_mb ());
    exit 0
  | Error m ->
    prerr_endline m;
    exit 1

type daemon = { pid : int; out : in_channel }

let socket = Printf.sprintf ".bench_out/serve-%d.sock" (Unix.getpid ())

(* Returns once the daemon listens, so set-up time ends when the daemon
   can take a request, with no polling delay in it. *)
let start_daemon () =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--daemon"; socket |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let d = { pid; out = Unix.in_channel_of_descr r } in
  match input_line d.out with
  | "ready" -> d
  | _ | (exception End_of_file) ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    close_in_noerr d.out;
    ignore (Unix.waitpid [] pid);
    failwith "serve: daemon did not start"

let daemon_stats () =
  match Client.one_shot ~socket Proto.Stats with
  | Ok (Proto.Stats_r fields) -> fields
  | Ok _ | Error _ -> failwith "serve: stats request failed"

(* SIGTERM drains the daemon; it answers with its peak RSS and exits. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rss = try float_of_string_opt (input_line d.out) with End_of_file -> None in
  close_in_noerr d.out;
  let _, status = Unix.waitpid [] d.pid in
  match (rss, status) with
  | Some rss, Unix.WEXITED 0 -> rss
  | _ -> failwith "serve: daemon did not drain cleanly"

(* Run [f] against a started daemon, then stop it, even when [f] fails;
   the daemon's peak RSS comes back beside [f]'s result. *)
let serving d f =
  match f () with
  | r -> (r, stop_daemon d)
  | exception e ->
    (try ignore (stop_daemon d) with Failure _ -> ());
    raise e

(* --- one pass ------------------------------------------------------------------ *)

type answer = {
  item : item;
  response : (Proto.response, string) result;
  latency : float;  (** round trip, seconds *)
}

(* What [satg client] does with an answer: render it against the
   caller's own parse of the netlist. *)
let render texts item response =
  let render_one i = function
    | Proto.Result { payload; _ } ->
      let c = Trace.span "circuit.parse" (fun () -> Oneshot.parse_text texts.(i)) in
      Trace.span "core.render" (fun () -> ignore (Oneshot.render c payload))
    | _ -> ()
  in
  match (item, response) with
  | Atpg (i, _, _), Ok r -> render_one i r
  | Batch (i, _), Ok (Proto.Batch_r rs) -> List.iter (render_one i) rs
  | (Atpg _ | Batch _ | Check _), _ -> ()

let untraced_pass texts items =
  Array.map
    (fun item ->
      let req = request texts item in
      let latency, response = Measure.time (fun () -> Client.one_shot ~socket req) in
      render texts item response;
      { item; response; latency })
    items

(* [Client.one_shot] taken apart, so connect, encode, round trip and
   decode each get a span. *)
let traced_request req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  match
    Trace.span "server.connect" (fun () -> Unix.connect fd (Unix.ADDR_UNIX socket));
    let payload = Trace.span "server.encode" (fun () -> Proto.encode_request req) in
    Trace.span "server.roundtrip" (fun () ->
        Proto.write_frame fd payload;
        Proto.read_frame fd)
  with
  | Ok frame -> Trace.span "server.decode" (fun () -> Proto.decode_response frame)
  | Error _ -> Error "no response frame"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let traced_pass texts items =
  Array.map
    (fun item ->
      Trace.group "request" @@ fun () ->
      let req = request texts item in
      let latency, response = Measure.time (fun () -> traced_request req) in
      render texts item response;
      { item; response; latency })
    items

(* --- checking the answers ------------------------------------------------------ *)

(* The one-shot reference for a request, computed in-process once. *)
type refs = {
  texts : string array;
  summaries : (string, Session.summary) Hashtbl.t;
  checks : (int, string) Hashtbl.t;
}

let key i universe config =
  String.concat "|"
    (string_of_int i
    :: List.map (fun (k, v) -> k ^ "=" ^ v) (Session.config_fields ~universe config))

let reference refs i universe config =
  let k = key i universe config in
  match Hashtbl.find_opt refs.summaries k with
  | Some s -> s
  | None ->
    let c = Oneshot.parse_text refs.texts.(i) in
    let s = Session.summary_of_result (Session.run ~config c universe) in
    Hashtbl.replace refs.summaries k s;
    s

let same_answer (a : Session.summary) (b : Session.summary) =
  a.Session.faults_searched = b.Session.faults_searched
  && a.Session.truncated = b.Session.truncated
  && a.Session.stats_line = b.Session.stats_line
  && a.Session.outcomes = b.Session.outcomes

type verdict = {
  failed : int;
  problems : string list;
  given : int;
  detected : int;
  vectors : int;
  kinds : (string * float) list;
      (** per request: "hit", "miss", "batch", "check" or "failed", and
          its round trip *)
}

let verify refs answers =
  let first = Hashtbl.create 1024 in
  let given = ref 0 and detected = ref 0 and vectors = ref 0 in
  let member i (universe, config) = function
    | Proto.Result { hit; payload } ->
      let k = key i universe config in
      let fresh = same_answer payload (reference refs i universe config) in
      let warm =
        match Hashtbl.find_opt first k with
        | None ->
          (* coverage and test length count each distinct answer once *)
          Hashtbl.replace first k payload;
          List.iter
            (fun (_, st) ->
              incr given;
              if Testset.is_detected st then incr detected)
            payload.Session.outcomes;
          vectors := !vectors + Oneshot.test_vectors (List.map snd payload.Session.outcomes);
          not hit
        | Some miss -> hit && payload = miss
      in
      if not fresh then Some "answer differs from a one-shot Session.run"
      else if not warm then Some "warm-store hit differs from its miss"
      else None
    | Proto.Failure { code; msg } -> Some (code ^ ": " ^ msg)
    | _ -> Some "unexpected response kind"
  in
  let problems = ref [] and failed = ref 0 in
  let kinds =
    Array.to_list answers
    |> List.map (fun a ->
           let problem, kind =
             match (a.item, a.response) with
             | _, Error m -> (Some m, "failed")
             | Atpg (i, u, c), Ok r ->
               ( member i (u, c) r,
                 match r with Proto.Result { hit = true; _ } -> "hit" | _ -> "miss" )
             | Batch (i, ms), Ok (Proto.Batch_r rs) when List.length rs = List.length ms ->
               (List.find_map Fun.id (List.map2 (member i) ms rs), "batch")
             | Batch _, Ok _ -> (Some "malformed batch answer", "batch")
             | Check i, Ok (Proto.Text { degraded = false; text }) ->
               let expect =
                 match Hashtbl.find_opt refs.checks i with
                 | Some t -> t
                 | None ->
                   let t = Session.check_report (Oneshot.parse_text refs.texts.(i)) in
                   Hashtbl.replace refs.checks i t;
                   t
               in
               ((if text = expect then None else Some "check report differs"), "check")
             | Check _, Ok _ -> (Some "unexpected check answer", "check")
           in
           match problem with
           | None -> (kind, a.latency)
           | Some p ->
             incr failed;
             problems := p :: !problems;
             (* a failed request misses every latency limit *)
             (kind, infinity))
  in
  { failed = !failed; problems = List.rev !problems; given = !given;
    detected = !detected; vectors = !vectors; kinds }

(* --- the workload ------------------------------------------------------------- *)

let request_count = 5000

let stat fields name =
  match List.assoc_opt name fields with
  | Some v -> float_of_string v
  | None -> failwith ("serve: daemon stats lack " ^ name)

let partition (s : Session.summary) =
  List.map (fun (_, st) -> Oneshot.status_char st) s.Session.outcomes

(* Each distinct key the daemon missed, replayed once in-process through
   the traced layer calls: the engine work behind one pass.  A replay
   must give the one-shot reference's outcome partition, or the engine
   counts it yields would not be those of [Session.run]. *)
let replay refs items counts =
  let seen = Hashtbl.create 1024 and problems = ref [] in
  let one i (universe, config) =
    let k = key i universe config in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      let summary =
        Trace.group "replay" @@ fun () ->
        let c = Trace.span "circuit.parse" (fun () -> Oneshot.parse_text refs.texts.(i)) in
        let summary = Session.summary_of_result (Oneshot.traced_run ~universe counts config c) in
        Trace.span "core.render" (fun () -> ignore (Oneshot.render c summary));
        summary
      in
      if partition summary <> partition (reference refs i universe config) then
        problems := ("traced replay of " ^ k ^ " changed the outcome partition") :: !problems
    end
  in
  Array.iter
    (function
      | Atpg (i, u, c) -> one i (u, c)
      | Batch (i, ms) -> List.iter (one i) ms
      | Check _ -> ())
    items;
  List.rev !problems

let bench ~seed ~seconds ~trace =
  (* a daemon gone mid-request is a failed request, not a dead caller *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let specs = specs () in
  let items = requests ~seed ~count:request_count ~netlists:(List.length specs) in
  let refs =
    { texts = synthesize specs; summaries = Hashtbl.create 2048; checks = Hashtbl.create 64 }
  in
  let untraced = ref [] and traced = ref [] and setups = ref [] and rss = ref [] in
  let latencies = ref [] and problems = ref [] and failed = ref 0 and attempted = ref 0 in
  let first = ref None and stats = ref [] in
  let pass = ref 0 in
  Measure.passes ~seconds ~trace (fun ~tracing ->
      let order = shuffled ~seed ~pass:!pass items in
      incr pass;
      let setup, (texts, d) =
        Measure.time (fun () ->
            let texts = synthesize specs in
            (texts, start_daemon ()))
      in
      let (dt, answers, fields), daemon_rss =
        serving d (fun () ->
            let dt, answers =
              Measure.time (fun () ->
                  if tracing then Trace.span "pass" (fun () -> traced_pass texts order)
                  else untraced_pass texts order)
            in
            (dt, answers, daemon_stats ()))
      in
      rss := daemon_rss :: !rss;
      let v = verify refs answers in
      attempted := !attempted + Array.length answers;
      failed := !failed + v.failed;
      problems := !problems @ v.problems;
      (match !first with
      | None -> first := Some v
      | Some v0 when (v0.given, v0.detected, v0.vectors) = (v.given, v.detected, v.vectors) -> ()
      | Some _ -> problems := "answers changed between passes" :: !problems);
      if tracing then begin
        traced := dt :: !traced;
        (* the first traced pass's counters: its order is the seed's *)
        if !stats = [] then stats := fields
      end
      else begin
        untraced := dt :: !untraced;
        setups := setup :: !setups;
        latencies := v.kinds @ !latencies
      end;
      dt);
  let v = Option.get !first in
  let ms kinds =
    List.filter_map
      (fun (k, l) -> if List.mem k kinds then Some (l *. 1000.) else None)
      !latencies
  in
  let all = List.map (fun (_, l) -> l *. 1000.) !latencies in
  assert (Measure.samples_beyond all 0.99 >= 10.);
  let pass_s = Measure.median !untraced in
  let layers =
    if not trace then []
    else begin
      (* engine layers: the pass's misses replayed in-process *)
      let counts = Oneshot.zero_counts () in
      Trace.on := true;
      problems := !problems @ replay refs items counts;
      Trace.on := false;
      let engine =
        Hashtbl.fold
          (fun name t acc -> if name = "replay" then acc else (name ^ "_s", t) :: acc)
          (Trace.self_times ~root:"replay") []
      in
      let client = Trace.self_times ~root:"pass" in
      let passes = float_of_int (List.length !traced) in
      let hits = stat !stats "hits" and misses = stat !stats "misses" in
      Measure.merge
        [ Measure.traced_layers ~traced:!traced ~untraced_pass_s:pass_s; engine ]
      @ [
          ("server.connect_ms", 1000. *. Measure.median (Trace.durations "server.connect"));
          ("server.proto_s",
           (Trace.self_time client "server.encode" +. Trace.self_time client "server.decode")
           /. passes);
          ("server.hit_p50_ms", Measure.median (ms [ "hit" ]));
          ("server.miss_p50_ms", Measure.median (ms [ "miss" ]));
          ("server.batch_p50_ms", Measure.median (ms [ "batch" ]));
          ("server.cssg_builds", stat !stats "cssg-builds");
          ("store.hits", hits);
          ("store.misses", misses);
          ("store.hit_ratio", hits /. (hits +. misses));
          ("req_p50_ms", Measure.median all);
          ("req_p99_ms", Measure.quantile all 0.99);
        ]
      @ Oneshot.count_values counts
    end
  in
  {
    Measure.attempted = !attempted;
    failed = !failed;
    problems = !problems;
    end_to_end =
      [
        ("setup_s", Measure.median !setups);
        ("pass_s", pass_s);
        ("peak_rss_mb", Measure.median !rss);
        ("coverage_pct", 100. *. float_of_int v.detected /. float_of_int v.given);
        ("test_vectors", float_of_int v.vectors);
        ("ok_pct", 100. *. float_of_int (!attempted - !failed) /. float_of_int !attempted);
      ];
    layers;
  }
