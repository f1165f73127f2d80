(* ATPG daemon contract tests.

   The headline property is conformance: for every request kind, the
   daemon's response renders bit-for-bit like the one-shot CLI path —
   including deterministically degraded runs under tiny budgets, and at
   every worker-pool width.  Around it: the warm store serves repeats
   with zero searches, the service builds each graph once per key and
   keeps only reproducible builds, a batch isolates a budget-tripped
   member, the framing layer survives truncated and
   corrupted frames, and a spawned daemon serves over a real socket,
   shrugs off garbage connections and drains cleanly on SIGTERM. *)

open Satg_guard
open Satg_circuit
open Satg_core
open Satg_bench
module Proto = Satg_server.Proto
module Service = Satg_server.Service
module Server = Satg_server.Server
module Client = Satg_server.Client
module Cssg = Satg_sg.Cssg
module Explicit = Satg_sg.Explicit
module Pool = Satg_pool.Pool

let ( // ) = Filename.concat
let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.get_temp_dir_name ()
    // Printf.sprintf "satg-server-test-%d-%d" (Unix.getpid ()) !dir_counter
  in
  Satg_store.Journal.mkdir_p d;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf d with _ -> ()) (fun () -> f d)

let with_service ?cache_dir ?jobs f =
  let service = Service.create ?cache_dir ?jobs () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) (fun () ->
      f service)

let parse_exn netlist =
  match Parser.parse_string netlist with
  | Ok c -> c
  | Error m -> Alcotest.fail ("parse: " ^ m)

(* The render is the conformance currency: two summaries are "the same
   result" iff the CLI would print the same bytes for both. *)
let rendered c p =
  Format.asprintf "%a"
    (fun fmt (c, p) -> Session.render ~verbose:true fmt c p)
    (c, p)

(* The verbose render embeds elapsed wall-clock ("in 0.04s") — the one
   legitimately nondeterministic byte between a daemon answer and a
   fresh one-shot of the same request. Replace each "in D.DDs" token
   with a fixed marker before comparing. *)
let strip_seconds s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let is_digit ch = ch >= '0' && ch <= '9' in
  let i = ref 0 in
  while !i < n do
    let matched =
      !i + 3 <= n
      && String.sub s !i 3 = "in "
      && (!i = 0 || s.[!i - 1] = ' ')
      &&
      let j = ref (!i + 3) in
      let d0 = !j in
      while !j < n && is_digit s.[!j] do incr j done;
      if !j > d0 && !j + 1 < n && s.[!j] = '.' then begin
        let d1 = !j + 1 in
        j := d1;
        while !j < n && is_digit s.[!j] do incr j done;
        if !j > d1 && !j < n && s.[!j] = 's' then begin
          Buffer.add_string buf "in <t>s";
          i := !j + 1;
          true
        end
        else false
      end
      else false
    in
    if not matched then begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let rendered_no_time c p = strip_seconds (rendered c p)

(* The one-shot CLI path, distilled: same guard construction, same
   session entry point as [bin/satg.ml]. *)
let oneshot ?(jobs = 1) ~config c universe =
  let config = { config with Engine.jobs } in
  let guard =
    Guard.create ?timeout:config.Engine.timeout
      ?max_states:config.Engine.max_states
      ?max_transitions:config.Engine.max_transitions ()
  in
  Session.summary_of_result (Session.run ~guard ~config c universe)

let stat fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> Alcotest.fail ("missing stats field " ^ k)

let get_stats service =
  match Service.handle service Proto.Stats with
  | Proto.Stats_r fields -> fields
  | _ -> Alcotest.fail "stats request must answer Stats_r"

(* --- protocol round trips -------------------------------------------------- *)

let sample_config =
  {
    Engine.default_config with
    Engine.k = Some 3;
    max_states = Some 100;
    timeout = Some 1.5;
    engine = Engine.Sat;
    collapse = false;
  }

let sample_requests =
  [
    Proto.Atpg
      {
        Proto.netlist = "module m\nendmodule\n";
        universe = Session.Both;
        config = sample_config;
      };
    Proto.Cssg
      {
        Proto.c_netlist = "bytes with\nnewlines\n";
        c_k = None;
        c_dump = true;
        c_timeout = None;
        c_max_states = Some 5;
        c_max_transitions = None;
      };
    Proto.Check "whatever bytes\n";
  ]

let test_request_roundtrip () =
  let all =
    sample_requests @ [ Proto.Stats; Proto.Batch sample_requests ]
  in
  List.iter
    (fun r ->
      match Proto.decode_request (Proto.encode_request r) with
      | Error m -> Alcotest.fail ("round trip: " ^ m)
      | Ok r' ->
        (* compare via re-encoding: structural equality without needing
           an [eq] over configs *)
        Alcotest.(check string) "request round-trips"
          (Proto.encode_request r) (Proto.encode_request r'))
    all;
  (* jobs never travels: a config with jobs decodes with the default *)
  (match
     Proto.decode_request
       (Proto.encode_request
          (Proto.Atpg
             {
               Proto.netlist = "n";
               universe = Session.Input;
               config = { sample_config with Engine.jobs = 8 };
             }))
   with
  | Ok (Proto.Atpg a) ->
    Alcotest.(check int) "jobs stripped" Engine.default_config.Engine.jobs
      a.Proto.config.Engine.jobs
  | _ -> Alcotest.fail "atpg must decode as atpg");
  (* one nesting level only *)
  (match
     Proto.decode_request
       (Proto.encode_request (Proto.Batch [ Proto.Batch [ Proto.Check "x" ] ]))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nested batch must be rejected");
  (match
     Proto.decode_request (Proto.encode_request (Proto.Batch [ Proto.Stats ]))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stats inside a batch must be rejected");
  match Proto.decode_request "no such kind\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind must be rejected"

let test_response_roundtrip () =
  let c = Figures.fig1a () in
  let summary =
    oneshot
      ~config:{ Engine.default_config with Engine.max_states = Some 4 }
      c Session.Input
  in
  let samples =
    [
      Proto.Result { hit = true; payload = summary };
      Proto.Text { degraded = true; text = "several\nlines\n" };
      Proto.Diags
        [ { Parser.line = 0; msg = "global" }; { Parser.line = 7; msg = "x y" } ];
      Proto.Failure { code = "parse"; msg = "line 3: nope" };
      Proto.Stats_r [ ("hits", "3"); ("misses", "1") ];
    ]
  in
  List.iter
    (fun r ->
      match Proto.decode_response (Proto.encode_response r) with
      | Error m -> Alcotest.fail ("round trip: " ^ m)
      | Ok r' ->
        Alcotest.(check string) "response round-trips"
          (Proto.encode_response r) (Proto.encode_response r'))
    (samples @ [ Proto.Batch_r samples ])

(* --- framing --------------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let frame_roundtrip_prop =
  QCheck.Test.make ~count:60 ~name:"frame: round-trip; any bit flip rejected"
    (QCheck.make
       QCheck.Gen.(
         pair
           (string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 512))
           (int_range 0 1_000_000)))
    (fun (payload, flip_seed) ->
      (* clean round trip *)
      with_socketpair (fun a b ->
          Proto.write_frame a payload;
          match Proto.read_frame b with
          | Ok p -> assert (p = payload)
          | Error _ -> assert false);
      (* the same frame with one bit flipped never comes back [Ok] *)
      let n = String.length payload in
      let frame = Bytes.create (8 + n) in
      Bytes.set_int32_le frame 0 (Int32.of_int n);
      Bytes.set_int32_le frame 4
        (Int32.of_int (Satg_store.Crc32.string payload));
      Bytes.blit_string payload 0 frame 8 n;
      let pos = flip_seed mod (8 + n) in
      let bit = 1 lsl (flip_seed / (8 + n) mod 8) in
      Bytes.set frame pos
        (Char.chr (Char.code (Bytes.get frame pos) lxor bit));
      with_socketpair (fun a b ->
          ignore (Unix.write a frame 0 (8 + n));
          Unix.shutdown a Unix.SHUTDOWN_SEND;
          match Proto.read_frame b with
          | Ok _ -> false
          | Error (Proto.Malformed _) -> true
          | Error _ -> false))

let test_truncated_frames () =
  (* every possible truncation point of a valid frame is a clean error *)
  let payload = "a small payload" in
  let n = String.length payload in
  let frame = Bytes.create (8 + n) in
  Bytes.set_int32_le frame 0 (Int32.of_int n);
  Bytes.set_int32_le frame 4 (Int32.of_int (Satg_store.Crc32.string payload));
  Bytes.blit_string payload 0 frame 8 n;
  for keep = 0 to 8 + n - 1 do
    with_socketpair (fun a b ->
        if keep > 0 then ignore (Unix.write a frame 0 keep);
        Unix.shutdown a Unix.SHUTDOWN_SEND;
        match Proto.read_frame b with
        | Error Proto.Eof when keep = 0 -> ()
        | Error (Proto.Malformed _) when keep > 0 -> ()
        | Ok _ -> Alcotest.fail "truncated frame must not parse"
        | Error _ ->
          Alcotest.failf "truncation at %d: wrong error class" keep)
  done;
  (* an oversized length header is rejected before any allocation *)
  with_socketpair (fun a b ->
      let h = Bytes.create 8 in
      Bytes.set_int32_le h 0 0x7FFFFFFFl;
      Bytes.set_int32_le h 4 0l;
      ignore (Unix.write a h 0 8);
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match Proto.read_frame b with
      | Error (Proto.Malformed _) -> ()
      | _ -> Alcotest.fail "oversized frame must be malformed")

(* --- conformance: daemon result = one-shot result -------------------------- *)

let universes = [ Session.Input; Session.Output; Session.Both ]

let conformance_configs =
  [
    ("default", Engine.default_config);
    ("sat", { Engine.default_config with Engine.engine = Engine.Sat });
    (* tiny deterministic budget: the degraded path must conform too *)
    ("capped", { Engine.default_config with Engine.max_states = Some 2 });
    ( "capped-transitions",
      { Engine.default_config with Engine.max_transitions = Some 40 } );
    (* symbolic engine with reordering and a non-default quantification
       schedule: representation knobs must render identically up to the
       elapsed wall-clock, which the comparison normalizes away. *)
    ( "bdd-sift",
      {
        Engine.default_config with
        Engine.engine = Engine.Bdd;
        reorder = Satg_bdd.Bdd.Reorder_sift;
        cluster_cap = 64;
      } );
  ]

let test_atpg_conformance () =
  let netlist = Parser.to_string (Figures.celem_handshake ()) in
  let c = parse_exn netlist in
  List.iter
    (fun jobs ->
      with_service ~jobs @@ fun service ->
      List.iter
        (fun (label, config) ->
          List.iter
            (fun universe ->
              let expected = oneshot ~jobs ~config c universe in
              match
                Service.handle service
                  (Proto.Atpg { Proto.netlist; universe; config })
              with
              | Proto.Result { hit = false; payload } ->
                Alcotest.(check string)
                  (Printf.sprintf "%s/%s/-j%d" label
                     (Session.universe_name universe) jobs)
                  (rendered_no_time c expected) (rendered_no_time c payload)
              | Proto.Result { hit = true; _ } ->
                Alcotest.fail "fresh request must not be a warm hit"
              | _ -> Alcotest.fail "atpg must answer Result")
            universes)
        conformance_configs)
    [ 1; 4 ]

let test_cssg_conformance () =
  let netlist = Parser.to_string (Figures.fig1a ()) in
  let c = parse_exn netlist in
  List.iter
    (fun (max_states, dump) ->
      (* the one-shot [satg cssg] path *)
      let guard = Guard.create ?max_states () in
      let g = Explicit.build ~guard c in
      let expected =
        if dump then Format.asprintf "%a@." Cssg.pp g
        else Format.asprintf "%a@." Cssg.pp_stats g
      in
      with_service @@ fun service ->
      match
        Service.handle service
          (Proto.Cssg
             {
               Proto.c_netlist = netlist;
               c_k = None;
               c_dump = dump;
               c_timeout = None;
               c_max_states = max_states;
               c_max_transitions = None;
             })
      with
      | Proto.Text { degraded; text } ->
        Alcotest.(check string) "cssg text conforms" expected text;
        Alcotest.(check bool) "degraded iff truncated"
          (Cssg.truncated g <> None)
          degraded
      | _ -> Alcotest.fail "cssg must answer Text")
    [ (None, false); (None, true); (Some 2, false) ]

let test_check_conformance () =
  let netlist = Parser.to_string (Figures.mutex_latch ()) in
  let c = parse_exn netlist in
  with_service @@ fun service ->
  (match Service.handle service (Proto.Check netlist) with
  | Proto.Text { degraded = false; text } ->
    Alcotest.(check string) "check report conforms"
      (Session.check_report c) text
  | _ -> Alcotest.fail "valid netlist must answer Text");
  (* lint findings come back structured, identical to the local linter *)
  let bad = "input a\ngate q = nand(a, zz)\n" in
  match (Service.handle service (Proto.Check bad), Parser.lint_string bad) with
  | Proto.Diags got, expected ->
    Alcotest.(check bool) "lint diags non-empty" true (expected <> []);
    Alcotest.(check (list (pair int string)))
      "diags conform"
      (List.map (fun d -> (d.Parser.line, d.Parser.msg)) expected)
      (List.map (fun d -> (d.Parser.line, d.Parser.msg)) got)
  | _ -> Alcotest.fail "broken netlist must answer Diags"

(* --- warm store ------------------------------------------------------------ *)

let test_warm_hit () =
  let netlist = Parser.to_string (Figures.celem_handshake ()) in
  let c = parse_exn netlist in
  (* a deterministically capped (degraded!) run is still reproducible,
     so even it is served warm *)
  let config = { Engine.default_config with Engine.max_states = Some 3 } in
  let req = Proto.Atpg { Proto.netlist; universe = Session.Input; config } in
  with_service @@ fun service ->
  let first =
    match Service.handle service req with
    | Proto.Result { hit = false; payload } -> payload
    | _ -> Alcotest.fail "first request must be a cold miss"
  in
  (match Service.handle service req with
  | Proto.Result { hit = true; payload } ->
    Alcotest.(check string) "hit replays the same bytes" (rendered c first)
      (rendered c payload)
  | Proto.Result { hit = false; _ } ->
    Alcotest.fail "identical request must be a warm hit"
  | _ -> Alcotest.fail "atpg must answer Result");
  let fields = get_stats service in
  Alcotest.(check string) "one miss" "1" (stat fields "misses");
  Alcotest.(check string) "one hit" "1" (stat fields "hits");
  (* the hit did zero graph work: still exactly one build *)
  Alcotest.(check string) "one cssg build" "1" (stat fields "cssg-builds")

let test_warm_store_is_keyed () =
  let netlist = Parser.to_string (Figures.celem_handshake ()) in
  with_service @@ fun service ->
  let ask config =
    match
      Service.handle service
        (Proto.Atpg { Proto.netlist; universe = Session.Input; config })
    with
    | Proto.Result { hit; _ } -> hit
    | _ -> Alcotest.fail "atpg must answer Result"
  in
  Alcotest.(check bool) "cold" false (ask Engine.default_config);
  (* a different cap is a different result — must not be served warm *)
  Alcotest.(check bool) "different caps miss" false
    (ask { Engine.default_config with Engine.max_states = Some 3 });
  (* jobs is not part of the identity: same key, warm *)
  Alcotest.(check bool) "jobs-only difference hits" true
    (ask { Engine.default_config with Engine.jobs = 4 });
  (* reorder and cluster-cap are outcome-relevant config: both must be
     part of the cache key even though they never change the graph *)
  Alcotest.(check bool) "reorder-only difference misses" false
    (ask
       { Engine.default_config with Engine.reorder = Satg_bdd.Bdd.Reorder_sift });
  Alcotest.(check bool) "cluster-cap-only difference misses" false
    (ask { Engine.default_config with Engine.cluster_cap = 7 });
  Alcotest.(check bool) "reorder repeat hits" true
    (ask
       { Engine.default_config with Engine.reorder = Satg_bdd.Bdd.Reorder_sift })

(* config_fields is the single enumeration behind cache keys, batch
   groups and the wire protocol: every new outcome-relevant field must
   appear there and round-trip through the decoder. *)
let test_config_fields_cover_reorder () =
  let config =
    {
      Engine.default_config with
      Engine.engine = Engine.Bdd;
      reorder = Satg_bdd.Bdd.Reorder_sift;
      cluster_cap = 17;
      max_states = Some 9;
    }
  in
  let fields = Session.config_fields ~universe:Session.Input config in
  let get k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> Alcotest.fail ("config_fields misses " ^ k)
  in
  Alcotest.(check string) "reorder row" "sift" (get "reorder");
  Alcotest.(check string) "cluster-cap row" "17" (get "cluster-cap");
  Alcotest.(check string) "default reorder name" "none"
    (Session.reorder_name Engine.default_config.Engine.reorder);
  (match Session.config_of_fields fields with
  | Some (universe, c) ->
    Alcotest.(check bool) "universe back" true (universe = Session.Input);
    Alcotest.(check string) "reorder back" "sift"
      (Session.reorder_name c.Engine.reorder);
    Alcotest.(check int) "cluster-cap back" 17 c.Engine.cluster_cap
  | None -> Alcotest.fail "fields must parse back");
  (* a malformed reorder value is rejected, not defaulted *)
  let broken =
    List.map
      (fun (k, v) -> if k = "reorder" then (k, "bogus") else (k, v))
      fields
  in
  Alcotest.(check bool) "bogus reorder rejected" true
    (Session.config_of_fields broken = None)

let test_disk_store_shared () =
  (* daemon publishes to --cache-dir; a second daemon (fresh memory)
     serves it warm from disk *)
  with_dir @@ fun d ->
  let netlist = Parser.to_string (Figures.fig1a ()) in
  let req =
    Proto.Atpg
      {
        Proto.netlist;
        universe = Session.Input;
        config = Engine.default_config;
      }
  in
  (with_service ~cache_dir:d @@ fun service ->
   match Service.handle service req with
   | Proto.Result { hit = false; _ } -> ()
   | _ -> Alcotest.fail "first daemon: cold miss expected");
  with_service ~cache_dir:d @@ fun service ->
  match Service.handle service req with
  | Proto.Result { hit = true; _ } -> ()
  | _ -> Alcotest.fail "second daemon must hit the disk store"

(* --- batches ---------------------------------------------------------------- *)

let test_batch_shares_cssg () =
  let netlist = Parser.to_string (Figures.celem_handshake ()) in
  let c = parse_exn netlist in
  let config = Engine.default_config in
  let member universe = Proto.Atpg { Proto.netlist; universe; config } in
  with_service @@ fun service ->
  (match Service.handle service (Proto.Batch (List.map member universes)) with
  | Proto.Batch_r responses ->
    Alcotest.(check int) "one response per member" (List.length universes)
      (List.length responses);
    List.iter2
      (fun universe response ->
        match response with
        | Proto.Result { payload; _ } ->
          Alcotest.(check string)
            ("batch member conforms: " ^ Session.universe_name universe)
            (rendered c (oneshot ~config c universe))
            (rendered c payload)
        | _ -> Alcotest.fail "batch member must answer Result")
      universes responses
  | _ -> Alcotest.fail "batch must answer Batch_r");
  let fields = get_stats service in
  Alcotest.(check string) "three members, one graph build" "1"
    (stat fields "cssg-builds");
  Alcotest.(check string) "three members" "3" (stat fields "batch-members")

let test_batch_isolation () =
  (* the middle member blows a deterministic budget: it degrades alone,
     its neighbours (and their conformance) are untouched *)
  let netlist = Parser.to_string (Figures.celem_handshake ()) in
  let c = parse_exn netlist in
  let ok_config = Engine.default_config in
  let tripped_config =
    { Engine.default_config with Engine.max_states = Some 2 }
  in
  let member config universe =
    Proto.Atpg { Proto.netlist; universe; config }
  in
  with_service @@ fun service ->
  match
    Service.handle service
      (Proto.Batch
         [
           member ok_config Session.Input;
           member tripped_config Session.Input;
           member ok_config Session.Output;
         ])
  with
  | Proto.Batch_r
      [
        Proto.Result { payload = p1; _ };
        Proto.Result { payload = p2; _ };
        Proto.Result { payload = p3; _ };
      ] ->
    Alcotest.(check bool) "member 1 complete" false (Session.degraded p1);
    Alcotest.(check bool) "member 2 degraded" true (Session.degraded p2);
    Alcotest.(check bool) "member 3 complete" false (Session.degraded p3);
    Alcotest.(check string) "member 2 conforms to its own one-shot"
      (rendered c (oneshot ~config:tripped_config c Session.Input))
      (rendered c p2);
    Alcotest.(check string) "member 3 conforms after the trip"
      (rendered c (oneshot ~config:ok_config c Session.Output))
      (rendered c p3)
  | _ -> Alcotest.fail "batch must answer three Results"

let test_batch_bad_member_isolated () =
  (* an unparsable member is a structured failure, not a batch killer *)
  let netlist = Parser.to_string (Figures.fig1a ()) in
  with_service @@ fun service ->
  match
    Service.handle service
      (Proto.Batch
         [
           Proto.Atpg
             {
               Proto.netlist = "not a netlist";
               universe = Session.Input;
               config = Engine.default_config;
             };
           Proto.Atpg
             {
               Proto.netlist;
               universe = Session.Input;
               config = Engine.default_config;
             };
         ])
  with
  | Proto.Batch_r [ Proto.Failure { code; _ }; Proto.Result _ ] ->
    Alcotest.(check string) "parse failure" "parse" code
  | _ -> Alcotest.fail "bad member must fail alone"

(* --- shared builds ----------------------------------------------------------- *)

let shared_netlists =
  List.map
    (fun f -> Parser.to_string (f ()))
    [ Figures.celem_handshake; Figures.mutex_latch; Figures.fig1a ]

(* A request the warm store must not answer; [count_builds] reads the
   two build counters. *)
let ask_miss service netlist universe config =
  match
    Service.handle service (Proto.Atpg { Proto.netlist; universe; config })
  with
  | Proto.Result { hit = false; payload } -> payload
  | Proto.Result { hit = true; _ } -> Alcotest.fail "every request must miss"
  | _ -> Alcotest.fail "atpg must answer Result"

let count_builds service =
  let fields = get_stats service in
  ( int_of_string (stat fields "cssg-builds"),
    int_of_string (stat fields "symbolic-builds") )

(* One service answers every netlist x engine x universe x TPG seed,
   and a sifting, a state-capped, a generously timed and a
   cluster-capped BDD config on every netlist and universe.  Every
   answer renders like a fresh one-shot run, and the service builds
   each graph and each unsifted symbolic build once: one per distinct
   key, where a sifting manager is never shared. *)
let test_builds_once_per_key () =
  let seeded engine seed =
    {
      Engine.default_config with
      Engine.engine;
      random = { Engine.default_config.Engine.random with Random_tpg.seed };
    }
  in
  let bdd = { Engine.default_config with Engine.engine = Engine.Bdd } in
  let configs =
    List.concat_map
      (fun engine -> List.map (seeded engine) [ 1; 2 ])
      [ Engine.Explicit; Engine.Sat; Engine.Bdd ]
    @ [
        { bdd with Engine.reorder = Satg_bdd.Bdd.Reorder_sift };
        { bdd with Engine.max_states = Some 3 };
        { bdd with Engine.timeout = Some 600. };
        { bdd with Engine.cluster_cap = 64 };
      ]
  in
  let requests =
    List.concat_map
      (fun (i, netlist) ->
        List.concat_map
          (fun config -> List.map (fun u -> (i, netlist, u, config)) universes)
          configs)
      (List.mapi (fun i n -> (i, n)) shared_netlists)
  in
  with_service @@ fun service ->
  List.iteri
    (fun n (i, netlist, universe, config) ->
      let c = parse_exn netlist in
      Alcotest.(check string)
        (Printf.sprintf "request %d (netlist %d, %s)" n i
           (Session.universe_name universe))
        (rendered_no_time c (oneshot ~config c universe))
        (rendered_no_time c (ask_miss service netlist universe config)))
    requests;
  let distinct l = List.length (List.sort_uniq compare l) in
  let graph (i, _, _, (c : Engine.config)) =
    (i, c.Engine.k, c.Engine.timeout, c.Engine.max_states, c.Engine.max_transitions)
  in
  let symbolic n ((_, _, _, (c : Engine.config)) as r) =
    match (c.Engine.engine, c.Engine.reorder) with
    | Engine.Bdd, Satg_bdd.Bdd.Reorder_none -> Some (graph r, c.Engine.cluster_cap, -1)
    | Engine.Bdd, Satg_bdd.Bdd.Reorder_sift -> Some (graph r, c.Engine.cluster_cap, n)
    | (Engine.Explicit | Engine.Sat), _ -> None
  in
  let cssg_builds, symbolic_builds = count_builds service in
  Alcotest.(check int) "one graph build per graph key"
    (distinct (List.map graph requests)) cssg_builds;
  Alcotest.(check int) "one symbolic build per symbolic key, per sifting request"
    (distinct (List.filter_map Fun.id (List.mapi symbolic requests)))
    symbolic_builds;
  Alcotest.(check (pair int int)) "3 graph keys, 7 symbolic builds per netlist"
    (9, 21) (cssg_builds, symbolic_builds)

(* A build that a deadline cut is not reproducible, so it is never
   kept: two identical requests under an expired deadline each build,
   both graphs.  Neither answer is stored either. *)
let test_deadline_cut_builds_again () =
  let netlist = List.hd shared_netlists in
  let config =
    { Engine.default_config with Engine.engine = Engine.Bdd; timeout = Some (-1.) }
  in
  with_service @@ fun service ->
  List.iter
    (fun n ->
      let p = ask_miss service netlist Session.Input config in
      Alcotest.(check bool) "deadline cut the graph" true
        (p.Session.truncated = Some Guard.Timeout);
      Alcotest.(check (pair int int)) "each request builds" (n, n)
        (count_builds service))
    [ 1; 2 ]

(* With the fault-injection harness armed nothing is kept: every
   request builds.  Disarmed, the same service keeps again. *)
let test_inject_keeps_nothing () =
  let netlist = List.hd shared_netlists in
  let config = { Engine.default_config with Engine.engine = Engine.Bdd } in
  with_service @@ fun service ->
  Test_store.with_inject "bdd.collect=force@p1" (fun () ->
      List.iter (fun u -> ignore (ask_miss service netlist u config)) universes);
  Alcotest.(check (pair int int)) "armed: every request builds" (3, 3)
    (count_builds service);
  List.iter
    (fun u -> ignore (ask_miss service netlist u config))
    [ Session.Input; Session.Output ];
  Alcotest.(check (pair int int)) "disarmed: one more build, then shared" (4, 4)
    (count_builds service)

(* --- the daemon over a real socket ----------------------------------------- *)

(* The daemon under test is the real [satg serve] binary, spawned with
   [Unix.create_process]: [Unix.fork] is forbidden once any domain has
   ever been created in the process (earlier suites spin up pools), and
   a separate image is the stronger end-to-end test anyway. *)
let satg_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "satg.exe")

let spawn_daemon socket =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () ->
      Unix.create_process satg_exe
        [| satg_exe; "serve"; "--socket"; socket |]
        Unix.stdin devnull devnull)

let expect_exit pid expected what =
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED n when n = expected -> ()
  | Unix.WEXITED n -> Alcotest.failf "%s: exit %d (wanted %d)" what n expected
  | Unix.WSIGNALED s -> Alcotest.failf "%s: killed by signal %d" what s
  | Unix.WSTOPPED _ -> Alcotest.failf "%s: stopped" what

let send_raw socket bytes =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      ignore (Unix.write fd bytes 0 (Bytes.length bytes));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      (* wait for the daemon to drop the connection, so the counters
         below are deterministic *)
      ignore (Unix.read fd (Bytes.create 1) 0 1))

let test_daemon_end_to_end () =
  with_dir @@ fun d ->
  let socket = d // "satg.sock" in
  let pid = spawn_daemon socket in
  let netlist = Parser.to_string (Figures.celem_handshake ()) in
  let c = parse_exn netlist in
  Fun.protect ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [ Unix.WNOHANG ] pid)
      with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ask req =
    match Client.one_shot ~retry_for:10. ~socket req with
    | Ok r -> r
    | Error m -> Alcotest.fail ("client: " ^ m)
  in
  (* check over the wire *)
  (match ask (Proto.Check netlist) with
  | Proto.Text { degraded = false; text } ->
    Alcotest.(check string) "check over the wire"
      (Session.check_report c) text
  | _ -> Alcotest.fail "check must answer Text");
  (* a deliberately corrupted frame (bad CRC) and a torn frame: both
     cost their connection, never the daemon *)
  send_raw socket
    (let b = Bytes.create 12 in
     Bytes.set_int32_le b 0 4l;
     Bytes.set_int32_le b 4 0l;
     Bytes.blit_string "abcd" 0 b 8 4;
     b);
  send_raw socket
    (let b = Bytes.create 10 in
     Bytes.set_int32_le b 0 100l;
     Bytes.set_int32_le b 4 0l;
     b);
  (* still serving: a real run, then its warm repeat *)
  let config = { Engine.default_config with Engine.max_states = Some 3 } in
  let req = Proto.Atpg { Proto.netlist; universe = Session.Input; config } in
  let first =
    match ask req with
    | Proto.Result { hit = false; payload } -> payload
    | _ -> Alcotest.fail "cold miss expected"
  in
  Alcotest.(check bool) "tiny budget degrades" true (Session.degraded first);
  (match ask req with
  | Proto.Result { hit = true; payload } ->
    Alcotest.(check string) "warm replay over the wire" (rendered c first)
      (rendered c payload)
  | _ -> Alcotest.fail "warm hit expected");
  (* counters saw all of it *)
  (match ask Proto.Stats with
  | Proto.Stats_r fields ->
    Alcotest.(check string) "malformed frames" "2"
      (stat fields "malformed-frames");
    Alcotest.(check string) "hits" "1" (stat fields "hits");
    Alcotest.(check string) "misses" "1" (stat fields "misses")
  | _ -> Alcotest.fail "stats must answer Stats_r");
  (* graceful drain: SIGTERM => exit 0, socket unlinked *)
  Unix.kill pid Sys.sigterm;
  expect_exit pid 0 "drained daemon";
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)

let test_daemon_reclaims_stale_socket () =
  with_dir @@ fun d ->
  let socket = d // "satg.sock" in
  let first = spawn_daemon socket in
  (* make sure it is up, then kill it hard: the socket file survives *)
  (match Client.one_shot ~retry_for:10. ~socket Proto.Stats with
  | Ok (Proto.Stats_r _) -> ()
  | _ -> Alcotest.fail "first daemon must serve");
  Unix.kill first Sys.sigkill;
  ignore (Unix.waitpid [] first);
  Alcotest.(check bool) "socket file left behind" true (Sys.file_exists socket);
  (* a fresh daemon reclaims the corpse and serves *)
  let second = spawn_daemon socket in
  Fun.protect ~finally:(fun () ->
      try Unix.kill second Sys.sigkill with Unix.Unix_error _ -> ())
  @@ fun () ->
  (match Client.one_shot ~retry_for:10. ~socket Proto.Stats with
  | Ok (Proto.Stats_r _) -> ()
  | _ -> Alcotest.fail "second daemon must reclaim and serve");
  Unix.kill second Sys.sigterm;
  expect_exit second 0 "second daemon"

(* [satg ARGS] on the real binary: its exit code and its stderr. *)
let run_satg d args =
  let err_file = d // "stderr" in
  let err = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull; Unix.close err)
      (fun () ->
        Unix.create_process satg_exe (Array.of_list (satg_exe :: args)) Unix.stdin devnull err)
  in
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _ -> Alcotest.failf "satg %s: did not exit" (String.concat " " args)
  in
  (code, In_channel.with_open_bin err_file In_channel.input_all)

(* A guard trip while sifting is enabled must stay fail-soft all the
   way out of the real binary: the partial graph renders and the exit
   code is 2, never a hang or a crash. *)
let test_cli_sift_trip_exits_partial () =
  with_dir @@ fun d ->
  let netlist_file = d // "celem.cct" in
  let oc = open_out netlist_file in
  output_string oc (Parser.to_string (Figures.celem_handshake ()));
  close_out oc;
  let code, _ =
    run_satg d
      [ "cssg"; netlist_file; "--engine"; "bdd"; "--reorder"; "sift"; "--max-transitions"; "2" ]
  in
  Alcotest.(check int) "tripped symbolic cssg with sift: exit" 2 code

(* --- circuits the builder cannot explore ----------------------------------- *)

(* [n] inputs, each buffered to an output, written to a file in [d];
   without [reset], no [initial] line. *)
let buf_farm ?(reset = true) d n =
  let names p = List.init n (Printf.sprintf "%s%d" p) in
  let file = d // Printf.sprintf "buf%d.cct" n in
  Out_channel.with_open_bin file (fun oc ->
      List.iter (Printf.fprintf oc "%s\n")
        ([ "circuit buf_farm"; "input " ^ String.concat " " (names "X") ]
        @ List.init n (fun i -> Printf.sprintf "gate Y%d BUF X%d" i i)
        @ [ "output " ^ String.concat " " (names "Y") ]
        @ (if reset then
             [ "initial " ^ String.concat " " (List.map (fun x -> x ^ "=0") (names "X" @ names "Y")) ]
           else [])
        @ [ "end" ]));
  file

let expect_error d args =
  let code, err = run_satg d args in
  let what = "satg " ^ String.concat " " args in
  Alcotest.(check int) (what ^ ": exit") 1 code;
  Alcotest.(check bool) (what ^ ": error line") true (String.starts_with ~prefix:"error: " err)

(* Input vectors are enumerated as int masks: 62 inputs still build
   (here to a transition cap), 63 and 64 are refused, in process and at
   the CLI, instead of yielding a wrong graph. *)
let test_cli_too_many_inputs () =
  with_dir @@ fun d ->
  let code, _ = run_satg d [ "cssg"; buf_farm d 62; "--max-transitions"; "100" ] in
  Alcotest.(check int) "62 inputs: truncated build" 2 code;
  List.iter
    (fun n ->
      let file = buf_farm d n in
      (match Satg_sg.Explicit.build (parse_exn (In_channel.with_open_bin file In_channel.input_all)) with
      | _ -> Alcotest.failf "%d inputs: build must refuse" n
      | exception Invalid_argument _ -> ());
      expect_error d [ "cssg"; file ];
      expect_error d [ "atpg"; file; "-u"; "output"; "--no-random" ])
    [ 63; 64 ]

let test_cli_no_reset_state () =
  with_dir @@ fun d ->
  let file = buf_farm ~reset:false d 2 in
  expect_error d [ "cssg"; file ];
  expect_error d [ "atpg"; file ]

(* --- piped input ---------------------------------------------------------- *)

(* [satg ARGS1 | satg ARGS2] over a real pipe: the consumer's exit code
   and stdout.  The producer must succeed. *)
let run_piped d args1 args2 =
  let out_file = d // "stdout" in
  let out =
    Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let r, w = Unix.pipe ~cloexec:true () in
  let spawn args stdin stdout =
    Unix.create_process satg_exe
      (Array.of_list (satg_exe :: args))
      stdin stdout devnull
  in
  let producer = spawn args1 Unix.stdin w in
  Unix.close w;
  let consumer = spawn args2 r out in
  List.iter Unix.close [ r; out; devnull ];
  let code pid =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _ -> Alcotest.fail "satg did not exit"
  in
  let produced = code producer in
  let consumed = code consumer in
  Alcotest.(check int) ("satg " ^ String.concat " " args1 ^ ": exit") 0 produced;
  (consumed, In_channel.with_open_bin out_file In_channel.input_all)

(* A spec or a netlist on a pipe is read to end of file, once: the
   pipe gives what a file would. *)
let test_cli_reads_pipes () =
  with_dir @@ fun d ->
  let dff = Option.get (Suite.find "dff") in
  let netlist =
    Parser.to_string (Result.get_ok (Satg_stg.Synth.decomposed ~redundant:true dff.Suite.stg))
  in
  let code, out =
    run_piped d [ "bench"; "dff" ] [ "synth"; "-b"; "redundant"; "/dev/stdin" ]
  in
  Alcotest.(check int) "bench | synth: exit" 0 code;
  Alcotest.(check string) "bench | synth = synth of the spec" netlist out;
  let code, out =
    run_piped d [ "gen"; "latch"; "-n"; "2"; "--style"; "redundant" ]
      [ "check"; "/dev/stdin" ]
  in
  Alcotest.(check int) "gen | check: exit" 0 code;
  Alcotest.(check bool) "gen | check: report" true
    (String.starts_with ~prefix:"circuit latch2_hf:" out)

let suites =
  [
    ( "server_proto",
      [
        Alcotest.test_case "request round trips" `Quick test_request_roundtrip;
        Alcotest.test_case "response round trips" `Quick
          test_response_roundtrip;
        QCheck_alcotest.to_alcotest frame_roundtrip_prop;
        Alcotest.test_case "truncated/oversized frames" `Quick
          test_truncated_frames;
      ] );
    ( "server_service",
      [
        Alcotest.test_case "atpg conforms to one-shot (all engines, \
                            budgets, -j)" `Slow test_atpg_conformance;
        Alcotest.test_case "cssg conforms to one-shot" `Quick
          test_cssg_conformance;
        Alcotest.test_case "check conforms; lint is structured" `Quick
          test_check_conformance;
        Alcotest.test_case "warm hit replays bytes, zero builds" `Quick
          test_warm_hit;
        Alcotest.test_case "warm store keyed by config" `Quick
          test_warm_store_is_keyed;
        Alcotest.test_case "config fields cover reorder knobs" `Quick
          test_config_fields_cover_reorder;
        Alcotest.test_case "disk store shared across daemons" `Quick
          test_disk_store_shared;
        Alcotest.test_case "batch: one CSSG build per group" `Quick
          test_batch_shares_cssg;
        Alcotest.test_case "batch: tripped member degrades alone" `Quick
          test_batch_isolation;
        Alcotest.test_case "batch: unparsable member fails alone" `Quick
          test_batch_bad_member_isolated;
        Alcotest.test_case "one build per key, answers = one-shot" `Quick
          test_builds_once_per_key;
        Alcotest.test_case "deadline-cut builds are not kept" `Quick
          test_deadline_cut_builds_again;
        Alcotest.test_case "armed injection keeps no build" `Quick
          test_inject_keeps_nothing;
      ] );
    ( "server_daemon",
      [
        Alcotest.test_case "end to end over a socket" `Quick
          test_daemon_end_to_end;
        Alcotest.test_case "stale socket reclaimed" `Quick
          test_daemon_reclaims_stale_socket;
        Alcotest.test_case "sift trip exits 2" `Quick
          test_cli_sift_trip_exits_partial;
      ] );
    ( "cli",
      [
        Alcotest.test_case "too many inputs exit 1" `Quick
          test_cli_too_many_inputs;
        Alcotest.test_case "no reset state exits 1" `Quick
          test_cli_no_reset_state;
        Alcotest.test_case "specs and netlists on a pipe" `Quick
          test_cli_reads_pipes;
      ] );
  ]
