(* Durable-store contract tests: CRC known answers, journal
   roundtrip/rotation/torn-tail salvage, the qcheck corruption property
   (any truncation or bit flip yields a salvaged valid prefix or a
   clean reject, never a crash or an invented record), lockfile
   staleness, the fault-injection harness, and the headline resume
   property: a session resumed from any journal prefix reproduces the
   uninterrupted run fault-for-fault. *)

open Satg_guard
open Satg_fault
open Satg_core
open Satg_bench
open Satg_inject
open Satg_store

let ( // ) = Filename.concat
let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.get_temp_dir_name ()
    // Printf.sprintf "satg-store-test-%d-%d" (Unix.getpid ()) !dir_counter
  in
  Journal.mkdir_p d;
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

let with_inject spec f =
  (match Inject.configure spec with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("bad inject spec: " ^ m));
  Fun.protect ~finally:Inject.clear f

let is_prefix ~of_:full prefix =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | p :: ps, f :: fs -> p = f && go (ps, fs)
  in
  go (prefix, full)

(* --- crc32 ---------------------------------------------------------------- *)

let test_crc_known () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check bool) "sensitive to one bit" true
    (Crc32.string "satg" <> Crc32.string "sati")

(* --- journal -------------------------------------------------------------- *)

let records =
  [ "alpha"; ""; "with\nnewline"; String.make 100 '\xAB'; "z" ]

let test_journal_roundtrip () =
  with_dir @@ fun d ->
  let j = Journal.create ~meta:"key1" (d // "wal") in
  List.iter (Journal.append j) records;
  Alcotest.(check int) "appended" (List.length records)
    (Journal.entries_appended j);
  Journal.close j;
  match Journal.replay (d // "wal") with
  | Error m -> Alcotest.fail m
  | Ok r ->
    Alcotest.(check (list string)) "entries" records r.Journal.entries;
    Alcotest.(check int) "clean" 0 r.Journal.salvaged_bytes;
    Alcotest.(check string) "meta pinned" "key1" r.Journal.meta

let test_journal_rotation () =
  with_dir @@ fun d ->
  let j = Journal.create ~segment_bytes:32 ~meta:"" (d // "wal") in
  let recs = List.init 40 (fun i -> Printf.sprintf "record-%03d" i) in
  List.iter (Journal.append j) recs;
  Journal.close j;
  let sealed =
    Sys.readdir (d // "wal") |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".seg")
  in
  Alcotest.(check bool) "rotated into several segments" true
    (List.length sealed > 2);
  match Journal.replay (d // "wal") with
  | Error m -> Alcotest.fail m
  | Ok r -> Alcotest.(check (list string)) "order kept" recs r.Journal.entries

let test_journal_torn_tail () =
  with_dir @@ fun d ->
  let j = Journal.create ~meta:"" (d // "wal") in
  List.iter (Journal.append j) records;
  (* simulate a crash mid-append: garbage lands after the last durable
     record, and the process never seals the segment *)
  let open_seg = d // "wal" // "wal-000001.open" in
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 open_seg
  in
  output_string oc "\x05\x00\x00\x00torngarbage";
  close_out oc;
  (match Journal.replay (d // "wal") with
  | Error m -> Alcotest.fail m
  | Ok r ->
    Alcotest.(check (list string)) "prefix salvaged" records r.Journal.entries;
    Alcotest.(check bool) "tail discarded" true (r.Journal.salvaged_bytes > 0));
  (* resume truncates the torn tail and appends continue cleanly *)
  match Journal.open_resume (d // "wal") with
  | Error m -> Alcotest.fail m
  | Ok (j, recovery) ->
    Alcotest.(check int) "resume sees the prefix" (List.length records)
      (List.length recovery.Journal.entries);
    Journal.append j "after-crash";
    Journal.close j;
    (match Journal.replay (d // "wal") with
    | Error m -> Alcotest.fail m
    | Ok r ->
      Alcotest.(check (list string))
        "append after salvage"
        (records @ [ "after-crash" ])
        r.Journal.entries)

let test_journal_sealed_corruption_rejected () =
  with_dir @@ fun d ->
  let j = Journal.create ~segment_bytes:16 ~meta:"" (d // "wal") in
  List.iter (Journal.append j) records;
  Journal.close j;
  let seg = d // "wal" // "wal-000001.seg" in
  let ic = open_in_bin seg in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let body = Bytes.of_string body in
  let pos = Bytes.length body - 2 in
  Bytes.set body pos (Char.chr (Char.code (Bytes.get body pos) lxor 0x40));
  let oc = open_out_bin seg in
  output_bytes oc body;
  close_out oc;
  match Journal.replay (d // "wal") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt sealed segment must be rejected"

let test_journal_missing_meta () =
  with_dir @@ fun d ->
  let j = Journal.create ~meta:"" (d // "wal") in
  Journal.close j;
  Sys.remove (d // "wal" // "meta");
  match Journal.replay (d // "wal") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing meta must be rejected"

(* The salvage contract, property-tested: start from any journal (mixed
   sealed/open segments), truncate it anywhere or flip any byte, and
   replay must produce a valid prefix of what was appended or a clean
   [Error] — never an exception, never a record that was not written. *)
let journal_corruption_prop =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 1 30)
           (string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 24)))
        (int_range 0 5000) bool)
  in
  QCheck.Test.make ~count:150
    ~name:"journal: truncate/flip => salvaged prefix or clean reject"
    (QCheck.make gen) (fun (recs, pos_seed, flip) ->
      with_dir @@ fun d ->
      let j = Journal.create ~segment_bytes:64 ~meta:"m" (d // "wal") in
      List.iter (Journal.append j) recs;
      (* leave the journal unsealed: the last segment stays .open, like
         a crash.  (close would seal it; both shapes are exercised
         because some generated cases rotate.) *)
      ignore j;
      let files =
        Sys.readdir (d // "wal") |> Array.to_list
        |> List.filter (fun f ->
               Filename.check_suffix f ".seg"
               || Filename.check_suffix f ".open")
        |> List.sort compare
      in
      let sizes =
        List.map (fun f -> (f, (Unix.stat (d // "wal" // f)).Unix.st_size))
          files
      in
      let total = List.fold_left (fun a (_, s) -> a + s) 0 sizes in
      if total > 0 then begin
        let pos = pos_seed mod total in
        (* locate (file, offset) for the global byte position *)
        let rec locate pos = function
          | [] -> assert false
          | (f, s) :: rest -> if pos < s then (f, pos) else locate (pos - s) rest
        in
        let f, off = locate pos sizes in
        let path = d // "wal" // f in
        if flip then begin
          let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
          let b = Bytes.create 1 in
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          ignore (Unix.read fd b 0 1);
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          ignore (Unix.write fd b 0 1);
          Unix.close fd
        end
        else begin
          (* truncate the journal-as-a-byte-stream: shorten this
             segment and drop every later one *)
          Unix.truncate path off;
          List.iter
            (fun (g, _) -> if g > f then Sys.remove (d // "wal" // g))
            sizes
        end
      end;
      match Journal.replay (d // "wal") with
      | Error _ -> true
      | Ok r -> is_prefix ~of_:recs r.Journal.entries)

(* --- lock ----------------------------------------------------------------- *)

let test_lock_exclusive () =
  with_dir @@ fun d ->
  let p = d // "lock" in
  (match Lock.acquire p with Ok () -> () | Error m -> Alcotest.fail m);
  (match Lock.acquire p with
  | Ok () -> Alcotest.fail "second acquire must fail (same live pid)"
  | Error _ -> ());
  Lock.release p;
  match Lock.acquire p with Ok () -> () | Error m -> Alcotest.fail m

let test_lock_steals_dead_owner () =
  with_dir @@ fun d ->
  let p = d // "lock" in
  (* forge a lockfile owned by a same-host pid that no longer exists *)
  let oc = open_out p in
  Printf.fprintf oc "pid %d\nhost %s\ntime 0.0\n" 999999983
    (Unix.gethostname ());
  close_out oc;
  match Lock.acquire p with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("should steal stale lock: " ^ m)

let test_lock_respects_foreign_fresh () =
  with_dir @@ fun d ->
  let p = d // "lock" in
  let oc = open_out p in
  Printf.fprintf oc "pid 1\nhost not-this-host.example\ntime 0.0\n";
  close_out oc;
  (* fresh mtime, foreign host: cannot probe the pid, must not steal *)
  match Lock.acquire ~stale_after:3600.0 p with
  | Ok () -> Alcotest.fail "must not steal a fresh foreign lock"
  | Error _ -> (
    (* but an aged foreign lock is fair game (negative threshold so the
       fresh mtime counts as aged without sleeping) *)
    match Lock.acquire ~stale_after:(-1.0) p with
    | Ok () -> ()
    | Error m -> Alcotest.fail ("aged foreign lock should be stolen: " ^ m))

(* --- inject --------------------------------------------------------------- *)

let test_inject_nth_once () =
  with_inject "a.site=boom@3" @@ fun () ->
  let fired =
    List.init 6 (fun _ -> Inject.probe "a.site" <> None)
  in
  Alcotest.(check (list bool)) "3rd probe only"
    [ false; false; true; false; false; false ]
    fired;
  Alcotest.(check int) "hits counted" 6 (Inject.hits "a.site")

let test_inject_probability_deterministic () =
  let sample () =
    with_inject "seed=42,p.site=x@p0.5" @@ fun () ->
    List.init 64 (fun _ -> Inject.probe "p.site" <> None)
  in
  let a = sample () and b = sample () in
  Alcotest.(check (list bool)) "same seed, same firing pattern" a b;
  Alcotest.(check bool) "fires sometimes" true (List.mem true a);
  Alcotest.(check bool) "not always" true (List.mem false a);
  let c =
    with_inject "seed=43,p.site=x@p0.5" @@ fun () ->
    List.init 64 (fun _ -> Inject.probe "p.site" <> None)
  in
  Alcotest.(check bool) "different seed, different pattern" true (a <> c)

let test_inject_bad_spec () =
  (match Inject.configure "nonsense" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "clause without '=' must be rejected");
  (match Inject.configure "s=a@pnope" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad probability must be rejected");
  Inject.clear ();
  Alcotest.(check bool) "disarmed after clear" false (Inject.enabled ())

let test_inject_guard_trip () =
  with_inject "guard.tick=trip@2" @@ fun () ->
  let g = Guard.create () in
  Guard.tick g;
  (match Guard.tick g with
  | () -> Alcotest.fail "second tick must trip"
  | exception Guard.Exhausted Guard.Transition_limit -> ()
  | exception Guard.Exhausted _ -> Alcotest.fail "wrong trip reason");
  (* sticky: the guard stays tripped *)
  match Guard.tick g with
  | () -> Alcotest.fail "trip must be sticky"
  | exception Guard.Exhausted _ -> ()

let test_inject_engine_fail_soft () =
  (* random mid-phase guard trips degrade the run, never crash it *)
  with_inject "seed=7,guard.tick=trip@p0.02" @@ fun () ->
  let c = Figures.celem_handshake () in
  let faults = Fault.universe_input_sa c in
  let r = Engine.run c ~faults in
  Alcotest.(check int) "every fault has an outcome" (List.length faults)
    (List.length r.Engine.outcomes)

let test_inject_journal_enospc_and_short () =
  with_dir @@ fun d ->
  (with_inject "journal.append=enospc@2" @@ fun () ->
   let j = Journal.create ~meta:"" (d // "wal") in
   Journal.append j "one";
   (match Journal.append j "two" with
   | () -> Alcotest.fail "enospc must raise"
   | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
   Journal.close j);
  (* a short write leaves a torn frame; resume salvages around it *)
  (with_inject "journal.append=short@2" @@ fun () ->
   match Journal.open_resume (d // "wal") with
   | Error m -> Alcotest.fail m
   | Ok (j, _) -> (
     Journal.append j "three";
     match Journal.append j "four" with
     | () -> Alcotest.fail "short write must raise"
     | exception Inject.Injected _ -> ()));
  Inject.clear ();
  match Journal.open_resume (d // "wal") with
  | Error m -> Alcotest.fail m
  | Ok (j, recovery) ->
    Alcotest.(check (list string)) "torn record discarded, prefix kept"
      [ "one"; "three" ] recovery.Journal.entries;
    Journal.append j "five";
    Journal.close j;
    (match Journal.replay (d // "wal") with
    | Error m -> Alcotest.fail m
    | Ok r ->
      Alcotest.(check (list string)) "clean after salvage"
        [ "one"; "three"; "five" ] r.Journal.entries)

(* --- codec ---------------------------------------------------------------- *)

let roundtrip_status st =
  match Codec.status_of_string (Codec.status_to_string st) with
  | Some st' -> st' = st
  | None -> false

let test_codec_roundtrips () =
  let faults =
    [
      Fault.Input_sa { gate = 3; pin = 1; stuck = true };
      Fault.Input_sa { gate = 0; pin = 0; stuck = false };
      Fault.Output_sa { gate = 12; stuck = false };
    ]
  in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        ("fault " ^ Codec.fault_to_string f)
        true
        (Codec.fault_of_string (Codec.fault_to_string f) = Some f))
    faults;
  let seq = [ [| true; false |]; [| false; false |] ] in
  let statuses =
    [
      Testset.Undetected;
      Testset.Aborted Guard.Timeout;
      Testset.Aborted Guard.Interrupt;
      Testset.Aborted Guard.State_limit;
      Testset.Detected { sequence = seq; phase = Testset.Random };
      Testset.Detected { sequence = []; phase = Testset.Three_phase };
      Testset.Detected { sequence = seq; phase = Testset.Fault_simulation };
    ]
  in
  List.iter
    (fun st ->
      Alcotest.(check bool)
        ("status " ^ Codec.status_to_string st)
        true (roundtrip_status st))
    statuses;
  Alcotest.(check bool) "garbage rejected" true
    (Codec.status_of_string "D:q:10" = None
    && Codec.fault_of_string "i:x:0:1" = None
    && Codec.entry_of_string "nopipe" = None);
  let payload =
    {
      Codec.faults_searched = 7;
      truncated = Some Guard.State_limit;
      cpu_seconds = 1.25;
      stats_line = "CSSG(x, k=4): 3 stable states";
      outcomes = List.map (fun f -> (f, List.hd statuses)) faults;
    }
  in
  match Codec.result_of_string (Codec.result_to_string payload) with
  | Ok p -> Alcotest.(check bool) "payload roundtrip" true (p = payload)
  | Error m -> Alcotest.fail m

(* --- cache ---------------------------------------------------------------- *)

let test_cache_roundtrip_and_corruption () =
  with_dir @@ fun d ->
  let key = Cache.key_of_parts [ ("a", "1"); ("b", "2") ] in
  Alcotest.(check bool) "key is hex md5" true (String.length key = 32);
  Alcotest.(check bool) "miss before publish" true
    (Cache.lookup ~dir:d key = None);
  Cache.publish ~dir:d key "payload-bytes";
  Alcotest.(check (option string)) "hit" (Some "payload-bytes")
    (Cache.lookup ~dir:d key);
  (* flip one payload byte on disk: CRC turns the hit into a miss *)
  let path = d // "objects" // String.sub key 0 2 // key in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "X") 0 1);
  Unix.close fd;
  Alcotest.(check (option string)) "corruption is a miss" None
    (Cache.lookup ~dir:d key)

let test_session_key_sensitivity () =
  let base = Engine.default_config in
  let k ?(netlist = "net") ?(universe = Session.Input) config =
    Durable.key_of ~netlist ~universe ~config
  in
  Alcotest.(check string) "deterministic" (k base) (k base);
  Alcotest.(check bool) "netlist matters" true
    (k base <> k ~netlist:"other" base);
  Alcotest.(check bool) "universe matters" true
    (k base <> k ~universe:Session.Both base);
  Alcotest.(check bool) "k matters" true
    (k base <> k { base with Engine.k = Some 9 });
  Alcotest.(check bool) "seed matters" true
    (k base
    <> k
         {
           base with
           Engine.random = { base.Engine.random with Random_tpg.seed = 99 };
         });
  (* every outcome-shaping budget and toggle must split the key: a
     budget-capped (deterministically degraded) result is cacheable,
     so serving it to an uncapped request would be a lie *)
  Alcotest.(check bool) "max-states matters" true
    (k base <> k { base with Engine.max_states = Some 7 });
  Alcotest.(check bool) "max-transitions matters" true
    (k base <> k { base with Engine.max_transitions = Some 7 });
  Alcotest.(check bool) "timeout matters" true
    (k base <> k { base with Engine.timeout = Some 0.5 });
  Alcotest.(check bool) "engine matters" true
    (k base <> k { base with Engine.engine = Engine.Sat });
  Alcotest.(check bool) "collapse matters" true
    (k base <> k { base with Engine.collapse = false });
  Alcotest.(check bool) "random phase toggle matters" true
    (k base <> k { base with Engine.enable_random = false })

(* One key, pinned: adding, dropping or renaming a config field, or
   changing how one renders, re-keys every store on disk.  Such a
   change must move the key's format version on from "3" and update
   this value with it. *)
let test_key_pinned () =
  Alcotest.(check string) "default key, format 3"
    "644e49178a825da020e4a7a61b87f9ef"
    (Durable.key_of ~netlist:"x" ~universe:Session.Input
       ~config:Engine.default_config)

(* --- session resume ------------------------------------------------------- *)

let outcomes_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         x.Testset.fault = y.Testset.fault && x.Testset.status = y.Testset.status)
       a b

(* The headline property: journal any prefix of a run's commits, then
   resume from it — the rerun must reproduce the uninterrupted result
   fault-for-fault (and the cache must then serve it verbatim). *)
let test_session_resume_equals_uninterrupted () =
  let c = Figures.mutex_latch () in
  let faults = Fault.universe_input_sa c in
  let reference = Engine.run c ~faults in
  let commits = ref [] in
  let r2 =
    Engine.run ~on_outcome:(fun f st -> commits := (f, st) :: !commits) c
      ~faults
  in
  Alcotest.(check bool) "on_outcome does not perturb the run" true
    (outcomes_equal reference.Engine.outcomes r2.Engine.outcomes);
  let commits = List.rev !commits in
  let n = List.length commits in
  Alcotest.(check bool) "commits cover the searched classes" true
    (n = reference.Engine.faults_searched);
  List.iter
    (fun cut ->
      with_dir @@ fun d ->
      let key = Durable.key_of ~netlist:"n" ~universe:Session.Input ~config:Engine.default_config in
      (* run 1: journal the first [cut] commits, then "crash" *)
      (let t =
         match Durable.start ~dir:d ~key () with
         | Ok t -> t
         | Error m -> Alcotest.fail m
       in
       List.iteri
         (fun i (f, st) -> if i < cut then Durable.record t f st)
         commits;
       Durable.finish t ~keep:true);
      (* run 2: resume and finish the search *)
      let t =
        match Durable.start ~resume:true ~dir:d ~key () with
        | Ok t -> t
        | Error m -> Alcotest.fail m
      in
      Alcotest.(check int)
        (Printf.sprintf "settled after %d commits" cut)
        cut (Durable.settled_count t);
      let r =
        Engine.run ~settled:(Durable.settled t)
          ~on_outcome:(Durable.record t) c ~faults
      in
      Durable.finish t ~keep:false;
      Alcotest.(check bool)
        (Printf.sprintf "resume@%d equals uninterrupted" cut)
        true
        (outcomes_equal reference.Engine.outcomes r.Engine.outcomes))
    [ 0; 1; n / 2; max 0 (n - 1); n ]

let test_session_lock_blocks_concurrent () =
  with_dir @@ fun d ->
  let key = String.make 32 'a' in
  let t =
    match Durable.start ~dir:d ~key () with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  (match Durable.start ~dir:d ~key () with
  | Ok _ -> Alcotest.fail "second live session must be refused"
  | Error _ -> ());
  Durable.finish t ~keep:false;
  match Durable.start ~dir:d ~key () with
  | Ok t -> Durable.finish t ~keep:false
  | Error m -> Alcotest.fail ("after finish: " ^ m)

let test_session_timeout_aborts_not_settled () =
  with_dir @@ fun d ->
  let key = String.make 32 'b' in
  let f0 = Fault.Output_sa { gate = 0; stuck = false } in
  let f1 = Fault.Output_sa { gate = 1; stuck = false } in
  (let t =
     match Durable.start ~dir:d ~key () with
     | Ok t -> t
     | Error m -> Alcotest.fail m
   in
   Durable.record t f0 (Testset.Aborted Guard.Timeout);
   Durable.record t f1 (Testset.Aborted Guard.State_limit);
   Durable.finish t ~keep:true);
  let t =
    match Durable.start ~resume:true ~dir:d ~key () with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check (option bool)) "timeout abort re-searched" None
    (Option.map (fun _ -> true) (Durable.settled t f0));
  Alcotest.(check bool) "budget abort stays settled" true
    (Durable.settled t f1 = Some (Testset.Aborted Guard.State_limit));
  Durable.finish t ~keep:false

let test_session_cacheable () =
  let c = Figures.celem_handshake () in
  let r = Engine.run c ~faults:(Fault.universe_input_sa c) in
  Alcotest.(check bool) "complete run is cacheable" true (Durable.cacheable r);
  let doctor status =
    {
      r with
      Engine.outcomes =
        [ { Testset.fault = Fault.Output_sa { gate = 0; stuck = false };
            status } ];
    }
  in
  Alcotest.(check bool) "timeout abort is not" false
    (Durable.cacheable (doctor (Testset.Aborted Guard.Timeout)));
  Alcotest.(check bool) "interrupt abort is not" false
    (Durable.cacheable (doctor (Testset.Aborted Guard.Interrupt)));
  Alcotest.(check bool) "budget abort is" true
    (Durable.cacheable (doctor (Testset.Aborted Guard.Transition_limit)));
  with_dir @@ fun d ->
  let key = Durable.key_of ~netlist:"x" ~universe:Session.Input ~config:Engine.default_config in
  Durable.publish ~dir:d ~key (Session.summary_of_result r);
  match Durable.cached ~dir:d ~key with
  | None -> Alcotest.fail "published result must be served"
  | Some p ->
    Alcotest.(check int) "faults_searched survives" r.Engine.faults_searched
      p.Codec.faults_searched;
    Alcotest.(check int) "all outcomes survive"
      (List.length r.Engine.outcomes)
      (List.length p.Codec.outcomes)

let suites =
  [
    ( "store.crc32",
      [ Alcotest.test_case "known answers" `Quick test_crc_known ] );
    ( "store.journal",
      [
        Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
        Alcotest.test_case "rotation keeps order" `Quick test_journal_rotation;
        Alcotest.test_case "torn tail salvage + resume" `Quick
          test_journal_torn_tail;
        Alcotest.test_case "sealed corruption rejected" `Quick
          test_journal_sealed_corruption_rejected;
        Alcotest.test_case "missing meta rejected" `Quick
          test_journal_missing_meta;
        QCheck_alcotest.to_alcotest journal_corruption_prop;
      ] );
    ( "store.lock",
      [
        Alcotest.test_case "mutual exclusion" `Quick test_lock_exclusive;
        Alcotest.test_case "steals dead same-host owner" `Quick
          test_lock_steals_dead_owner;
        Alcotest.test_case "foreign lock: age decides" `Quick
          test_lock_respects_foreign_fresh;
      ] );
    ( "store.inject",
      [
        Alcotest.test_case "nth-hit fires once" `Quick test_inject_nth_once;
        Alcotest.test_case "probability is seeded" `Quick
          test_inject_probability_deterministic;
        Alcotest.test_case "bad specs rejected" `Quick test_inject_bad_spec;
        Alcotest.test_case "guard trip mid-phase" `Quick test_inject_guard_trip;
        Alcotest.test_case "engine fail-soft under trips" `Quick
          test_inject_engine_fail_soft;
        Alcotest.test_case "journal enospc + short write" `Quick
          test_inject_journal_enospc_and_short;
      ] );
    ( "store.codec",
      [ Alcotest.test_case "wire roundtrips" `Quick test_codec_roundtrips ] );
    ( "store.cache",
      [
        Alcotest.test_case "publish/lookup/corrupt" `Quick
          test_cache_roundtrip_and_corruption;
        Alcotest.test_case "key sensitivity" `Quick test_session_key_sensitivity;
        Alcotest.test_case "key pinned" `Quick test_key_pinned;
      ] );
    ( "store.session",
      [
        Alcotest.test_case "resume equals uninterrupted" `Quick
          test_session_resume_equals_uninterrupted;
        Alcotest.test_case "writer lock" `Quick test_session_lock_blocks_concurrent;
        Alcotest.test_case "timeout aborts re-searched" `Quick
          test_session_timeout_aborts_not_settled;
        Alcotest.test_case "cacheable + publish/serve" `Quick
          test_session_cacheable;
      ] );
  ]
