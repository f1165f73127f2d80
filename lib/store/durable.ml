open Satg_guard
open Satg_fault
open Satg_core

let ( // ) = Filename.concat

let key_of ~netlist ~universe ~config =
  (* Everything outcome-determining goes in, via the session layer's
     one exhaustive field list.  The typed [universe] kills a whole bug
     class — a caller passing "Input" vs "input" used to mint two keys
     for one request.  [format] guards against wire-format or
     semantics changes across versions of this code. *)
  Cache.key_of_parts
    (("format", "3")
    :: ("netlist", Digest.to_hex (Digest.string netlist))
    :: Satg_core.Session.config_fields ~universe config)

let cached ~dir ~key =
  match Cache.lookup ~dir key with
  | None -> None
  | Some payload -> (
    match Codec.result_of_string payload with
    | Ok p -> Some p
    | Error _ -> None)

let reproducible = function
  | None | Some (Guard.State_limit | Guard.Transition_limit) -> true
  | Some (Guard.Timeout | Guard.Interrupt) -> false

let cacheable (r : Engine.result) =
  reproducible (Engine.truncated r)
  && List.for_all
       (fun o ->
         match o.Testset.status with
         | Testset.Aborted reason -> reproducible (Some reason)
         | Testset.Detected _ | Testset.Undetected -> true)
       r.Engine.outcomes

let publish ~dir ~key payload =
  Cache.publish ~dir key (Codec.result_to_string payload)

type t = {
  sdir : string;
  lock_path : string;
  journal : Journal.t;
  settled_tbl : (Fault.t, Testset.status) Hashtbl.t;
  mutable released : bool;
}

let session_dir ~dir key = dir // "sessions" // key

(* A Timeout/Interrupt abort is what the run happened to get done
   before the clock (or the operator) intervened — an uninterrupted run
   would have kept searching, so resume must too. *)
let settled_on_resume = function
  | Testset.Aborted (Guard.Timeout | Guard.Interrupt) -> false
  | Testset.Detected _ | Testset.Undetected | Testset.Aborted _ -> true

let start ?(resume = false) ~dir ~key () =
  let sdir = session_dir ~dir key in
  Journal.mkdir_p sdir;
  let lock_path = sdir // "lock" in
  match Lock.acquire lock_path with
  | Error m -> Error m
  | Ok () -> (
    let fail m =
      Lock.release lock_path;
      Error m
    in
    let wal = sdir // "wal" in
    let settled_tbl = Hashtbl.create 256 in
    if not resume then (
      match Journal.create ~meta:key wal with
      | j -> Ok { sdir; lock_path; journal = j; settled_tbl; released = false }
      | exception Sys_error m -> fail m
      | exception Unix.Unix_error (e, op, _) ->
        fail (Printf.sprintf "%s: %s" op (Unix.error_message e)))
    else
      match Journal.open_resume wal with
      | Error m -> fail m
      | Ok (j, recovery) ->
        if recovery.Journal.meta <> key then begin
          Journal.close j;
          fail
            (Printf.sprintf
               "journal %s was written by a different configuration \
                (key %s, expected %s)"
               wal recovery.Journal.meta key)
        end
        else
          let rec load = function
            | [] -> None
            | e :: rest -> (
              match Codec.entry_of_string e with
              | None -> Some e
              | Some (f, st) ->
                if settled_on_resume st then Hashtbl.replace settled_tbl f st
                else Hashtbl.remove settled_tbl f;
                load rest)
          in
          (* CRC-valid but undecodable: written by an incompatible
             version — fail closed rather than resume a half-read run *)
          (match load recovery.Journal.entries with
          | Some e ->
            Journal.close j;
            fail
              (Printf.sprintf "journal %s: undecodable record %S" wal e)
          | None ->
            Ok { sdir; lock_path; journal = j; settled_tbl; released = false }))

let settled t f = Hashtbl.find_opt t.settled_tbl f
let settled_count t = Hashtbl.length t.settled_tbl
let record t f st = Journal.append t.journal (Codec.entry f st)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let finish t ~keep =
  if not t.released then begin
    t.released <- true;
    (try Journal.close t.journal with Sys_error _ | Unix.Unix_error _ -> ());
    Lock.release t.lock_path;
    if not keep then try rm_rf t.sdir with Sys_error _ | Unix.Unix_error _ -> ()
  end
