open Satg_circuit
open Satg_core
module Guard = Satg_guard.Guard
module Pool = Satg_pool.Pool
module Cssg = Satg_sg.Cssg
module Explicit = Satg_sg.Explicit
module Symbolic = Satg_sg.Symbolic
module Inject = Satg_inject.Inject

type counters = {
  mutable connections : int;
  mutable malformed : int;
  mutable requests : int;
  mutable atpg : int;
  mutable cssg : int;
  mutable check : int;
  mutable batch : int;
  mutable batch_members : int;
  mutable stats : int;
  mutable hits : int;
  mutable misses : int;
  mutable cssg_builds : int;
  mutable symbolic_builds : int;
  mutable degraded : int;
  mutable failures : int;
}

type t = {
  cache_dir : string option;
  pool : Pool.t;
  warm : (string, Satg_store.Codec.result_payload) Hashtbl.t;
  graphs : (string, Cssg.t) Hashtbl.t;
  frozen : (string, Symbolic.frozen) Hashtbl.t;
  k : counters;
  mutable draining : bool;
  mutable active : Guard.t option;
}

let create ?cache_dir ?(jobs = 1) () =
  {
    cache_dir;
    pool = Pool.create ~jobs;
    warm = Hashtbl.create 64;
    graphs = Hashtbl.create 16;
    frozen = Hashtbl.create 16;
    k =
      {
        connections = 0;
        malformed = 0;
        requests = 0;
        atpg = 0;
        cssg = 0;
        check = 0;
        batch = 0;
        batch_members = 0;
        stats = 0;
        hits = 0;
        misses = 0;
        cssg_builds = 0;
        symbolic_builds = 0;
        degraded = 0;
        failures = 0;
      };
    draining = false;
    active = None;
  }

let shutdown t = Pool.shutdown t.pool
let note_connection t = t.k.connections <- t.k.connections + 1
let note_malformed t = t.k.malformed <- t.k.malformed + 1

let stats_fields t =
  let k = t.k in
  [
    ("connections", string_of_int k.connections);
    ("malformed-frames", string_of_int k.malformed);
    ("requests", string_of_int k.requests);
    ("atpg", string_of_int k.atpg);
    ("cssg", string_of_int k.cssg);
    ("check", string_of_int k.check);
    ("batch", string_of_int k.batch);
    ("batch-members", string_of_int k.batch_members);
    ("stats", string_of_int k.stats);
    ("hits", string_of_int k.hits);
    ("misses", string_of_int k.misses);
    ("cssg-builds", string_of_int k.cssg_builds);
    ("symbolic-builds", string_of_int k.symbolic_builds);
    ("degraded", string_of_int k.degraded);
    ("failures", string_of_int k.failures);
  ]

(* --- drain ------------------------------------------------------------------ *)

let interrupt t =
  t.draining <- true;
  match t.active with Some g -> Guard.cancel g Guard.Interrupt | None -> ()

(* The per-request guard: the client's budgets, nobody else's.  Under
   drain it is born cancelled, so a queued batch member trips at its
   first probe and comes back as a fast degraded response. *)
let fresh_guard t (config : Engine.config) =
  let g =
    Guard.create ?timeout:config.Engine.timeout
      ?max_states:config.Engine.max_states
      ?max_transitions:config.Engine.max_transitions ()
  in
  t.active <- Some g;
  if t.draining then Guard.cancel g Guard.Interrupt;
  g

(* --- responses -------------------------------------------------------------- *)

let failure t code msg =
  t.k.failures <- t.k.failures + 1;
  Proto.Failure { code; msg }

let respond_result t ~hit payload =
  if Session.degraded payload then t.k.degraded <- t.k.degraded + 1;
  Proto.Result { hit; payload }

let respond_text t ~degraded text =
  if degraded then t.k.degraded <- t.k.degraded + 1;
  Proto.Text { degraded; text }

(* --- warm store ------------------------------------------------------------- *)

let warm_lookup t key =
  match Hashtbl.find_opt t.warm key with
  | Some p -> Some p
  | None -> (
    match t.cache_dir with
    | None -> None
    | Some dir -> (
      match Satg_store.Durable.cached ~dir ~key with
      | Some p ->
        Hashtbl.replace t.warm key p;
        Some p
      | None -> None))

let warm_store t key payload =
  Hashtbl.replace t.warm key payload;
  match t.cache_dir with
  | None -> ()
  | Some dir -> (
    try Satg_store.Durable.publish ~dir ~key payload
    with Sys_error _ | Unix.Unix_error _ | Inject.Injected _ -> ())

(* --- shared builds ------------------------------------------------------- *)

(* Two requests may share a graph iff every input to its build is
   equal: the netlist bytes, the cycle budget and the guard ceilings
   that shape a truncation.  A symbolic build also reads the reorder
   mode and the cluster cap.  Both keys are rendered by
   [Session.config_fields], as the store key is. *)
let key_of fields ~netlist config =
  let all = Session.config_fields ~universe:Session.Both config in
  String.concat "|"
    (Digest.to_hex (Digest.string netlist)
    :: List.map (fun f -> f ^ "=" ^ List.assoc f all) fields)

let graph_fields = [ "k"; "timeout"; "max-states"; "max-transitions" ]
let group_key ~netlist config = key_of graph_fields ~netlist config

let symbolic_key ~netlist config =
  key_of (graph_fields @ [ "reorder"; "cluster-cap" ]) ~netlist config

(* A build is kept only when a rerun would give the same one — the
   store's rule for results — and no injection harness is armed. *)
let keeps truncated =
  (not (Inject.enabled ())) && Satg_store.Durable.reproducible truncated

(* A key's first build runs under the request guard, exactly where the
   one-shot pipeline spends the run guard's counters; later requests
   reuse the graph with their counters unspent.  That is still
   bit-faithful to their own one-shot runs: the engine spends run-guard
   counters on nothing but construction, and every phase gets
   fresh-counter sub-guards either way. *)
let shared_cssg t ~netlist ~config ~guard c =
  let key = group_key ~netlist config in
  match Hashtbl.find_opt t.graphs key with
  | Some g -> g
  | None ->
    t.k.cssg_builds <- t.k.cssg_builds + 1;
    let g = Explicit.build ?k:config.Engine.k ~guard c in
    if keeps (Cssg.truncated g) then Hashtbl.replace t.graphs key g;
    g

(* The BDD engine's build, made by [Engine.build_symbolic] as the run
   would make it.  Under [--reorder none] it is kept frozen and each
   later request justifies on its own thawed copy, which answers as
   the build did.  A sifting manager is never shared: its automatic
   trigger counts garbage, so a thawed store would sift elsewhere. *)
let shared_symbolic t ~netlist ~config ~guard g c =
  let build () =
    t.k.symbolic_builds <- t.k.symbolic_builds + 1;
    Engine.build_symbolic ~config ~guard g c
  in
  match (config.Engine.engine, config.Engine.reorder) with
  | Engine.Bdd, Satg_bdd.Bdd.Reorder_sift -> Some (build ())
  | Engine.Bdd, Satg_bdd.Bdd.Reorder_none -> (
    let key = symbolic_key ~netlist config in
    match Hashtbl.find_opt t.frozen key with
    | Some f -> Some (Symbolic.thaw f)
    | None ->
      let s = build () in
      if keeps (Symbolic.truncated s) then
        Hashtbl.replace t.frozen key (Symbolic.freeze s);
      Some s)
  | (Engine.Explicit | Engine.Sat), _ -> None

(* --- request kinds ---------------------------------------------------------- *)

let run_atpg t (a : Proto.atpg_request) =
  t.k.atpg <- t.k.atpg + 1;
  (* the wire never carries [jobs]: every run uses the daemon's pool *)
  let config = a.Proto.config in
  match Parser.parse_string a.Proto.netlist with
  | Error m -> failure t "parse" m
  | Ok c -> (
    let key =
      Satg_store.Durable.key_of ~netlist:a.Proto.netlist
        ~universe:a.Proto.universe ~config
    in
    match warm_lookup t key with
    | Some payload ->
      t.k.hits <- t.k.hits + 1;
      respond_result t ~hit:true payload
    | None ->
      t.k.misses <- t.k.misses + 1;
      let netlist = a.Proto.netlist in
      let guard = fresh_guard t config in
      let cssg = shared_cssg t ~netlist ~config ~guard c in
      let symbolic = shared_symbolic t ~netlist ~config ~guard cssg c in
      let r =
        Session.run ~guard ~pool:t.pool ~cssg ?symbolic ~config c
          a.Proto.universe
      in
      let payload = Session.summary_of_result r in
      (* cacheable = reproducible: deterministic budget trips qualify,
         wall-clock/drain aborts and injected failures do not *)
      if Satg_store.Durable.cacheable r && not (Inject.enabled ()) then
        warm_store t key payload;
      respond_result t ~hit:false payload)

let run_cssg t (c : Proto.cssg_request) =
  t.k.cssg <- t.k.cssg + 1;
  match Parser.parse_string c.Proto.c_netlist with
  | Error m -> failure t "parse" m
  | Ok circuit ->
    let config =
      {
        Engine.default_config with
        Engine.k = c.Proto.c_k;
        timeout = c.Proto.c_timeout;
        max_states = c.Proto.c_max_states;
        max_transitions = c.Proto.c_max_transitions;
      }
    in
    let guard = fresh_guard t config in
    let g = shared_cssg t ~netlist:c.Proto.c_netlist ~config ~guard circuit in
    let text =
      if c.Proto.c_dump then Format.asprintf "%a@." Cssg.pp g
      else Format.asprintf "%a@." Cssg.pp_stats g
    in
    respond_text t ~degraded:(Cssg.truncated g <> None) text

let run_check t netlist =
  t.k.check <- t.k.check + 1;
  match Parser.lint_string netlist with
  | _ :: _ as diags -> Proto.Diags diags
  | [] -> (
    match Parser.parse_string netlist with
    | Error m -> failure t "parse" m
    | Ok c -> (
      match Circuit.validate c with
      | Error m -> failure t "parse" m
      | Ok () -> respond_text t ~degraded:false (Session.check_report c)))

(* A request must never take the daemon down with it: anything a
   pathological netlist or an armed injection harness can raise comes
   back as a [Failure] response on that request alone. *)
let protect t f =
  try f () with
  | Inject.Injected m -> failure t "server" ("injected fault: " ^ m)
  | Unix.Unix_error (e, op, arg) ->
    failure t "server"
      (Printf.sprintf "%s %s: %s" op arg (Unix.error_message e))
  | Invalid_argument m | Sys_error m | Failure m -> failure t "server" m
  | e -> failure t "server" (Printexc.to_string e)

let rec handle_one t = function
  | Proto.Atpg a -> protect t (fun () -> run_atpg t a)
  | Proto.Cssg c -> protect t (fun () -> run_cssg t c)
  | Proto.Check netlist -> protect t (fun () -> run_check t netlist)
  | Proto.Stats ->
    t.k.stats <- t.k.stats + 1;
    Proto.Stats_r (stats_fields t)
  | Proto.Batch members ->
    t.k.batch <- t.k.batch + 1;
    t.k.batch_members <- t.k.batch_members + List.length members;
    Proto.Batch_r (List.map (handle_one t) members)

let handle t req =
  t.k.requests <- t.k.requests + 1;
  handle_one t req
