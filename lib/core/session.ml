open Satg_guard
open Satg_circuit
open Satg_fault
open Satg_sg

type universe = Input | Output | Both

let universe_name = function
  | Input -> "input"
  | Output -> "output"
  | Both -> "both"

let universe_of_name = function
  | "input" -> Some Input
  | "output" -> Some Output
  | "both" -> Some Both
  | _ -> None

let faults_of c = function
  | Input -> Fault.universe_input_sa c
  | Output -> Fault.universe_output_sa c
  | Both -> Fault.universe_input_sa c @ Fault.universe_output_sa c

type summary = {
  faults_searched : int;
  truncated : Guard.reason option;
  cpu_seconds : float;
  stats_line : string;
  outcomes : (Fault.t * Testset.status) list;
}

let summary_of_result (r : Engine.result) =
  {
    faults_searched = r.Engine.faults_searched;
    truncated = Engine.truncated r;
    cpu_seconds = r.Engine.cpu_seconds;
    stats_line = Format.asprintf "%a" Cssg.pp_stats r.Engine.cssg;
    outcomes =
      List.map
        (fun o -> (o.Testset.fault, o.Testset.status))
        r.Engine.outcomes;
  }

let degraded s =
  s.truncated <> None
  || List.exists (fun (_, st) -> Testset.is_aborted st) s.outcomes

let run ?guard ?cssg ?symbolic ?settled ?on_outcome ~config circuit universe =
  Engine.run ~config ?cssg ?symbolic ?guard ?settled ?on_outcome circuit
    ~faults:(faults_of circuit universe)

(* The one rendering path: a live run is first condensed to a summary,
   so cached hits and daemon responses replay the very same bytes. *)
let render ?(verbose = false) fmt c s =
  let outcomes =
    List.map (fun (fault, status) -> { Testset.fault; status }) s.outcomes
  in
  if verbose then
    List.iter
      (fun o -> Format.fprintf fmt "%a@." (Testset.pp_outcome c) o)
      outcomes;
  Format.fprintf fmt "%s@." s.stats_line;
  Format.fprintf fmt "%t@."
    (Engine.pp_summary_of ~circuit:c ~outcomes
       ~faults_searched:s.faults_searched ~truncated:s.truncated
       ~cpu_seconds:s.cpu_seconds)

let check_report c =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "%a@." Circuit.pp_stats c;
  let cyclic = Satg_circuit.Structure.cyclic_gates c in
  Format.fprintf fmt
    "feedback gates: %d; longest acyclic path: %d; default k: %d@."
    (List.length cyclic)
    (Satg_circuit.Structure.longest_path c)
    (Satg_circuit.Structure.default_k c);
  (match Circuit.initial c with
  | Some s ->
    Format.fprintf fmt "reset state: %s (stable)@." (Circuit.state_to_string c s)
  | None -> Format.fprintf fmt "no reset state@.");
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* --- canonical configuration fields --------------------------------------- *)

let engine_name = function
  | Engine.Explicit -> "explicit"
  | Engine.Bdd -> "bdd"
  | Engine.Sat -> "sat"

let engine_of_name = function
  | "explicit" -> Some Engine.Explicit
  | "bdd" -> Some Engine.Bdd
  | "sat" -> Some Engine.Sat
  | _ -> None

let reorder_name = function
  | Satg_bdd.Bdd.Reorder_none -> "none"
  | Satg_bdd.Bdd.Reorder_sift -> "sift"

let reorder_of_name = function
  | "none" -> Some Satg_bdd.Bdd.Reorder_none
  | "sift" -> Some Satg_bdd.Bdd.Reorder_sift
  | _ -> None

(* The field list is the one exhaustive enumeration of what determines
   an outcome partition: the store's cache key and the daemon's wire
   format both render it, so the two can never drift apart.  Field
   order is fixed (the cache key hashes the rendering). *)
let opt_int = function None -> "-" | Some n -> string_of_int n
let opt_float = function None -> "-" | Some f -> Printf.sprintf "%.17g" f

let config_fields ~universe (c : Engine.config) =
  [
    ("universe", universe_name universe);
    ("k", opt_int c.Engine.k);
    ("random", string_of_bool c.Engine.enable_random);
    ("fault-sim", string_of_bool c.Engine.enable_fault_sim);
    ("engine", engine_name c.Engine.engine);
    ("collapse", string_of_bool c.Engine.collapse);
    ("timeout", opt_float c.Engine.timeout);
    ("max-states", opt_int c.Engine.max_states);
    ("max-transitions", opt_int c.Engine.max_transitions);
    ("reorder", reorder_name c.Engine.reorder);
    ("cluster-cap", string_of_int c.Engine.cluster_cap);
    ("walks", string_of_int c.Engine.random.Random_tpg.walks);
    ("walk-length", string_of_int c.Engine.random.Random_tpg.walk_length);
    ("seed", string_of_int c.Engine.random.Random_tpg.seed);
    ("max-depth", string_of_int c.Engine.three_phase.Three_phase.max_depth);
    ( "max-product-states",
      string_of_int c.Engine.three_phase.Three_phase.max_product_states );
    ( "max-activation-tries",
      string_of_int c.Engine.three_phase.Three_phase.max_activation_tries );
  ]

let config_of_fields fields =
  let tbl = Hashtbl.create 16 in
  let dup = ref false in
  List.iter
    (fun (k, v) ->
      if Hashtbl.mem tbl k then dup := true else Hashtbl.add tbl k v)
    fields;
  let ( let* ) = Option.bind in
  let field k = Hashtbl.find_opt tbl k in
  let int_field k = Option.bind (field k) int_of_string_opt in
  let bool_field k = Option.bind (field k) bool_of_string_opt in
  let opt_int_field k =
    match field k with
    | Some "-" -> Some None
    | Some s -> Option.map Option.some (int_of_string_opt s)
    | None -> None
  in
  let opt_float_field k =
    match field k with
    | Some "-" -> Some None
    | Some s -> Option.map Option.some (float_of_string_opt s)
    | None -> None
  in
  if !dup then None
  else
    let* universe = Option.bind (field "universe") universe_of_name in
    let* k = opt_int_field "k" in
    let* enable_random = bool_field "random" in
    let* enable_fault_sim = bool_field "fault-sim" in
    let* engine = Option.bind (field "engine") engine_of_name in
    let* collapse = bool_field "collapse" in
    let* timeout = opt_float_field "timeout" in
    let* max_states = opt_int_field "max-states" in
    let* max_transitions = opt_int_field "max-transitions" in
    let* reorder = Option.bind (field "reorder") reorder_of_name in
    let* cluster_cap = int_field "cluster-cap" in
    let* walks = int_field "walks" in
    let* walk_length = int_field "walk-length" in
    let* seed = int_field "seed" in
    let* max_depth = int_field "max-depth" in
    let* max_product_states = int_field "max-product-states" in
    let* max_activation_tries = int_field "max-activation-tries" in
    Some
      ( universe,
        {
          Engine.k;
          enable_random;
          enable_fault_sim;
          engine;
          collapse;
          timeout;
          max_states;
          max_transitions;
          reorder;
          cluster_cap;
          random = { Random_tpg.walks; walk_length; seed };
          three_phase =
            { Three_phase.max_depth; max_product_states; max_activation_tries };
        } )
