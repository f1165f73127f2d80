(** The reusable one-shot ATPG session layer.

    One "session" is everything [satg atpg] does between parsing its
    arguments and printing its report: pick the fault universe, run the
    {!Engine} pipeline, condense the result into a {!summary}, and
    render that summary.  Extracting it here lets three front ends
    share one code path bit-for-bit:

    - the one-shot CLI ([bin/satg.ml]),
    - the durable store ({!Satg_store}), whose cache objects are
      exactly a serialized {!summary}, and
    - the ATPG daemon ([lib/server]), whose wire responses carry a
      {!summary} and whose client renders it with {!render} — which is
      what makes "daemon response = one-shot CLI output" a structural
      property instead of a test-only aspiration.

    {!config_fields} is the single exhaustive enumeration of the
    outcome-relevant configuration: the store's cache key, the wire
    protocol's config block and the daemon's batch grouping all derive
    from it, so a field added to {!Engine.config} shows up (or is
    deliberately excluded) in one place. *)

open Satg_guard
open Satg_circuit
open Satg_fault
open Satg_sg

(** The fault model of a request: which stuck-at universe to target. *)
type universe = Input | Output | Both

val universe_name : universe -> string
(** ["input"] / ["output"] / ["both"] — the canonical lower-case names
    used by the CLI, the cache key and the wire protocol. *)

val universe_of_name : string -> universe option
(** Inverse of {!universe_name}; anything else is [None]. *)

val reorder_name : Satg_bdd.Bdd.reorder_mode -> string
(** ["none"] / ["sift"] — the canonical names used by the CLI, the
    cache key and the wire protocol. *)

val reorder_of_name : string -> Satg_bdd.Bdd.reorder_mode option
(** Inverse of {!reorder_name}; anything else is [None]. *)

val faults_of : Circuit.t -> universe -> Fault.t list
(** The given universe, in the deterministic order every front end
    agrees on (inputs first under [Both]). *)

(** A settled run, condensed: what the cache stores, the wire carries
    and {!render} prints.  [outcomes] is per {e given} fault in
    universe order (collapse already expanded). *)
type summary = {
  faults_searched : int;
  truncated : Guard.reason option;
  cpu_seconds : float;  (** of the run that produced the summary *)
  stats_line : string;  (** rendered [Cssg.pp_stats] (single line) *)
  outcomes : (Fault.t * Testset.status) list;
}

val summary_of_result : Engine.result -> summary

val degraded : summary -> bool
(** True iff the CSSG was truncated or any fault aborted — the
    summary understates achievable coverage (CLI exit code 2,
    degraded wire responses). *)

val run :
  ?guard:Guard.t ->
  ?cssg:Cssg.t ->
  ?symbolic:Symbolic.t ->
  ?settled:(Fault.t -> Testset.status option) ->
  ?on_outcome:(Fault.t -> Testset.status -> unit) ->
  config:Engine.config ->
  Circuit.t ->
  universe ->
  Engine.result
(** {!Engine.run} over {!faults_of}.  [cssg] and [symbolic] let a
    long-lived caller (the daemon) reuse the graph and the [Bdd]
    engine's symbolic build across requests that share them (see
    {!Engine.run}). *)

val render : ?verbose:bool -> Format.formatter -> Circuit.t -> summary -> unit
(** The CLI report: per-fault outcome lines (with [verbose]), the CSSG
    stats line, the coverage summary.  Byte-identical whether the
    summary came from a live run, a cache hit or a daemon response. *)

val check_report : Circuit.t -> string
(** The [satg check] success report (circuit stats, structure line,
    reset state), shared by the CLI and the daemon's [check] kind. *)

val config_fields :
  universe:universe -> Engine.config -> (string * string) list
(** Every outcome-relevant configuration field as canonical
    [(name, value)] pairs, in one fixed order.  Every field of
    {!Engine.config} is outcome-relevant, so every field is listed. *)

val config_of_fields :
  (string * string) list -> (universe * Engine.config) option
(** Rebuild [(universe, config)] from {!config_fields} output (the
    wire-protocol decoder).  [None] on any missing, duplicated or
    malformed field. *)
