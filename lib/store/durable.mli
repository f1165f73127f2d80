(** Durable ATPG sessions: the glue between {!Satg_core.Engine} and the
    on-disk store.

    A session owns one [--cache-dir] root:

    {v
    <dir>/objects/<xx>/<key>     content-addressed, settled results
    <dir>/sessions/<key>/lock    stale-aware writer lock
    <dir>/sessions/<key>/wal/    outcome journal of an in-flight run
    v}

    The {e key} fingerprints everything that determines the outcome
    partition: the netlist bytes, fault universe, test-cycle budget,
    phase toggles, engine, collapse flag, resource caps and the random
    seed.  [-j] is deliberately {e not} part of the key — the engine's
    input-order wave merge makes outcomes identical for every job
    count, so a run at [-j4] may serve, or resume, a run at [-j1].
    (Under [--engine sat] a witness {e sequence} may differ across
    [-j]; the detected/undetected partition still cannot.)

    Lifecycle: {!start} takes the lock and either creates a fresh
    journal or replays one ([resume]); {!settled} feeds the engine the
    replayed outcomes and {!record} journals each fresh one in commit
    order; {!finish} releases (keeping the journal for a later
    [--resume] or discarding the whole session directory when the run
    is settled).  {!publish} caches a {!cacheable} result so the next
    identical invocation does zero fault searches. *)

open Satg_fault
open Satg_core

val key_of :
  netlist:string ->
  universe:Satg_core.Session.universe ->
  config:Engine.config ->
  string
(** Content-addressed key of a (netlist, configuration) pair.
    [netlist] is the raw file bytes; [universe] is the fault model.
    The fields hashed are exactly
    {!Satg_core.Session.config_fields} — the one exhaustive list of
    outcome-relevant configuration — so the key and the daemon's wire
    format can never disagree about what matters. *)

val cached : dir:string -> key:string -> Codec.result_payload option
(** Serve a settled run from the object store.  Any corruption
    (CRC, wire format) is a miss, never an error. *)

val reproducible : Satg_guard.Guard.reason option -> bool
(** Whether work that stopped for this reason ([None]: it completed)
    gives the same answer when rerun: a completed run, or one cut by a
    deterministic budget cap ([State_limit], [Transition_limit]), does;
    one cut by the wall clock ([Timeout]) or the operator
    ([Interrupt]) does not — a rerun could legitimately do better. *)

val cacheable : Engine.result -> bool
(** A result may enter the object store iff it is {!reproducible}: its
    CSSG truncation and every per-fault abort. *)

val publish : dir:string -> key:string -> Codec.result_payload -> unit
(** Atomically install the payload in the object store
    (write-tmp→fsync→rename; concurrent publishers of the same key
    write identical bytes, so the last rename wins harmlessly). *)

type t

val start :
  ?resume:bool -> dir:string -> key:string -> unit -> (t, string) result
(** Lock the session directory for this key and open its journal —
    fresh by default; with [resume], replay the existing journal
    (salvaging a torn tail) and position to append after it.  [Error]
    when a live concurrent run holds the lock, when [resume] finds no
    usable journal, or when the journal's pinned key disagrees. *)

val settled : t -> Fault.t -> Testset.status option
(** Journal-replayed outcome for a fault class representative, if its
    search is settled.  [Aborted Timeout] and [Aborted Interrupt]
    entries are {e not} settled: the fault is searched again, which is
    exactly what an uninterrupted run would have done with the time. *)

val settled_count : t -> int
(** Settled entries replayed at {!start} (0 for a fresh session). *)

val record : t -> Fault.t -> Testset.status -> unit
(** Durably journal one outcome ({!Satg_core.Engine.run}'s
    [on_outcome]).  Raises on store I/O failure — the run dies rather
    than silently losing durability. *)

val finish : t -> keep:bool -> unit
(** Close the journal and release the lock.  [keep:true] leaves the
    journal for a later [--resume] (an interrupted or failed run);
    [keep:false] deletes the session directory (the run is settled —
    and, if cacheable, published).  Idempotent; safe in error paths. *)
