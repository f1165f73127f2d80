(** The full ATPG pipeline (paper §2): CSSG abstraction, random TPG,
    three-phase deterministic ATPG, and fault simulation of every found
    test against the remaining faults.

    The pipeline is {e fail-soft} under resource governance: CSSG
    construction that exhausts its budget yields a truncated (but
    sound) graph and the later phases still run over it; a fault whose
    deterministic search exhausts its budget is retried once at reduced
    effort and otherwise recorded as {!Testset.Aborted} while the rest
    of the fault list proceeds.  No {!Satg_guard.Guard.Exhausted}
    escapes {!run}. *)

open Satg_guard
open Satg_circuit
open Satg_fault
open Satg_sg

type justification_engine =
  | Explicit  (** BFS tree / product BFS — the reference algorithms *)
  | Bdd  (** symbolic justification (onion-ring image computation) *)
  | Sat  (** CDCL time-frame engine ({!Sat_engine}) for both phases *)

type config = {
  k : int option;  (** test-cycle budget; [None] = default heuristic *)
  enable_random : bool;
  enable_fault_sim : bool;
  engine : justification_engine;
      (** deterministic-phase backend; all three produce identical
          detected/undetected partitions *)
  collapse : bool;
      (** structurally collapse the fault universe before any phase
          (default [true]); the result keeps both sizes *)
  timeout : float option;
      (** wall-clock budget in seconds for the whole run *)
  max_states : int option;
      (** CSSG state ceiling, also the per-fault product-state ceiling *)
  max_transitions : int option;
      (** transition-expansion ceiling, per phase / per fault.  The
          BDD engine charges it one transition per allocated node, so
          the same cap bounds symbolic and explicit work alike *)
  reorder : Satg_bdd.Bdd.reorder_mode;
      (** dynamic variable reordering for the [Bdd] engine's manager
          (default {!Satg_bdd.Bdd.Reorder_none}); ignored by the other
          engines *)
  cluster_cap : int;
      (** node cap per frame-equality cluster in the [Bdd] engine's
          partitioned early-quantification schedule (default
          {!Satg_sg.Symbolic.default_cluster_cap}); ignored by the
          other engines *)
  random : Random_tpg.config;
  three_phase : Three_phase.config;
}

val default_config : config

type result = {
  circuit : Circuit.t;
  cssg : Cssg.t;
  outcomes : Testset.outcome list;
      (** in input fault order, one per given fault; under collapsing,
          a fault folded into an equivalence class carries its
          representative's outcome.  That assumes the class members
          are detected by the same tests, which fails for a pin fault
          whose gate resets away from the stuck value: its faulty
          machine powers up in another state than the output fault's
          (ROADMAP item 2) *)
  cpu_seconds : float;
  faults_searched : int;
      (** class representatives the phases actually targeted; equals
          [total] when [config.collapse] was off or found nothing to
          merge *)
  bdd_stats : Satg_bdd.Bdd.stats option;
      (** BDD-manager counters when the [Bdd] engine ran *)
  sat_stats : Satg_sat.Sat.stats option;
      (** solver counters, aggregated across every per-fault SAT
          query, when the [Sat] engine ran *)
  cnf_defs : (int * int) option;
      (** [(defined, interned)] hash-consing counters of the run's
          SAT engine: Tseitin definitions emitted vs served
          structurally from the table *)
}

val build_symbolic :
  config:config -> guard:Guard.t -> Cssg.t -> Circuit.t -> Symbolic.t
(** The [Bdd] engine's symbolic build, as {!run} makes it for graph
    [g]: [TCR_k] at [Cssg.k g], the config's [reorder] and
    [cluster_cap], under a {!Guard.sub} of the run guard [guard] with
    the config's state and transition ceilings (fresh counters,
    [guard]'s deadline and cancel token).  A caller that keeps builds
    across runs ({!run}'s [symbolic]) makes them with this call. *)

val run :
  ?config:config ->
  ?cssg:Cssg.t ->
  ?symbolic:Symbolic.t ->
  ?guard:Guard.t ->
  ?settled:(Fault.t -> Testset.status option) ->
  ?on_outcome:(Fault.t -> Testset.status -> unit) ->
  Circuit.t ->
  faults:Fault.t list ->
  result
(** [cssg] lets callers reuse a prebuilt graph (e.g. across the two
    fault universes of one benchmark).

    [symbolic] does the same for the [Bdd] engine's symbolic build,
    which the run otherwise makes with {!build_symbolic} after the
    graph; other engines ignore it.  It must be the build of this
    circuit at [Cssg.k] of the graph, under this config's [reorder] and
    [cluster_cap] and budgets, and no other run may use it at the same
    time: justification runs on its manager.  The daemon passes a
    frozen build thawed into a fresh manager
    ({!Symbolic.thaw}), which justifies exactly as the build did.
    [bdd_stats] are then that manager's counters.

    Resource limits come from the config: the wall-clock deadline is
    global to the run, while state/transition counters are reset per
    phase and per fault ({!Guard.sub}), so one pathological fault
    cannot starve the others.

    The remaining hooks exist for durable sessions ({!Satg_store}):

    - [guard] substitutes the caller's run guard for the one the config
      would create (the config's limits still shape the per-fault
      sub-guards).  A CLI signal handler can then
      {!Guard.cancel} it with {!Guard.Interrupt} to drain the run.
    - [settled f] pre-loads a journal-replayed outcome for target [f]
      (a collapse representative): the fault skips every phase and
      [on_outcome] is {e not} echoed for it — it is already on disk.
    - [on_outcome] observes each freshly computed outcome the moment it
      is committed, in commit order: random-phase detections first,
      then each searched fault followed by the faults its test caught
      in fault simulation.  A journal written from it is an exact
      prefix of the commit sequence of the uninterrupted run.

    Determinism contract for resume: a fault's random-phase detection
    depends only on (graph, walk) — per-walk seeding makes it
    independent of which other faults share the simulation pack — so
    running the phases over the not-yet-settled targets reproduces the
    statuses an uninterrupted run would have assigned. *)

val total : result -> int
val detected : result -> int

val aborted : result -> int
(** Faults whose search blew its resource budget (after the retry). *)

val detected_by : result -> Testset.phase -> int
(** Faults whose first detection came from the given phase. *)

val coverage_pct : result -> float
val undetected_faults : result -> Fault.t list

val aborted_faults : result -> (Fault.t * Guard.reason) list
(** The aborted faults, in input order, with why each gave up. *)

val truncated : result -> Guard.reason option
(** Why CSSG construction stopped early, if it did. *)

val partial : result -> bool
(** True iff the CSSG is truncated or any fault aborted — the result
    understates achievable coverage (CLI exit code 2). *)

val pp_summary : Format.formatter -> result -> unit
(** One-line coverage summary; appends a truncation note and the list
    of aborted faults (with reasons) when the run was partial. *)

val pp_summary_of :
  circuit:Circuit.t ->
  outcomes:Testset.outcome list ->
  faults_searched:int ->
  truncated:Guard.reason option ->
  cpu_seconds:float ->
  Format.formatter ->
  unit
(** {!pp_summary} from raw parts, for rendering a cached result
    ({!Satg_store}) bit-identically to the run that produced it. *)
