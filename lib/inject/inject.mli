(** Deterministic fault injection for robustness testing.

    The durability and fail-soft invariants of this codebase — torn
    journal tails salvage, a tripped guard degrades one fault, a
    killed process resumes — are
    only worth anything if something actually exercises the failure
    paths.  This module is that something: a seeded, spec-driven
    harness that makes selected {e probe sites} fail on demand, so
    tests and CI can prove the invariants instead of asserting them.

    Probe sites are cheap named checkpoints compiled into production
    code ({!probe} is one boolean load when the harness is idle).  A
    spec — usually from the [SATG_FAULT_INJECT] environment variable —
    arms sites with actions and triggers:

    {v
    SATG_FAULT_INJECT="seed=7,journal.append=enospc@3,guard.tick=trip@p0.001"
    v}

    Spec grammar (comma-separated clauses):
    - [seed=N] — seed for every probabilistic trigger (default 1).
    - [SITE=ACTION@N] — fire [ACTION] on exactly the [N]-th probe of
      [SITE] (1-based), once.
    - [SITE=ACTION@pF] — fire [ACTION] on each probe of [SITE] with
      probability [F], from a per-rule PRNG stream derived
      deterministically from [(seed, site, action)] — the same spec
      replays the same firing pattern.

    A site may carry several rules; the first that fires wins.  Known
    sites and the actions their probing code interprets:

    - [guard.tick] — every {!Satg_guard.Guard} probe on a limited
      guard.  [trip] raises the guard's [Exhausted Transition_limit]
      mid-phase; [trip-timeout] raises [Exhausted Timeout] (the
      no-retry path: the fault it hits ends [Aborted] at once).
    - [bdd.collect] — each safe point of the symbolic engine: before
      every [TCR_k] image step and between reachability rings of
      [Symbolic.build], and on entry to [Symbolic.justify].  [force]
      collects the BDD store there whatever its size, so
      [bdd.collect=force@p1] collects at every safe point.
    - [journal.append] — each journal record append.  [short] writes a
      torn half-record then raises; [enospc] raises before writing;
      [kill] SIGKILLs the process {e after} the append is durable;
      [torn-kill] SIGKILLs it mid-record.
    - [store.rename] / [store.fsync] — the atomic-publish steps of the
      store.  [fail] raises {!Injected}.

    Every site is probed on the one domain that runs the pipeline, so
    hit counts are deterministic and an [@N] trigger fires on the same
    probe in every run of the same command, at every site.  A site
    not listed above is never probed: a rule for it arms nothing. *)

exception Injected of string
(** Raised by probing code when an armed site fires; the payload is
    ["site/action"].  Deliberately {e not} a [Guard.Exhausted]: it
    models an environment failure (an I/O error), not a
    resource budget. *)

val enabled : unit -> bool
(** One load; [false] unless a spec with at least one rule is armed. *)

val configure : string -> (unit, string) result
(** Arm the harness from a spec string (replacing any previous spec).
    [Error] describes the first malformed clause; the previous spec is
    cleared either way.  The empty string disarms. *)

val configure_from_env : unit -> (unit, string) result
(** [configure] from [SATG_FAULT_INJECT]; unset or empty disarms. *)

val clear : unit -> unit
(** Disarm every site and reset all hit counters. *)

val probe : string -> string option
(** [probe site] counts one hit of [site] and returns the action of
    the first armed rule that fires, [None] otherwise (always [None]
    when disarmed). *)

val fires : string -> string -> bool
(** [fires site action] — did [probe site] pick this action?  Sugar
    for probing code with a single interpreted action. *)

val fail : string -> unit
(** Probe [site]; raise {!Injected} on any firing rule.  For sites
    whose only failure mode is "this operation errors". *)

val kill_self : unit -> 'a
(** [SIGKILL] the current process — indistinguishable from an external
    [kill -9], which is the point: crash-resume tests use it to die at
    a deterministic probe site. *)

val hits : string -> int
(** Total probes of [site] since the last {!clear}/{!configure}. *)
