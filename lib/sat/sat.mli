(** A self-contained CDCL SAT solver, the second justification /
    differentiation backend next to {!Satg_bdd.Bdd}.

    Same engineering idiom as the BDD manager: int-packed literals in
    flat arrays, no allocation on the hot paths.  Variables are dense
    ints from {!new_var}; a literal packs a variable and a sign as
    [2*var + (0|1)].  Clauses (problem and learned alike) live in one
    growable int arena indexed by clause refs.

    The solver is {e incremental}: clauses persist across {!solve}
    calls and each call may pass a list of {e assumption} literals that
    hold for that call only — the mechanism behind time-frame queries
    ("is state [s] reachable at frame [t]?") in {!Satg_cnf.Cnf}.

    On top of plain assumptions the solver supports {e activation
    literals} ({!new_act}): a clause added with [~act] is guarded by
    the activation's negation, so it constrains a solve only when the
    activation literal is passed as an assumption.  {!retire}
    permanently disables an activation and {e deletes} its clause group
    — the registered problem clauses plus every learned clause that
    mentions the activation — detaching them from the watch lists and
    compacting the arena once dead clauses dominate.  This is the
    mechanism behind the one-solver-per-run ATPG engine: each
    fault's product clauses live and die under one activation while the
    shared time-frame clauses and act-free learned clauses persist.

    Search is CDCL: two-watched-literal unit propagation, first-UIP
    conflict learning with VSIDS activity bumping, phase saving, and
    Luby-sequence restarts.

    Resource governance: the installed {!Satg_guard.Guard} is probed
    ({!Satg_guard.Guard.tick}) on every propagated literal and every
    conflict-analysis resolution step, so a deadline or transition
    ceiling trips {e inside} a runaway solve.  On exhaustion the solver
    unwinds to decision level 0 (watch lists and saved phases intact —
    the instance stays usable) and re-raises; callers at subsystem
    boundaries degrade exactly like they do for the BDD engine. *)

open Satg_guard

type t

type lit = int
(** [2*var + 0] = the variable itself, [2*var + 1] = its negation. *)

val pos : int -> lit
val neg_of : int -> lit
val neg : lit -> lit
val var_of : lit -> int
val sign_of : lit -> bool
(** [true] iff the literal is the positive occurrence. *)

val create : unit -> t
(** An empty solver under {!Satg_guard.Guard.none}; {!set_guard}
    installs a budget. *)

val set_guard : t -> Guard.t -> unit
(** Swap the hot-path guard (per-fault budgets in the ATPG engine). *)

val new_var : t -> int
val nvars : t -> int

val set_decidable : t -> int -> bool -> unit
(** Exclude a variable from (or re-admit it to) branching.  Only sound
    for a variable that occurs in {e no live clause} — e.g. the product
    variables of a retired fault, whose whole clause group {!retire}
    just deleted: such a variable can never be forced, so leaving it
    unassigned cannot mask an unsatisfied clause.  {!value} falls back
    to the saved phase for it. *)

(** {1 Activation literals} *)

type act
(** A clause-group handle.  The activation's positive literal
    ({!act_lit}) is passed as an assumption to enable the group for one
    solve; {!retire} disables and deletes the group permanently. *)

val new_act : t -> act
(** Allocate an activation (backed by a fresh variable). *)

val act_lit : t -> act -> lit
(** The assumption literal that activates the group's clauses. *)

val retire : t -> act -> unit
(** Permanently disable the activation: assert its negation at root
    level, delete every clause registered to it ({!add_clause} [~act]
    plus learned clauses mentioning the activation variable), and
    compact the clause arena when dead clauses hold more than half of
    it.  Idempotent.  After retirement the group's other variables
    occur in no live clause, so the caller may {!set_decidable} them
    off. *)

val add_clause : ?act:act -> t -> lit list -> unit
(** Add a problem clause (root level).  Satisfied clauses are dropped,
    root-false literals removed; deriving the empty clause makes the
    instance permanently unsatisfiable.  With [~act] the clause is
    guarded by the activation literal's negation (active only under the
    {!act_lit} assumption) and registered for deletion at {!retire}.
    @raise Invalid_argument on an undeclared variable or a retired
    activation. *)

val solve : ?assumptions:lit list -> t -> bool
(** [true] = satisfiable under the assumptions (a model is available
    through {!value}); [false] = unsatisfiable under the assumptions.
    @raise Satg_guard.Guard.Exhausted when the installed guard trips;
    the solver remains usable afterwards. *)

val value : t -> int -> bool
(** Model value of a variable after a satisfiable {!solve}.  Variables
    untouched by the search default to their saved phase. *)

val lit_true : t -> lit -> bool

(** {1 Statistics} *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  learned : int;  (** learned clauses retained *)
  learned_lits : int;  (** total literals across learned clauses *)
  restarts : int;
  n_vars : int;
  n_clauses : int;  (** problem clauses *)
  instances : int;
      (** solver instances behind these counters: [1] for a live
          solver's own {!stats}, summed by {!add_stats} — the ATPG
          engine's "one instance per run, not per fault" witness *)
  solves : int;  (** {!solve} calls *)
  reused_shared : int;
      (** times a clause predating the latest activation — the shared
          good-machine unrolling, or anything learned while an earlier
          fault was live — served as a reason or conflict: the
          cross-fault payoff of the long-lived instance *)
  reused_learned : int;
      (** times a clause learned in an {e earlier} solve served as a
          reason or conflict in a later one — clause retention at work.
          Zero on encodings whose queries never conflict (the
          time-frame unrolling is propagation-complete on most
          benchmark families); see [reused_shared] for the retention
          signal that does not depend on conflicts *)
  deleted_clauses : int;  (** clauses deleted by {!retire} *)
}

val stats : t -> stats
(** This solver's counters ([instances = 1]). *)

val zero_stats : stats
val add_stats : stats -> stats -> stats
(** Pointwise sum, except [n_vars]/[n_clauses] which take the max —
    used to aggregate counters across the solvers of several ATPG
    runs. *)

val pp_stats : Format.formatter -> stats -> unit
