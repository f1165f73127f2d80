(** The SAT time-frame backend for three-phase ATPG — the second
    deterministic engine next to the BDD one ([--engine sat]).

    One engine owns {e one} long-lived incremental {!Satg_sat.Sat}
    instance (created lazily), and a run makes one engine, so a run
    creates at most one instance, never one per fault.  The instance
    holds the good-machine time-frame
    unrolling ({!Satg_cnf.Cnf.Unroller}), emitted once and shared by
    every query, plus a {!Satg_cnf.Cnf.Defs} hash-consing table.

    Justification is exact-length bounded model checking over the
    explicit CSSG: "reach state [s] from reset" is asked frame by frame
    under a single assumption literal.  The first satisfiable frame is
    the BFS shortest distance, so prefixes match the explicit engine's
    lengths exactly; frames are extended lazily on UNSAT and persist
    across faults, as do learned clauses.

    Differentiation unrolls the {e product} of the good CSSG with the
    exact faulty-state set ({!Detect.exact_apply} — a deterministic
    automaton) ring by ring, emitting each step's clauses only after
    its ring of product states is complete; differentiating states are
    detected during expansion ({!Detect.exact_differs}) and queried at
    their discovery frame through a disjunction indicator under
    assumptions.  The ring discipline makes the bounded search traverse
    exactly the explicit product BFS's state space, so the
    detected/undetected partition provably coincides.

    Each fault's product clauses are guarded by a per-fault activation
    literal on the shared solver: product frame [f] is linked to good
    frame [dist(start) + f] (every product path is a good path shifted
    by the activation state's BFS distance), so learned clauses over
    the shared good frames carry over between faults; when the fault
    retires, its activation is {!Satg_sat.Sat.retire}d — clauses
    deleted, variables taken out of the branching heap.

    Product-graph truncation at [max_product_states] is fail-soft: if
    the cap was hit and no differentiating sequence was found, the call
    raises {!Satg_guard.Guard.Exhausted}[ State_limit] instead of
    reporting "undetectable" from a graph it never finished — the
    caller degrades per fault exactly like any other guard trip.

    The per-fault {!Satg_guard.Guard} is threaded into the solver
    (probed inside unit propagation, charged one transition per
    conflict) and into product expansion (one transition per edge,
    mirroring the explicit BFS). *)

open Satg_sg

type t

val create : Cssg.t -> t
(** Lazy: no clauses are generated until the first query. *)

val backend : t -> Three_phase.backend
(** Plug into {!Three_phase.find_test}. *)

val stats : t -> Satg_sat.Sat.stats
(** Counters of the engine's one solver ([instances = 1] once a query
    has run, all zero before) — the [--stats] payload for
    [--engine sat]. *)

val defs_stats : t -> int * int
(** [(defined, interned)] from the hash-consing table: fresh Tseitin
    definitions emitted vs definitions served structurally. *)
