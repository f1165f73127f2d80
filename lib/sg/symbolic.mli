(** Symbolic (BDD-based) CSSG construction — the paper's actual method
    (§4.2): transition relations [R_I] and [R_delta] as BDDs, the
    k-step test-cycle relation [TCR_k] by k-fold [R_delta] images, and
    the non-confluence pruning by the pair-splitting check
    [∃ s''. TCR_k(s, s'') ∧ X_I(s'') = X_I(s') ∧ s'' ≠ s'].
    [R_delta] is kept partitioned, one conjunct per gate, and never
    formed as one BDD (see {!build}).

    Each circuit node owns three adjacent BDD variables (present, next,
    auxiliary) at its {e rank} in the variable order; the rank
    permutation is configurable ([?node_order]), which is the paper's
    §6 suggestion of studying variable-ordering strategies.

    {b Garbage collection.}  Two calls collect the manager's store
    ({!Bdd.collect}) at safe points, once it holds more than 2{^16}
    nodes and has doubled since the last collection
    ({!Bdd.collect_due}):
    - {!build}, before every [R_delta] image step of [TCR_k] and
      between reachability rings.  Its roots are the relations it has
      built, the reachable set, the running union of the rings' valid
      edges, the ring's frontier, and every step [TCR_k] has recorded
      so far.
    - {!justify}, on entry.  Its roots are this instance's artefacts
      (the stable set, {!reachable}, the CSSG edge relation, [R_I] and
      the transition relation's conjuncts) and [target].

    {!sift} collects down to the same artefacts before it reorders.

    So those artefacts, and a justify target, always survive.  Any
    other handle of {!man} — from {!state_to_bdd} or the caller's own
    operations — may be dead once {!justify} or {!sift} returns,
    unless it was the target.  No other call collects. *)

open Satg_guard
open Satg_circuit
open Satg_bdd

type t

val default_cluster_cap : int

val build :
  ?k:int ->
  ?node_order:int array ->
  ?reorder:Bdd.reorder_mode ->
  ?cluster_cap:int ->
  ?guard:Guard.t ->
  Circuit.t ->
  t
(** [node_order] maps each node id to its rank in the variable order
    (default: creation order, which interleaves inputs and gates).

    The transition relation is partitioned: one excitation conjunct
    per gate over the next-state rail, plus the conjunct of stability.
    A set [T] is imaged as
    [(T ∧ stable) ∨ ⋁_g flip_{y_g}(T ∧ excited_g)]: one gate fires per
    step, so each per-gate relational product collapses to a
    one-variable cofactor exchange ({!Bdd.flip_var}, which never builds
    the conjunction).  No frame-equality BDD and no [and_exists]
    schedule is involved.

    Reachability is frontier-only and runs over valid edges.  Each
    ring computes [TCR_k] from just the states first reached by the
    previous ring, runs the non-confluence check on that [TCR_k] alone
    (a source's [TCR_k] depends on that source only, so the check is
    exact per ring), and keeps the ring's valid edges.  The targets of
    those edges not reached before are the next frontier; the loop
    stops when a ring reaches no new state.  The CSSG is the union of
    the rings' edges, and {!reachable} is the subgraph reachable from
    reset over valid edges — the graph {!Explicit.build} returns.  It
    leaves out every stable state reached only inside an invalid pair,
    non-confluent or still unstable at [k].

    [cluster_cap] (default {!default_cluster_cap}) is used only by the
    non-confluence check [∃z. TCR_k(x, z) ∧ X_I(z) = X_I(y) ∧ z ≠ y]:
    the primary-input equalities are chunked along the rank order into
    conjuncts of at most [cluster_cap] nodes, and the check runs as an
    early-quantification schedule over them.  The conjuncts are
    rebuilt in every ring, never kept across rings.

    [reorder] (default {!Bdd.Reorder_none}) enables sifting-based
    dynamic variable reordering inside the manager.

    [guard] governs the traversal: one transition per allocated BDD
    node, so [max_transitions] bounds symbolic work by the same order
    of work it bounds the explicit engine, and states spent as the
    reachable set grows (each ring's new states, counted by
    sat-count).  Exhaustion does {e not} raise: the reachable set and
    the edges of the completed rings are kept — the states of the ring
    in progress are kept without edges — and the result is tagged
    {!truncated}, a sound sub-graph of the full graph.  Because the
    charge is per allocated node, a capped build's trip point moves
    with the amount of BDD work: less allocation lets it get further.
    A node rebuilt after a collection reclaimed it is charged again,
    so a build that collects before it trips may trip earlier.

    The guard is also installed in the BDD manager, so [mk]/[apply]
    cache misses probe it and a deadline trips {e inside} a runaway
    image computation, not just at ring boundaries.  A trip that
    predates the transition relations degrades to the one-state
    (reset, no edges) graph, still tagged {!truncated}.
    @raise Invalid_argument if the circuit has no (stable) reset state
    or [node_order] is not a permutation. *)

val truncated : t -> Guard.reason option
(** Why the reachability traversal stopped early, if it did. *)

val live_nodes : t -> int
(** Total BDD nodes of the retained artefacts (transition relations,
    reachable set, CSSG relation) — the variable-ordering metric. *)

val sift : t -> unit
(** One rooted sifting pass ({!Bdd.sift} with roots) over this
    instance's artefacts — the handles {!justify} collects to.  The
    pass minimises their shared node count and leaves nothing else in
    the store; any other handle of {!man} is dead afterwards.  The
    graph, and every artefact's function, are unchanged. *)

val circuit : t -> Circuit.t
val k : t -> int
val man : t -> Bdd.man

val bdd_stats : t -> Bdd.stats
(** Health counters of the underlying manager (node counts, unique
    table load, per-op cache hit/miss) — the [--stats] payload. *)

val with_guard : t -> Guard.t -> (unit -> 'a) -> 'a
(** Run [f] with the manager's hot-path guard swapped for [g]
    (restored on return or exception) — how per-fault budgets govern
    symbolic justification inside the three-phase engine. *)

val reachable : t -> Bdd.t
(** The CSSG's states (present vars): the stable states reachable from
    reset over valid edges.  In a truncated build, also the states of
    the ring in progress, which have no edges. *)

val n_reachable : t -> int

val state_to_bdd : t -> bool array -> Bdd.t
(** Minterm over present variables. *)

val justify :
  t -> target:Bdd.t -> (bool array list * bool array) option
(** Onion-ring shortest path from the reset state to any state in
    [target] (a set over present variables), following only valid CSSG
    edges.  Returns the input-vector sequence and the concrete reached
    state.  May collect on entry, keeping this instance's artefacts and
    [target] (see the module doc). *)

val to_cssg : t -> Cssg.t
(** Enumerate the symbolic graph into the explicit representation
    (for cross-checks and for the concrete ATPG phases).  The
    {!truncated} tag carries over to {!Cssg.truncated}. *)
