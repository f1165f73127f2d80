(** Symbolic (BDD-based) CSSG construction — the paper's actual method
    (§4.2): transition relations [R_I] and [R_delta] as BDDs, the
    k-step test-cycle relation [TCR_k] by k-fold [R_delta] images, and
    the non-confluence pruning by the pair-splitting check
    [∃ s''. TCR_k(s, s'') ∧ X_I(s'') = X_I(s') ∧ s'' ≠ s'].

    Each circuit node owns three adjacent BDD variables (present, next,
    auxiliary) at its {e rank} in the variable order; the rank
    permutation is configurable ([?node_order]), which is the paper's
    §6 suggestion of studying variable-ordering strategies. *)

open Satg_guard
open Satg_circuit
open Satg_bdd

type t

val default_cluster_cap : int

val build :
  ?k:int ->
  ?node_order:int array ->
  ?style:[ `Partitioned | `Monolithic ] ->
  ?reorder:Bdd.reorder_mode ->
  ?cluster_cap:int ->
  ?guard:Guard.t ->
  Circuit.t ->
  t
(** [node_order] maps each node id to its rank in the variable order
    (default: creation order, which interleaves inputs and gates).

    [style] selects the transition-relation representation (default
    [`Partitioned]).  The partitioned form keeps one excitation
    conjunct per gate over the next-state rail, plus the conjunct of
    stability, and images a set [T] as
    [(T ∧ stable) ∨ ⋁_g flip_{y_g}(T ∧ excited_g)]: one gate fires per
    step, so each per-gate relational product collapses to a
    one-variable cofactor exchange ({!Bdd.flip_var}, which never builds
    the conjunction).  No frame-equality BDD and no [and_exists]
    schedule is involved.  [`Monolithic] is the paper's literal
    single-BDD [R_delta], imaged by one relational product per step —
    kept as the reference oracle for benchmarks and conformance runs;
    both styles produce identical graphs.

    Reachability is frontier-only: each ring computes [TCR_k] from just
    the stable states first reached by the previous ring, and [TCR_k]
    of the reachable set is kept as the union of the per-ring results
    (the image distributes over union, so the union is exact).  The
    loop stops when a ring reaches no new stable state.

    [cluster_cap] (default {!default_cluster_cap}) is used only by the
    non-confluence check [∃z. TCR_k(x, z) ∧ X_I(z) = X_I(y) ∧ z ≠ y]:
    the primary-input equalities are chunked along the rank order into
    conjuncts of at most [cluster_cap] nodes, and the check runs as an
    early-quantification schedule over them.

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

val stable_set : t -> Bdd.t
(** All stable states, over present variables. *)

val reachable : t -> Bdd.t
(** Stable states reachable in test mode from reset (present vars). *)

val n_reachable : t -> int

val cssg_relation : t -> Bdd.t
(** Valid edges over (present, next) variables. *)

val gate_function : t -> int -> Bdd.t
(** The gate's instantaneous function over present variables. *)

val state_to_bdd : t -> bool array -> Bdd.t
(** Minterm over present variables. *)

val justify :
  t -> target:Bdd.t -> (bool array list * bool array) option
(** Onion-ring shortest path from the reset state to any state in
    [target] (a set over present variables), following only valid CSSG
    edges.  Returns the input-vector sequence and the concrete reached
    state. *)

val to_cssg : t -> Cssg.t
(** Enumerate the symbolic graph into the explicit representation
    (for cross-checks and for the concrete ATPG phases).  The
    {!truncated} tag carries over to {!Cssg.truncated}. *)

val sift_order : t -> int array
(** Greedy sifting over node ranks: starting from this instance's
    order, repeatedly try moving each node's variable triple to every
    position and keep the placement minimising the transferred size of
    the retained artefacts.  Returns a [node_order] suitable for
    {!build}; rebuilding with it never yields more live nodes than the
    original order. *)
