(** Deterministic ATPG in three phases (paper §5.1–5.3), the analogue
    of Cho/Hachtel/Somenzi three-phase ATPG adapted to the CSSG:

    + {e fault activation}: stable states where the fault site carries
      the value opposite to the stuck value;
    + {e state justification}: a shortest valid-vector path from reset
      to an activation state.  The prefix is replayed on the faulty
      machine's exact state set ({!Detect.exact_apply}): a set whose
      every member shows a different output along the way is the
      "corruption always" case of figure 3 and yields a shorter test;
      a set that only partly differs is "corruption sometimes" and the
      search continues with the full prefix;
    + {e state differentiation}: breadth-first search over the product
      of the good CSSG and the {e exact set} of possible faulty states
      until every member of the set disagrees with the good outputs
      (figure 4: a partially-agreeing set is not conclusive).

    Faults whose site never takes the opposite value in a stable state
    skip activation and run differentiation from reset (§5.1).  One
    {!Detect.machine} serves the whole search, so every activation
    candidate reuses the faulty states, frontiers and set steps the
    candidates before it explored. *)

open Satg_guard
open Satg_fault
open Satg_sg

type config = {
  max_depth : int;  (** differentiation BFS depth bound *)
  max_product_states : int;  (** visited-set size bound *)
  max_activation_tries : int;  (** activation states attempted, nearest first *)
}

val default_config : config

(** {1 Pluggable backends}

    Justification and differentiation are search problems over the
    CSSG / product machine; the explicit BFS algorithms of this module
    are the reference implementations, and a [backend] substitutes an
    alternative engine for either.  Contract: a backend must preserve
    {e detectability} — [find_test] returns [Some] for exactly the
    same faults — while the witness sequences may differ (all engines
    return shortest justification prefixes and shortest
    differentiation suffixes, so even the lengths agree). *)

type backend = {
  backend_name : string;  (** for diagnostics / stats labels *)
  backend_justify : Guard.t -> int -> bool array list option;
      (** shortest valid-vector path from reset to the given state id,
          or [None] if unreachable / out of budget *)
  backend_differentiate :
    (Guard.t ->
    config ->
    Detect.machine ->
    start:int ->
    fstates:Detect.set ->
    bool array list option)
    option;
      (** shortest differentiating suffix from the (good state,
          faulty-state set) product point; [None] here falls back to
          {!differentiate} *)
}

val symbolic_backend : Cssg.t -> Symbolic.t -> backend
(** BDD justification (onion-ring image computation) + explicit
    differentiation — the engine behind [--engine bdd]. *)

val find_test :
  ?config:config ->
  ?guard:Guard.t ->
  ?backend:backend ->
  Cssg.t ->
  Fault.t ->
  Testset.sequence option
(** A valid test sequence detecting the fault, or [None] if the bounded
    search fails (undetectable or out of budget).

    A fault whose gate (the reading gate of an input fault) has no
    primary output in its transitive fanout
    ({!Satg_circuit.Structure.reaches_output}) is [None] at once: the
    outputs' fanin cone is the same in both machines, so no sequence
    can detect it, and no search runs or charges [guard].

    [guard] is consulted on entry and charged one transition per product
    edge expanded during differentiation; exhaustion raises
    {!Guard.Exhausted} (callers such as {!Engine.run} turn this into a
    per-fault {!Testset.Aborted} outcome).

    [?backend] substitutes for the explicit phases: {!symbolic_backend}
    justifies on the BDD engine (onion-ring image computation, as the
    paper does in §5), and the SAT time-frame engine
    ({!Sat_engine.backend}) plugs in here too. *)

val differentiate :
  Cssg.t ->
  Guard.t ->
  config ->
  Detect.machine ->
  start:int ->
  fstates:Detect.set ->
  Testset.sequence option
(** [differentiate g guard config m ~start ~fstates], the explicit
    differentiation phase (a [backend_differentiate] of [g]): a
    breadth-first search over the product of the good CSSG from state
    [start] and the exact set [fstates] of states the faulty machine
    [m] may be in, for the shortest sequence after which every
    member's outputs differ from the good state's.  A product state is
    keyed by the good state and the set's id ({!Detect.product_key}).
    The start point itself is not checked.  The search goes at most [config.max_depth]
    vectors deep, and [guard] is charged one transition per product
    edge expanded.

    Past [config.max_product_states] product states no new one is
    queued, but edges to known ones and the difference checks still
    run.  A capped search that finds nothing raises
    [Guard.Exhausted State_limit] rather than reporting the fault
    undetectable. *)
