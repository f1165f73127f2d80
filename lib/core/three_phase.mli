(** Deterministic ATPG in three phases (paper §5.1–5.3), the analogue
    of Cho/Hachtel/Somenzi three-phase ATPG adapted to the CSSG:

    + {e fault activation}: stable states where the fault site carries
      the value opposite to the stuck value;
    + {e state justification}: a shortest valid-vector path from reset
      to an activation state.  The prefix is replayed on the faulty
      machine (ternary): a definite output difference along the way is
      the "corruption always" case of figure 3 and yields a shorter
      test; an uncertain difference is "corruption sometimes" and the
      search continues with the full prefix;
    + {e state differentiation}: breadth-first search over the product
      of the good CSSG and the {e exact set} of possible faulty states
      until every member of the set disagrees with the good outputs
      (figure 4: a partially-agreeing set is not conclusive).

    Faults whose site never takes the opposite value in a stable state
    skip activation and run differentiation from reset (§5.1). *)

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
    fstates:bool array list ->
    bool array list option)
    option;
      (** shortest differentiating suffix from the (good state,
          faulty-state set) product point; [None] here falls back to
          the explicit product BFS *)
}

val symbolic_backend : Cssg.t -> Symbolic.t -> backend
(** BDD justification (onion-ring image computation) + explicit
    differentiation — the engine behind [--engine bdd]. *)

val find_test :
  ?config:config ->
  ?guard:Guard.t ->
  ?symbolic:Symbolic.t ->
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

    With [?symbolic], state justification runs on the BDD engine
    (onion-ring image computation, as the paper does in §5) instead of
    the explicit BFS tree; both produce shortest prefixes, so coverage
    is identical — the option exists for fidelity and for the larger
    circuits where the symbolic representation is smaller.

    [?backend] generalises [?symbolic] (and wins when both are given):
    any {!backend} value substitutes for the explicit phases — the SAT
    time-frame engine ({!Sat_engine.backend}) plugs in here. *)
