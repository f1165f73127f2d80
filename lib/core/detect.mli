(** Detection checking: replaying test sequences on faulty machines.

    The good machine follows CSSG edges (binary states by
    construction); faulty machines are simulated conservatively with
    ternary simulation, scalar ({!check}) or bit-parallel over a
    multi-word pack of any size ({!sweep}).  A fault counts as detected only when some primary
    output is binary in the good machine and takes the {e opposite
    binary} value in the faulty machine — a [Phi] is never conclusive
    (paper §5.4). *)

open Satg_circuit
open Satg_fault
open Satg_sim
open Satg_sg

val good_trace : Cssg.t -> Testset.sequence -> int list option
(** State ids visited after each vector (reset first, length
    [1 + length sequence]); [None] if some vector is not a valid CSSG
    edge where it is applied. *)

val faulty_start : Circuit.t -> Fault.t -> Circuit.t * Ternary_sim.state
(** Injected circuit and its conservative settled state from the good
    reset values.
    @raise Invalid_argument if the good circuit has no reset state. *)

val check : Cssg.t -> Fault.t -> Testset.sequence -> bool
(** Scalar: does the sequence (a valid CSSG path) definitely detect the
    fault?  Outputs are compared at reset and after every vector. *)

val sweep :
  Cssg.t -> Testset.sequence -> Fault.t list -> Fault.t list * Fault.t list
(** Bit-parallel: [(detected, remaining)] after replaying the sequence
    against every fault at once — one multi-word
    {!Satg_sim.Parallel_sim} pack, however many faults there are.
    Detected machines are dropped mid-replay and the pack is repacked
    as it thins; the replay stops early once every fault is caught. *)

(** {1 Exact faulty-machine simulation}

    The three-phase ATPG follows the paper (§5.2–5.3, figures 3 and 4)
    in tracking the exact {e set} of states the faulty circuit may be
    in at each test cycle, rather than one conservative ternary state.
    A fault is detected when {e every} possible faulty state disagrees
    with the good machine on the observed outputs ("corruption has to
    be noticed in all terminal stable states"). *)

type machine
(** A faulty machine: one exploration kernel of the faulty circuit, whose
    state graph holds every faulty state met, and the tables that
    memoize its exact steps.  It lives as long as one fault's search, so
    all of that fault's activation candidates share what it explored. *)

type set
(** A set of states of one machine, interned: its members are the
    kernel's graph ids ({!Async_sim.Kernel.intern}), sorted, and two
    sets of a machine with the same members are the same set with the
    same {!set_id}.  A set is only meaningful to the machine that made
    it. *)

val machine : ?max_set:int -> k:int -> Async_sim.Kernel.t -> machine
(** The machine exploring the kernel's circuit [k] firings per test
    cycle; [max_set] as in {!exact_start}.  {!exact_start} builds one
    for an injected stuck-at fault; the delay-fault engine builds one
    around a kernel with a slow gate.
    @raise Invalid_argument if the circuit has more inputs than an
    input-vector mask holds (62, the limit of a CSSG build). *)

val exact_start : ?max_set:int -> Cssg.t -> Fault.t -> machine * set
(** Machine and the exact set of states it may be in after power-up in
    the good reset values (frontier after [k] firings).  [max_set]
    (default 128) bounds both the per-state frontier and the tracked
    set size; overruns surface as [None] from {!exact_apply}.  A start
    frontier past the bound gives the empty set, which no sequence
    detects. *)

val of_states : machine -> bool array list -> set
(** The set of the given states. *)

val members : machine -> set -> bool array list
(** The states of a set, sorted by [Stdlib.compare]. *)

val set_id : set -> int
(** Dense per machine, from 0: two sets of one machine have the same id
    iff they have the same members. *)

val exact_apply : machine -> set -> bool array -> set option
(** Apply one vector to every member and take the union of the exact
    [k]-step frontiers; [None] when a member's frontier exceeds the
    machine's bound, when the frontiers' sizes sum past 8 times it, or
    when the union does: the caller must treat the branch as
    inconclusive.  The empty set stays empty.  Each member's frontier
    is computed once per state of the kernel's graph, and each result
    once per (set, vector).
    @raise Invalid_argument if the vector has the wrong length. *)

val exact_differs : Cssg.t -> int -> machine -> set -> bool
(** The set is not empty and every member's outputs differ from the
    good state's outputs. *)

val product_key : Cssg.t -> int -> set -> int
(** [product_key g i s] identifies the product state (good CSSG state
    [i], faulty-state set [s]): [i + n * set_id s], [n] the number of
    states of [g]. *)

val replay_exact : Cssg.t -> machine -> set -> Testset.sequence -> bool
(** [replay_exact g m start seq]: does the sequence (a valid CSSG path)
    detect the machine [m] started in the exact set [start]?  Outputs
    are compared at reset and after every vector, as in {!check}; a
    set {!exact_apply} cannot bound is inconclusive. *)

val check_exact : Cssg.t -> Fault.t -> Testset.sequence -> bool
(** {!replay_exact} from {!exact_start}: like {!check} but with exact
    faulty-state sets, strictly more complete than the ternary check,
    still sound. *)

(** Relationship between the two checkers: neither dominates in
    general.  The ternary checker certifies the outcome of every
    {e fair} execution of the faulty machine, so it may declare a
    detection even though the k-bounded frontier still contains an
    unfair straggler state agreeing with the good outputs; conversely
    the exact checker resolves races the ternary abstraction blurs.
    When the exact frontier is fully stable at every observation,
    [check] implies [check_exact] (a property-tested fact).  The engine
    uses each checker where the paper does: ternary for random TPG and
    fault simulation, exact sets for three-phase ATPG. *)
