(** The Confluent Stable State Graph (paper §4).

    Nodes are stable states of the circuit in test mode; an edge
    [s --v--> s'] exists iff applying input vector [v] to [s] settles
    {e confluently} to the unique stable state [s'] within the test
    cycle budget [k].  The CSSG is a deterministic synchronous FSM
    abstraction of the asynchronous circuit: every edge is safe to
    drive from a synchronous tester.

    The nodes are the stable states reachable from the reset state
    over valid edges: every builder interns only the targets of valid
    edges.  The paper's figure 2 also draws stable states that only a
    race reaches (its [s1]); no test can drive the circuit into such a
    state, so the graph leaves them out.  A race outcome is still a
    node when some valid edge enters it: on the mutex latch the
    [11 -> 00] release race is pruned, yet both of its outcomes are
    nodes — [000010] is the reset state, and [00] from [110001] enters
    [000001].  Only a truncated graph may hold a state that is not
    {!deterministically_reachable}: the target of an edge that the trip
    dropped with the rest of its source's edges.

    A graph may be {e truncated}: a builder that exhausted its
    {!Satg_guard.Guard} budget returns the region explored so far,
    tagged with the exhaustion reason.  A truncated graph is a sound
    under-approximation — every state and edge it contains is a real
    CSSG state/edge — so random TPG, fault simulation and deterministic
    ATPG all remain valid over it; only completeness (coverage) is
    lost. *)

open Satg_guard
open Satg_circuit

type edge = {
  vector : bool array;  (** input vector labelling the transition *)
  target : int;
}

type t

val make :
  ?truncated:Guard.reason ->
  circuit:Circuit.t ->
  k:int ->
  states:bool array array ->
  succ:edge list array ->
  initial:int list ->
  unit ->
  t
(** Used by the builders; normalises nothing but checks array lengths
    and computes deterministic reachability.
    @raise Invalid_argument on inconsistent sizes. *)

val circuit : t -> Circuit.t
val k : t -> int

val truncated : t -> Guard.reason option
(** Why construction stopped early, if it did. *)

val n_states : t -> int
val n_edges : t -> int
val state : t -> int -> bool array

val id_of_state : t -> bool array -> int option
(** The id of a state the graph holds: a linear scan over its states. *)

val initial : t -> int list
val successors : t -> int -> edge list

val apply : t -> int -> bool array -> int option
(** Follow the edge labelled with the given vector, if valid here. *)

val deterministically_reachable : t -> int -> bool
(** Reachable from an initial state through valid edges only. *)

val justify :
  t -> ?from:int list -> target:(int -> bool) -> unit -> (bool array list * int) option
(** Shortest sequence of input vectors leading from an initial state
    (or [from]) to a state satisfying [target], breadth-first.  Returns
    the vector sequence and the reached state id.  A state in [from]
    already satisfying [target] yields [([], id)]. *)

val pp_stats : Format.formatter -> t -> unit

val pp : Format.formatter -> t -> unit
(** Full dump: one line per state with its outgoing vectors (small
    graphs only). *)

val to_dot : t -> string
(** Graphviz rendering: stable states as nodes (initial states double
    circled, states without incoming valid edges grey), edges labelled
    with their input vectors. *)
