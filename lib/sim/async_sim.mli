(** Exact exploration of a circuit under the unbounded gate-delay model.

    From a stable state and a new input vector, the circuit evolves by
    firing one excited gate at a time ([R_delta] in the paper); all
    interleavings are explored.  This is the reference semantics the
    CSSG is built from, and also the oracle the ternary simulator is
    tested against.

    All exploration runs on a {!Kernel}: the circuit compiled once into
    packed state words, per-gate fanin masks and incremental excitation
    words, with open-addressing state sets (docs/PERF.md, "The
    test-mode exploration kernel").  The circuit-level functions below
    compile a kernel per call; loops that explore many pairs of one
    circuit compile one kernel and keep it. *)

open Satg_guard
open Satg_circuit

type outcome =
  | Settles of bool array
      (** every interleaving reaches this unique stable state within
          the budget *)
  | Non_confluent of bool array list
      (** at least two distinct stable results are reachable at the end
          of the test cycle (sorted, for determinism) *)
  | Exceeds_budget
      (** some interleaving is still unstable after [k] transitions
          (oscillation, or a settling chain longer than the test
          cycle) *)

type classification =
  | C_settles of bool array  (** unique stable outcome within budget *)
  | C_invalid
      (** non-confluent, oscillating or over budget: no CSSG edge, and
          none of the stable states the interleavings pass through
          enters the graph through this pair *)
  | C_capped
      (** more than [max_frontier] distinct states visited before a
          verdict: no edge *)

exception Frontier_limit
(** Raised by {!states_after} when a layer exceeds [max_frontier]. *)

(** Packed state words (and other int arrays) as hash keys.  The hash
    passes every word through a splitmix64-style finalizer, so keys
    that differ only in high bits still spread over a table. *)
module Words : sig
  type t = int array

  module Tbl : Hashtbl.S with type key = t
end

(** The packed exploration kernel of one circuit.

    - A state is [ceil(n_nodes / 63)] int words; node [i] is bit
      [62 - i mod 63] of word [i / 63], so unsigned word order is
      [Stdlib.compare] order on [bool array]s.
    - Each gate is compiled to the word and bit of each fanin; an SOP
      cube becomes a (care, value) mask over the gathered fanin bits.
    - Every state in a frontier carries an excitation word per 63
      gates.  Firing a gate flips one state bit and re-evaluates only
      that gate and its readers.
    - States live in open-addressing sets keyed by a Zobrist hash.  The
      depth-first search's set is reused from search to search.
    - Every state {!frontier} meets stays in the kernel's {e state
      graph}, one set that lives as long as the kernel, under a dense
      integer id.  An unstable state's [R_delta] successors are
      computed once, on its first expansion, and kept as a list of ids,
      so a layer is a walk over cached int lists.  The graph only grows:
      a kernel used for {!frontier} holds every distinct state it was
      asked about, and is meant to live as long as one fault's search.

    A kernel owns mutable memory: it must not be shared between
    domains.  [Explicit.build] compiles one per build and each exact
    fault check ([Detect]) one per faulty machine, so a fault search on
    a pool worker explores on its own kernel. *)
module Kernel : sig
  type t

  val compile : ?slow:int * bool -> Circuit.t -> t
  (** [slow:(g, dir)] models a gross delay fault: gate node [g] never
      completes a transition to [dir] (its excitation bit stays clear
      while its output differs from [dir]), so a state whose only
      excited gate is held this way behaves as stable.
      @raise Invalid_argument if [g] is not a gate node. *)

  val circuit : t -> Circuit.t

  (** {2 The state graph} *)

  val intern : t -> bool array -> int
  (** The id of a state in the kernel's graph, added if new.  Ids are
      dense from 0 in order of first appearance, and a state keeps its
      id for the kernel's lifetime. *)

  val state : t -> int -> bool array
  (** The state of a graph id.
      @raise Invalid_argument if the id is not in the graph. *)

  val apply_inputs : t -> int -> bool array -> int
  (** [apply_inputs t e v] is the id of state [e] with its input nodes
      set to [v] ({!Circuit.apply_input_vector}), added if new.
      @raise Invalid_argument if [e] is not in the graph or [v] has the
      wrong length. *)

  val frontier : ?max_frontier:int -> ?guard:Guard.t -> t -> k:int -> int -> int array
  (** {!states_after} on graph ids: the ids of the states reachable from
      state [e] in exactly [k] firings, each once, in no particular
      order.  Layer [i + 1] is, for each state of layer [i] in turn,
      that state if nothing in it can fire, else its successors; the
      guard charges, the [Frontier_limit] and the set of states are
      {!states_after}'s. *)

  val states_after :
    ?max_frontier:int -> ?guard:Guard.t -> t -> k:int -> bool array -> bool array list
  (** [states_after t ~k s] is the set of states reachable from [s] in
      {e exactly} [k] firings, where states with nothing to fire
      self-loop (paper's [TCR_k] frontier).  Sorted by
      [Stdlib.compare].

      [guard] is charged once per layer with the layer's width (one
      transition per frontier state), before the layer is expanded.  The
      states are kept in the kernel's graph ({!frontier}).
      @raise Frontier_limit when some layer grows beyond [max_frontier]
      (default: unlimited).
      @raise Satg_guard.Guard.Exhausted when [guard] trips. *)

  val classify_vector :
    ?max_frontier:int ->
    ?guard:Guard.t ->
    t ->
    k:int ->
    bool array ->
    bool array ->
    classification
  (** [classify_vector t ~k s v] decides the CSSG validity of applying
      [v] to the stable state [s]: [C_settles s'] iff {!states_after}
      at [k] would be the one stable state [s'].  Layer [i] holds an
      unstable state iff a path of [i + 1] unstable states leaves the
      start, and a stable state persists once reached, so that holds
      iff the start reaches exactly one stable state, no cycle of
      unstable states and no path of [k + 1] unstable states.

      A depth-first search over the pair's distinct states decides it,
      expanding each state once: the pair is invalid at a second
      distinct stable state, at an edge back into the current path (an
      unstable cycle), or once the path, or a path plus the longest
      unstable path already known below a finished state, holds more
      than [k] unstable states.  It is capped once more than
      [max_frontier] distinct states are visited (default: unlimited).
      Gates fire in {!Circuit.gates} order, and [guard] is charged one
      transition per gate firing.
      @raise Invalid_argument if [s] is not stable.
      @raise Satg_guard.Guard.Exhausted when [guard] trips. *)

  val apply_vector : t -> k:int -> bool array -> bool array -> outcome
  (** [apply_vector t ~k s v] is the outcome of applying [v] to the
      stable state [s], the one {!states_after} at [k] defines: every
      state the interleavings reach in exactly [k] firings when all are
      stable, else [Exceeds_budget].  It runs {!classify_vector}'s
      search, which goes on past a second stable state to collect every
      one the pair reaches and returns [Exceeds_budget] at the first
      unstable cycle or path of [k + 1] unstable states.  No frontier
      cap and no guard.
      @raise Invalid_argument if [s] is not stable. *)

  val pack : t -> bool array -> Words.t
  (** The packed words of a state: equal states give equal words. *)
end

val states_after :
  ?max_frontier:int ->
  ?guard:Guard.t ->
  Circuit.t ->
  k:int ->
  bool array ->
  bool array list
(** {!Kernel.states_after} on a freshly compiled kernel. *)

val apply_vector : Circuit.t -> k:int -> bool array -> bool array -> outcome
(** {!Kernel.apply_vector} on a freshly compiled kernel. *)

val settle : Circuit.t -> max_steps:int -> bool array -> bool array option
(** Fire excited gates in a fixed (lowest-id-first) order until stable;
    [None] if the budget runs out.  One arbitrary interleaving — used
    to compute reset states, not for validity analysis. *)

val reachable_stable_states :
  Circuit.t -> k:int -> from:bool array list -> bool array list
(** All stable states reachable in test mode when {e every} input
    vector (valid or not) may be applied; the union of all settling
    results.  A superset of the CSSG's node set: it also holds the
    stable states that only races reach, into which no test can drive
    the circuit.  Used to print the test-mode view
    ([examples/cssg_walkthrough.ml]) and by tests.
    Bounded exploration: states are accumulated to a fixed point. *)
