(** Explicit-state CSSG construction.

    A breadth-first search from the circuit's reset state over valid
    edges.  Each (stable state, vector) pair is classified by
    {!Satg_sim.Async_sim.Kernel.classify_vector}, a depth-first search
    over the pair's distinct states that ends at a second stable
    state, an unstable cycle or an unstable path longer than [k],
    capped at [max_frontier] visited states.  Only a pair that settles
    confluently contributes: its edge, and its target as a node.  An invalid pair (non-confluent, or still
    unstable at [k]) or a capped one contributes nothing, so every
    state of an untruncated graph is reachable from reset over valid
    edges — the same graph {!Symbolic.to_cssg} enumerates.

    Note that a ternary-simulation shortcut would be {e unsound} here:
    ternary simulation certifies settling of every fair execution,
    while [TCR_k] also counts unfair interleavings in which a transient
    oscillation consumes the whole budget while some other excited gate
    waits (the paper's "transient oscillations" remark in section 2).
    The test suite contains a random-circuit property that distinguishes
    the two semantics. *)

open Satg_guard
open Satg_circuit
open Satg_pool

val build :
  ?k:int ->
  ?max_frontier:int ->
  ?guard:Guard.t ->
  ?pool:Pool.t ->
  Circuit.t ->
  Cssg.t
(** [k] defaults to {!Satg_circuit.Structure.default_k};
    [max_frontier] (default 20_000) bounds the distinct states one
    pair's search may visit; a pair that exceeds it is conservatively
    pruned.

    The BFS frontier is classified in fixed-size batches on [pool]
    (without one, on an inline width-1 pool that spawns no domains):
    each worker runs its own exploration kernel under a private
    [Guard.sub] carrying the shared deadline and the batch's
    transition allowance, and the caller merges the batch in frontier
    order — interning, edge recording and budget re-spending all
    happen there, sequentially.

    [guard] governs the whole construction: one state spent per
    interned stable state (the reset state is exempt, so even a
    zero-budget build yields a valid one-state graph), one transition
    per gate the underlying unbounded-delay exploration fires.  Exhaustion
    does {e not} raise out of [build]: the graph explored so far is
    returned, tagged with {!Cssg.truncated}.

    Contract: at every pool width, with or without state and
    transition budgets, the graph, its state numbering and the
    truncation reason equal those of a plain one-state-at-a-time BFS
    that spends the same budgets (the reference the tests keep).
    Deadline trips are the exception: the deadline is checked per
    batch and inside workers, so where it lands depends on timing.
    @raise Invalid_argument if the circuit has no stable reset state. *)

(** Packed-key state interning — the [build] hot path, exposed for the
    intern micro-benchmark and white-box tests. *)
module Intern : sig
  type t

  val create : n_nodes:int -> t

  val intern : t -> guard:Guard.t -> bool array -> int * bool
  (** The id, and whether the state is new.  Spends one guard state
      per fresh intern after the first.
      @raise Satg_guard.Guard.Exhausted when the state budget trips. *)

  val count : t -> int

  val states : t -> bool array array
  (** In intern order. *)
end
