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

val check : Circuit.t -> (unit, string) result
(** [Error m] says why {!build} rejects the circuit: it has no reset
    state, its reset state is not stable, or it has more inputs than a
    non-negative int holds bits ([Sys.int_size - 1], 62 on 64-bit
    hosts), since input vectors are enumerated as int masks. *)

val build :
  ?k:int ->
  ?max_frontier:int ->
  ?guard:Guard.t ->
  Circuit.t ->
  Cssg.t
(** [k] defaults to {!Satg_circuit.Structure.default_k};
    [max_frontier] (default 20_000) bounds the distinct states one
    pair's search may visit; a pair that exceeds it is conservatively
    pruned.

    One state at a time leaves the BFS queue, and its pairs are
    classified in input-mask order against [guard] itself.  A pair's
    target is interned (numbered and queued) when the pair settles,
    and a state's edges are recorded once all its pairs are
    classified.

    [guard] governs the whole construction: one state spent per
    interned stable state (the reset state is exempt, so even a
    zero-budget build yields a valid one-state graph), one transition
    per gate the underlying unbounded-delay exploration fires.  Exhaustion
    does {e not} raise out of [build]: the graph explored so far is
    returned, tagged with {!Cssg.truncated}.  A budget therefore trips
    on the pair that exceeds it; that state's edges are dropped, and
    everything recorded before it is exact.
    @raise Invalid_argument when {!check} rejects the circuit. *)
