(** Explicit-state CSSG construction.

    Enumerates stable states reachable in test mode from the circuit's
    reset state.  Two strategies:

    - [`Pure]: every (state, vector) pair is classified by exhaustive
      unbounded-delay exploration ({!Satg_sim.Async_sim}), exactly as
      the paper defines [TCR_k] — the oracle used to cross-check the
      symbolic engine, exponential in the concurrency width;
    - [`Hybrid] (default): the same verdicts through the early-exit
      classifier {!Satg_sim.Async_sim.Kernel.classify_vector} (a second stable
      outcome or a repeating frontier ends the analysis immediately),
      capped at [max_frontier] interleaving states per layer.  A capped
      pair is conservatively pruned and no TCSG nodes are harvested
      from it; below the cap both strategies agree exactly.

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
  ?exploration:[ `Hybrid | `Pure ] ->
  ?max_frontier:int ->
  ?guard:Guard.t ->
  Circuit.t ->
  Cssg.t
(** [k] defaults to {!Satg_circuit.Structure.default_k};
    [max_frontier] (default 20_000) only limits [`Hybrid] fallback
    exploration.

    [guard] governs the whole construction: one state spent per
    interned stable state (the reset state is exempt, so even a
    zero-budget build yields a valid one-state graph), transitions
    spent by the underlying unbounded-delay exploration.  Exhaustion
    does {e not} raise out of [build]: the graph explored so far is
    returned, tagged with {!Cssg.truncated}.
    @raise Invalid_argument if the circuit has no stable reset state. *)

val build_par :
  ?k:int ->
  ?exploration:[ `Hybrid | `Pure ] ->
  ?max_frontier:int ->
  ?chunk:int ->
  ?guard:Guard.t ->
  pool:Pool.t ->
  Circuit.t ->
  Cssg.t
(** [build] fanned out over a {!Satg_pool.Pool}: fixed-size batches of
    the BFS frontier are classified concurrently (each worker on its
    own exploration kernel, under a private [Guard.sub] carrying the
    shared deadline and the batch's transition allowance), then merged
    on the caller in frontier order
    — interning, edge recording and budget re-spending all happen
    sequentially in the merge, so state numbering is identical to
    {!build} and the resulting graph is bit-identical for {e every}
    pool width, including a 1-worker pool.

    [chunk] (default 32, clamped to ≥ 1) is the frontier batch size
    between merge barriers.  The default is deliberately {e not}
    derived from the pool width — that is what makes truncation points
    [-j]-independent.  A caller sizing it to the measured host core
    count (the benchmark does) trades that invariance for fuller
    batches on wide machines; the untruncated graph is identical for
    every [chunk].

    On an untruncated run the graph equals {!build}'s exactly.  Under
    a tripped budget the truncation point is deterministic across pool
    widths (batch boundaries never depend on [jobs]) but may differ
    from the sequential builder's, which trips mid-classification
    rather than at merge granularity. *)

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
