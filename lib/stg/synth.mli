(** Logic synthesis from STGs.

    Two backends mirroring the paper's two benchmark families:

    - {!complex_gate}: one atomic complex gate (sum-of-products with
      self-feedback) per output signal, computing its next-state
      function.  Under the unbounded-delay model with atomic gates this
      reproduces the behaviour of the speed-independent circuits
      Petrify emits (Table 1).

    - {!decomposed}: the same covers decomposed into 2-input
      AND / OR / NOT gates — the bounded-delay style netlists SIS emits
      (Table 2).  With [~redundant:true], every function whose minimal
      cover could glitch (it contains opposing literals) is replaced by
      its fully-redundant {e all-primes} cover before decomposition —
      redundancy inserted exactly where hazards force SIS's hand,
      reproducing the paper's finding that the redundant logic makes
      trimos-send / vbe10b / vbe6a poorly testable while the other
      circuits stay close to their Table 1 coverage.

    Both backends attach the STG's initial state as the circuit reset
    state and fail if that state is not stable (the initial marking
    must not excite an output). *)

open Satg_circuit

val next_state_covers : Stg.sg -> (string * Satg_logic.Cover.t) list
(** Minimized next-state cover per output signal, over the full signal
    code (variable order = STG signal order). *)

val prime_covers : Stg.sg -> (string * Satg_logic.Cover.t) list
(** All-primes (maximally redundant, hazard-free) covers: every prime
    that covers a reached code where the signal's next value is 1. *)

val hazard_free_covers : Stg.sg -> (string * Satg_logic.Cover.t) list
(** Per-function choice: all-primes where the minimal cover has
    opposing literals (hazard potential), minimal otherwise.  This is
    what {!decomposed} [~redundant:true] synthesizes. *)

val has_opposing_pair : Satg_logic.Cover.t -> bool
(** Whether two cubes of the cover oppose in some literal — the
    single-input-change hazard precondition that makes
    {!hazard_free_covers} fall back to the all-primes cover. *)

val complex_gate : Stg.t -> (Circuit.t, string) result

val decomposed : ?redundant:bool -> Stg.t -> (Circuit.t, string) result

val add_consensus : Satg_logic.Cover.t -> Satg_logic.Cover.t
(** Close the cover under pairwise consensus terms that are not already
    contained in a single existing cube (one round).  The added cubes
    are logically redundant — any test for a fault inside them may not
    exist. *)
