(** Reduced Ordered Binary Decision Diagrams with hash-consing.

    A {!man} (manager) owns the node store, the unique table and the
    operation cache.  BDD values of different managers must never be
    mixed; this is checked with assertions in debug builds only.

    Variables are dense integers [0 .. nvars-1].  The variable {e
    order} is a mutable permutation of them (identity at creation):
    every structural comparison goes through the level maps, so the
    order can change over the manager's life ({!sift},
    {!swap_adjacent}) without invalidating existing handles — a
    reorder rewrites nodes in place, preserving the function each node
    id denotes.  Terminals and all operations are the textbook Bryant
    constructions (APPLY / ITE with memoization).

    The hot paths are allocation-free: the unique table is an
    open-addressing int array keyed by the packed (var, low, high)
    triple with inline hashing, and all operations share one
    fixed-size direct-mapped cache (lossy on collision).  A
    {!Satg_guard.Guard.t} attached to the manager is probed from
    inside [mk]/[apply], so resource limits can interrupt a runaway
    symbolic computation mid-recursion. *)

open Satg_guard

type man
type t
(** A BDD node handle.  Handles are canonical: two handles of the same
    manager represent the same function iff they are [equal].  Handles
    survive reordering. *)

val create :
  ?unique_size:int ->
  ?cache_size:int ->
  ?cache_threshold:int ->
  ?guard:Guard.t ->
  nvars:int ->
  unit ->
  man
(** [create ~nvars ()] makes a manager with variables [0..nvars-1].
    [unique_size] seeds the unique-table bucket count and [cache_size]
    fixes the operation-cache entry count (both rounded up to powers
    of two; the op cache never grows).  When omitted, both are derived
    from [nvars], so a 10-variable manager no longer pays for the
    tables of a 100-variable workload.  [cache_threshold] is the store
    size below which operations skip cache probing entirely (default:
    64 for auto-sized managers, 0 when [cache_size] is given).  Every
    [mk]/[apply] cache miss probes [guard] (default {!Guard.none}), so
    a deadline or an already-tripped guard raises {!Guard.Exhausted}
    from inside the recursion. *)

val set_guard : man -> Guard.t -> unit
(** Swap the guard probed by the hot paths — e.g. to run per-fault
    queries under a per-fault budget, or {!Guard.none} to finish
    salvage work after a trip. *)

val guard : man -> Guard.t

val nvars : man -> int

val add_var : man -> int
(** Append a fresh variable at the bottom of the order; returns its
    index. *)

val zero : man -> t
val one : man -> t
val var : man -> int -> t
val nvar : man -> int -> t

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val top_var : man -> t -> int
(** Variable at the root. @raise Invalid_argument on terminals. *)

val low : man -> t -> t
val high : man -> t -> t

val not_ : man -> t -> t
val and_ : man -> t -> t -> t
val or_ : man -> t -> t -> t
val xor_ : man -> t -> t -> t
val imp : man -> t -> t -> t
val iff : man -> t -> t -> t
val diff : man -> t -> t -> t
(** [diff m a b] is [a ∧ ¬b]. *)

val ite : man -> t -> t -> t -> t

val and_list : man -> t list -> t
val or_list : man -> t list -> t

val cofactor : man -> t -> var:int -> value:bool -> t

val flip_var : man -> var:int -> t -> t -> t
(** [flip_var m ~var a b] is [a ∧ b] with the polarity of [var]
    inverted (the cofactors by [var] exchanged everywhere) — the image
    of a single-variable toggle restricted to [b], computed in one
    recursion without building [a ∧ b].  [flip_var m ~var f (one m)]
    flips [f] alone: linear in [f], and an involution. *)

val compose : man -> t -> var:int -> t -> t
(** [compose m f ~var g] substitutes [g] for [var] in [f]. *)

val exists : man -> vars:int list -> t -> t
val forall : man -> vars:int list -> t -> t

val and_exists : man -> vars:int list -> t -> t -> t
(** Relational product: [∃ vars. a ∧ b], computed without building the
    full conjunction. *)

val permute : man -> (int -> int) -> t -> t
(** [permute m p f] renames every variable [v] of [f] to [p v].  The
    mapping need not be order-preserving. *)

val support : man -> t -> int list
(** Variables on which the function depends, ascending by index. *)

val eval : man -> t -> (int -> bool) -> bool

val sat_count : man -> nvars:int -> t -> float
(** Number of satisfying assignments over the given variable count.
    Computed exactly (arbitrary precision) and rounded once at the
    end, so the result is the nearest float to the true count even
    beyond 2{^53}.  Order-independent. *)

val sat_count_int : man -> nvars:int -> t -> int option
(** Exact satisfying-assignment count as a native int, or [None] when
    the true count exceeds [2{^62} - 1] (overflow is detected, never
    wrapped). *)

val any_sat : man -> t -> (int * bool) list
(** One satisfying path as (variable, value) pairs in order-position
    (root-to-leaf) sequence; variables absent from the list are
    unconstrained.  @raise Not_found on the zero BDD. *)

val all_sat : man -> t -> (int * bool) list list
(** All satisfying paths (cubes).  Exponential in the worst case. *)

val fold_sat : man -> t -> init:'a -> f:('a -> (int * bool) list -> 'a) -> 'a
(** Fold {!all_sat} without materialising the list. *)

val size : man -> t -> int
(** Number of internal DAG nodes reachable from the handle. *)

val node_count : man -> int
(** Total nodes ever allocated in the manager (monotone). *)

val clear_caches : man -> unit
(** Invalidate the operation cache (unique table is kept). *)

(** {2 Dynamic variable reordering} *)

type reorder_mode = Reorder_none | Reorder_sift

val set_reorder : man -> reorder_mode -> unit
(** Under [Reorder_sift], a sifting pass fires automatically at public
    operation entry points once the store crosses a growth trigger
    (2× the post-reorder size; initial trigger 4096 nodes).  Triggers
    depend only on the operation sequence, so runs are deterministic;
    the BDD phase of the engine is sequential, so they are also
    [-j]-independent. *)

val reorder_mode : man -> reorder_mode

val set_reorder_bound : man -> int -> unit
(** Cap the number of {e automatic} sifting passes (default:
    unlimited).  Explicit {!sift} calls are not counted against it. *)

val disable_reorder : man -> unit
(** Shorthand for [set_reorder m Reorder_none] — e.g. to freeze the
    order around code that must not see it move. *)

val sift : man -> unit
(** One Rudell sifting pass: each variable (largest first) walks the
    order by in-place adjacent-level swaps and parks at the position
    minimising the live node count, with the standard 1.2× max-growth
    cutoff per direction.  Handles remain valid.  The manager's guard
    is probed {e between} swaps (each swap is atomic) and charged one
    transition per node the swaps allocate, so both a deadline and a
    transition budget bound reordering work; a trip raises
    {!Guard.Exhausted} with the manager consistent. *)

val swap_adjacent : man -> int -> unit
(** Swap the variables at levels [l] and [l+1] in place.  Exposed for
    tests; {!sift} is the intended consumer.
    @raise Invalid_argument unless [0 <= l < nvars - 1]. *)

val level_of_var : man -> int -> int
(** Current order position of a variable. *)

val var_at_level : man -> int -> int
(** Variable at an order position. *)

val order : man -> int array
(** The current order as a level-indexed variable array (a copy). *)

(** Manager health counters, for [--stats] and the BDD benchmark. *)
type stats = {
  live_nodes : int;
      (** unique-table entries + terminals.  Equals [peak_nodes] until
          a reorder orphans nodes (there is no GC). *)
  peak_nodes : int;  (** store size: everything ever allocated *)
  n_vars : int;
  unique_buckets : int;  (** open-addressing bucket count *)
  unique_buckets_init : int;  (** bucket count chosen at {!create} *)
  unique_load : float;  (** live keys / buckets, < 0.75 by construction *)
  cache_slots : int;  (** op-cache entry count (fixed at {!create}) *)
  cache_threshold : int;  (** store size below which the cache is skipped *)
  reorders : int;  (** completed sifting passes *)
  swaps : int;  (** adjacent-level swaps performed *)
  reorder_seconds : float;  (** CPU time spent reordering *)
  and_hits : int;
  and_misses : int;
  or_hits : int;
  or_misses : int;
  xor_hits : int;
  xor_misses : int;
  not_hits : int;
  not_misses : int;
  ite_hits : int;
  ite_misses : int;
  flip_hits : int;
  flip_misses : int;
}

val stats : man -> stats

val apply_ops : stats -> int
(** Total op-cache lookups (hits + misses over every op) — the
    "apply operations" counted by the throughput benchmark. *)

val cache_hit_rate : stats -> float

val pp_stats : Format.formatter -> stats -> unit

val pp : man -> Format.formatter -> t -> unit
(** Render as nested ITE text; debugging aid for small BDDs. *)

val transfer : src:man -> dst:man -> (int -> int) -> t -> t
(** Rebuild a function of [src] inside [dst], renaming every variable
    [v] to [map v].  The target order may be arbitrary (the rebuild
    goes through ITE).
    @raise Invalid_argument if a mapped variable is outside [dst]. *)
