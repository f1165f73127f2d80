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
    symbolic computation mid-recursion.

    Memory is reclaimed by {!collect}, a mark-and-sweep from roots the
    caller names, and by a sifting pass, which frees the nodes its own
    swaps orphan.  Nothing else collects: only the caller knows which
    handles it still holds. *)

open Satg_guard

type man
type t
(** A BDD node handle.  Handles are canonical: two handles of the same
    manager represent the same function iff they are [equal].  Handles
    survive reordering.  A handle survives a {!collect} if and only if
    it is reachable from that collection's roots; any other handle is
    dead afterwards, and its id may be reused for another function. *)

val create :
  ?unique_size:int ->
  ?cache_size:int ->
  ?guard:Guard.t ->
  nvars:int ->
  unit ->
  man
(** [create ~nvars ()] makes a manager with variables [0..nvars-1].
    [unique_size] seeds the unique-table bucket count and [cache_size]
    fixes the operation-cache entry count (both rounded up to powers
    of two; the op cache never grows).  When omitted, both are derived
    from [nvars], so a 10-variable manager does not pay for the
    tables of a 100-variable workload.  Every operation probes the op
    cache, and every [mk]/[apply] cache miss probes [guard] (default
    {!Guard.none}), so a deadline or an already-tripped guard raises
    {!Guard.Exhausted} from inside the recursion. *)

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
(** Total nodes ever allocated in the manager (monotone): a slot
    reused from the free list counts again, so this measures
    allocation work, not the store size. *)

val clear_caches : man -> unit
(** Invalidate the operation cache (unique table is kept). *)

(** {2 Garbage collection} *)

val collect : man -> t list -> unit
(** [collect m roots] reclaims every node not reachable from [roots].
    The survivors keep their handles; every other handle of [m] is
    dead afterwards, and a later operation may reuse its id for a
    different function.  Reclaimed slots go onto a free list that node
    allocation reuses, the unique table is rebuilt from the survivors
    and the operation cache is cleared.  Costs time linear in the
    store size.  Must not run inside an operation or a sifting pass.
    @raise Invalid_argument if a root is already dead. *)

val collect_due : man -> bool
(** The store has grown past [max 2{^16} (2 × n)] nodes, where [n] is
    the count in use after the last {!collect} — the point at which
    the owner of a safe point should collect.  A fixed rule, not a
    setting. *)

(** {2 Dynamic variable reordering} *)

type reorder_mode = Reorder_none | Reorder_sift

val set_reorder : man -> reorder_mode -> unit
(** Under [Reorder_sift], an unrooted {!sift} pass fires automatically
    at public operation entry points once the store crosses a growth
    trigger (2× the nodes in use after the last pass; initial trigger
    4096 nodes).  An operation cannot see the caller's handles, so the
    pass pins every node in the store: it frees only what its own swaps
    create, and never ends with more nodes in use than it started with.
    Triggers depend only on the operation sequence, so runs are
    deterministic; the BDD phase of the engine is sequential, so they
    are also [-j]-independent. *)

val reorder_mode : man -> reorder_mode

val disable_reorder : man -> unit
(** Shorthand for [set_reorder m Reorder_none] — e.g. to freeze the
    order around code that must not see it move. *)

val sift : ?roots:t list -> man -> unit
(** One Rudell sifting pass: each variable (largest first) walks the
    order by in-place adjacent-level swaps, with the standard 1.2×
    max-growth cutoff per direction, and parks at the position with the
    fewest nodes in use — only if that is strictly fewer than where it
    started, so a tie never moves it.

    The pass keeps reference counts for its own duration: a node one
    of its swaps orphans is freed at once, its slot goes onto the free
    list, and later swaps of the same pass reuse it.  So the size it
    scores is the live size of the {e pinned} nodes, which depends on
    the order alone.
    - With [roots], the store is first collected down to them, as by
      {!collect} (every other handle is dead afterwards), and only the
      roots are pinned: the pass minimises exactly the size of the
      caller's functions.
    - Without, every node in the store is pinned, garbage included; the
      pass frees only nodes it made, and it never ends with more nodes
      in use than it started with.  This is the form the automatic
      trigger runs.

    Handles that survive keep their functions.  The manager's guard is
    probed {e between} swaps (each swap is atomic) and charged one
    transition per node the swaps allocate (counted as allocations,
    like {!node_count}), so both a deadline and a transition budget
    bound reordering work; a trip raises {!Guard.Exhausted} with the
    manager consistent.
    @raise Invalid_argument if a root is already dead. *)

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
      (** nodes in use: unique-table entries + terminals, that is the
          survivors of the last {!collect} plus everything allocated
          since, less what sifting passes freed.  Below [peak_nodes]
          once a collection or a pass has freed slots that have not
          been refilled. *)
  peak_nodes : int;
      (** the store's high-water mark (its bump pointer): never were
          more slots in use at once.  Without a collection or a sifting
          pass, every node ever allocated. *)
  n_vars : int;
  unique_buckets : int;  (** open-addressing bucket count *)
  unique_buckets_init : int;  (** bucket count chosen at {!create} *)
  unique_load : float;  (** live keys / buckets, < 0.75 by construction *)
  cache_slots : int;  (** op-cache entry count (fixed at {!create}) *)
  reorders : int;  (** completed sifting passes *)
  swaps : int;  (** adjacent-level swaps performed *)
  reorder_seconds : float;  (** CPU time spent reordering *)
  collections : int;  (** completed {!collect} calls *)
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
    benchmark's [bdd.apply_ops] count. *)

val cache_hit_rate : stats -> float

val pp_stats : Format.formatter -> stats -> unit

val pp : man -> Format.formatter -> t -> unit
(** Render as nested ITE text; debugging aid for small BDDs. *)
