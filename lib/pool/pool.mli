(** A fixed pool of worker domains with deterministic parallel map.

    One pool owns [jobs - 1] spawned domains (the caller participates
    as worker 0, so [jobs] workers run concurrently) that park between
    parallel regions.  {!map} fans an array of independent items out to
    the workers — items are claimed one at a time off a shared atomic
    cursor, so an expensive item never serialises the cheap ones behind
    it — and returns the results {e in input order}, which is what
    makes pool-based algorithms reproducible: callers merge results by
    index, never by completion time.

    Exceptions raised by items are funnelled: every item still runs,
    and after the region joins, the exception of the {e
    lowest-indexed} failing item is re-raised in the caller — the same
    exception a sequential left-to-right loop would have surfaced
    first.

    A pool with [jobs = 1] spawns no domains and runs every region
    inline in the caller, byte-for-byte the sequential semantics; this
    is the [-j 1] anchor that the [-j N] determinism contract is
    checked against.

    Item functions must confine their mutations to worker-local state
    (anything reached from their arguments is shared).  The
    {!Satg_guard.Guard} discipline fits: give each worker its own
    [Guard.sub] and cross-domain control travels only through the
    family's atomic cancel token. *)

type t

val create : jobs:int -> t
(** [jobs] is clamped to [1 .. 128].  [jobs - 1] domains are spawned
    immediately and live until {!shutdown}. *)

val jobs : t -> int

val map : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] computes [f worker_id arr.(i)] for every [i] and
    returns the results in input order.  [worker_id] is in
    [0 .. jobs - 1] and identifies the executing worker — the hook for
    worker-local backends (a per-domain SAT solver, a scratch buffer).
    A one-item array runs inline in the caller as worker 0. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent; the pool must not be used
    afterwards. *)

val with_pool : ?pool:t -> jobs:int -> (t -> 'b) -> 'b
(** [create], run, and {!shutdown} even on exceptions.  Given a
    caller-owned [pool], run on it instead and leave it running
    ([jobs] is then ignored): the one place an optional pool is
    resolved. *)
