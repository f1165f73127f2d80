(** Request execution for the ATPG daemon: one long-lived {!t} owns the
    warm store, the worker pool and the counters; {!handle} maps each
    decoded {!Proto.request} to its {!Proto.response}.

    {2 QoS}

    Every ATPG/CSSG request runs under a fresh {!Satg_guard.Guard}
    built from the request's own budgets (deadline, state and
    transition ceilings) — one slow client degrades its own answer
    (a truncated graph, [Aborted] faults), never the daemon or the
    requests behind it.  {!interrupt} cancels the in-flight guard
    {e and} every guard created after it, which is how a drain signal
    turns the rest of a batch into fast degraded responses instead of
    hours of work.

    {2 Warm store}

    Results keyed by {!Satg_store.Durable.key_of} — netlist bytes
    plus the exhaustive {!Satg_core.Session.config_fields} — are kept
    in memory (and, with [cache_dir], in the durable object store).
    Only {!Satg_store.Durable.cacheable} results are stored: a
    deterministically budget-capped run is reproducible and therefore
    cacheable; a wall-clock or drain abort is not.  A hit is served
    with zero fault searches and [hit = true] on the wire.

    {2 Batches}

    Batch members are served in order, each under its own guard (and
    its own response — a tripped member degrades alone).  ATPG members
    sharing netlist bytes and CSSG-shaping budgets ([k], [timeout],
    [max-states], [max-transitions]) share one graph build per batch;
    the per-member phases still run under per-member guards, which
    reproduces the one-shot pipeline exactly (the run guard's counters
    are only ever spent on graph construction). *)

type t

val create : ?cache_dir:string -> ?jobs:int -> unit -> t
(** [jobs] (default 1) sizes the one {!Satg_pool.Pool} every ATPG
    request's fault search runs on — the daemon amortizes domain
    creation across its lifetime.  Graphs are built on the caller.
    [cache_dir] backs the warm store with the durable object store
    (shared with one-shot [--cache-dir] runs, both directions). *)

val handle : t -> Proto.request -> Proto.response
(** Never raises: parse failures, guard trips and internal errors all
    come back as responses. *)

val interrupt : t -> unit
(** Begin draining: cancel the in-flight guard family with
    [Interrupt], and pre-cancel every future one.  Safe from a signal
    handler.  Irreversible. *)

val shutdown : t -> unit
(** Release the worker pool.  The [t] must not be used afterwards. *)

val note_connection : t -> unit
(** Server-side accounting hooks for the accept loop. *)

val note_malformed : t -> unit

val stats_fields : t -> (string * string) list
(** The counters behind the [stats] request kind, in a fixed order:
    connections, malformed frames, per-kind request counts, warm-store
    hits/misses, CSSG builds, degraded responses, failures. *)
