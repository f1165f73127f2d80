(** Request execution for the ATPG daemon: one long-lived {!t} owns the
    warm store, the shared builds and the counters;
    {!handle} maps each decoded {!Proto.request} to its
    {!Proto.response}.

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

    {2 Shared builds}

    A graph is built once per daemon, not once per request.  ATPG
    misses, batch members and [cssg] requests that share netlist bytes
    and the CSSG-shaping fields of {!Satg_core.Session.config_fields}
    ([k], [timeout], [max-states], [max-transitions]) share one
    {!Satg_sg.Explicit.build}: the first builds under its own request
    guard, the rest reuse the graph.  Under [--engine bdd --reorder
    none], misses that also share [reorder] and [cluster-cap] share the
    symbolic build ({!Satg_core.Engine.build_symbolic}): it is kept
    frozen ({!Satg_sg.Symbolic.freeze}) and each later miss justifies
    on its own copy thawed into a fresh manager, so no manager state
    crosses requests.  Builds under [--reorder sift] are made per
    request: the automatic sifting trigger counts garbage, so a thawed
    store would sift at other points.  Every phase still runs under
    the request's own guards, which reproduces the one-shot pipeline
    exactly (the run guard's counters are only ever spent on graph
    construction, and a thawed build justifies as the build did).

    Retention is the warm store's rule ({!Satg_store.Durable.reproducible}):
    a build is kept when it completed or a state or transition cap cut
    it, never when a [Timeout] or [Interrupt] did, and never while the
    fault-injection harness is armed.  Kept builds live as long as the
    daemon, one graph per graph key and one frozen build per symbolic
    key, like the warm store's results; nothing evicts them.  A frozen
    build is three ints per BDD node under its roots.  On perfbench's
    [serve] mix (42 netlists) that is 42 graphs and 42 frozen builds,
    about 0.1 MB and 0.18 MB of heap besides the circuits they
    share, where the 42 built managers would take 16.4 MB.

    {2 Batches}

    Batch members are served in order, each under its own guard (and
    its own response — a tripped member degrades alone), and share
    builds like any other requests. *)

type t

val create : ?cache_dir:string -> unit -> t
(** [cache_dir] backs the warm store with the durable object store
    (shared with one-shot [--cache-dir] runs, both directions). *)

val handle : t -> Proto.request -> Proto.response
(** Never raises: parse failures, guard trips and internal errors all
    come back as responses. *)

val interrupt : t -> unit
(** Begin draining: cancel the in-flight guard family with
    [Interrupt], and pre-cancel every future one.  Safe from a signal
    handler.  Irreversible. *)

val note_connection : t -> unit
(** Server-side accounting hooks for the accept loop. *)

val note_malformed : t -> unit

val stats_fields : t -> (string * string) list
(** The counters behind the [stats] request kind, in a fixed order:
    connections, malformed frames, per-kind request counts, warm-store
    hits/misses, [cssg-builds] (explicit graphs built, shared or not),
    [symbolic-builds] (BDD-engine symbolic builds made, kept frozen or
    not; a thawed copy is not a build), degraded responses,
    failures. *)
