(** Resource governance for every potentially divergent exploration.

    The paper's whole premise is that asynchronous exploration can
    diverge — non-confluence and oscillation under the unbounded
    gate-delay model — so no builder or search in this codebase may
    assume it terminates cheaply.  A {!t} carries a wall-clock
    deadline, a state-count ceiling and a transition-budget ceiling;
    exploration loops thread one through and call the [spend_*] /
    [tick] probes, which raise {!Exhausted} the moment a ceiling is
    crossed.

    Exhaustion is {e not} an error: callers at subsystem boundaries
    (CSSG builders, the ATPG engine) catch {!Exhausted} and degrade —
    a truncated graph, an [Aborted] fault outcome — so a hostile or
    merely large netlist damages one run, never the whole pipeline.

    A guard is cheap (a few mutable counters); the wall clock is only
    consulted every {!tick_period} probes. *)

type reason =
  | Timeout  (** the wall-clock deadline passed *)
  | State_limit  (** more distinct states than [max_states] *)
  | Transition_limit  (** more explored transitions than [max_transitions] *)
  | Interrupt
      (** the run was cancelled from outside (SIGINT/SIGTERM); like
          [Timeout] it is global — no per-fault retry, the whole family
          drains.  Unlike budget trips it never settles a fault: a
          durable session drops [Aborted Interrupt] journal entries on
          resume and searches those faults again. *)

exception Exhausted of reason
(** Raised by the [spend_*] / [check_time] / [tick] probes below.  Once
    a guard has tripped, every subsequent probe re-raises the same
    reason — a tripped guard stays tripped. *)

type t

val none : t
(** The unlimited guard: probes never raise.  Default everywhere a
    [?guard] parameter is omitted, so callers that do not care keep the
    historical behaviour.  Every probe on {e this singleton} is a
    complete no-op (no counter mutation), so the singleton is never
    written.  A guard {!create}d with no limits is {e not} inert: its
    probes still observe the family's cancel token (and the
    fault-injection harness), which is what lets a signal handler stop
    an otherwise unlimited run. *)

val create :
  ?timeout:float -> ?max_states:int -> ?max_transitions:int -> unit -> t
(** [timeout] is in wall-clock seconds {e from now}; the deadline is
    fixed at creation time.  Omitted limits are unlimited. *)

val sub : ?max_states:int -> ?max_transitions:int -> t -> t
(** A child guard with fresh counters but the parent's (absolute)
    deadline: per-fault isolation shares the run's clock while each
    fault gets its own state/transition allowance.  The child also
    shares the parent's {!cancel} token, so cancelling the parent trips
    the whole family, the sub-guard of the search in progress included. *)

val cancel : t -> reason -> unit
(** Drain a run: mark this guard family (the guard, its parent if it
    is a [sub], and every sibling sharing the token) so that each
    member's next probe raises {!Exhausted} with the given reason.
    First cancellation wins; cancelling the {!none} singleton is a
    no-op.  The SIGINT/SIGTERM handler of [satg atpg] and the daemon's
    [Service.interrupt] cancel with {!Interrupt}; safe to call from an
    OCaml signal handler. *)

val is_none : t -> bool
(** No deadline and no ceilings — every probe is a no-op. *)

val tick_period : int
(** How many [tick]s between wall-clock consultations (a power of 2). *)

val check_time : t -> unit
(** Consult the wall clock immediately.
    @raise Exhausted if the deadline has passed or the guard tripped. *)

val tick : t -> unit
(** Cheap probe for hot loops: consults the wall clock only every
    {!tick_period} calls.
    @raise Exhausted on deadline (throttled) or if already tripped. *)

val spend_states : t -> int -> unit
(** Account for [n] freshly discovered states.
    @raise Exhausted when the total crosses [max_states]. *)

val spend_state : t -> unit

val spend_transitions : t -> int -> unit
(** Account for [n] explored transitions (fired gates, frontier
    expansions, relational products).
    @raise Exhausted when the total crosses [max_transitions]. *)

val spend_transition : t -> unit

val states_used : t -> int
val transitions_used : t -> int
(** Counters are maintained on every guard except the {!none}
    singleton, where both report 0. *)

val tripped : t -> reason option
(** The reason this guard first raised, if it ever did. *)

val guarded : t -> (unit -> 'a) -> ('a, reason) result
(** [guarded g f] runs [f], turning an {!Exhausted} raised by {e any}
    guard into [Error reason] — the boundary combinator for fail-soft
    callers.  [g] is checked for time once before [f] runs, so an
    already-expired deadline aborts without doing any work. *)

val reason_to_string : reason -> string
(** ["timeout"], ["state-limit"], ["transition-limit"], ["interrupt"]. *)

val reason_of_string : string -> reason option
(** Inverse of {!reason_to_string} (journal/codec round-trips). *)

val pp_reason : Format.formatter -> reason -> unit
