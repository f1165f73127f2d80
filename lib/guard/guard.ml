open Satg_inject

type reason =
  | Timeout
  | State_limit
  | Transition_limit
  | Interrupt

exception Exhausted of reason

type limits = {
  deadline : float option;  (* absolute, Unix.gettimeofday basis *)
  max_states : int option;
  max_transitions : int option;
}

(* [cancel] is the one cell a guard family (one [create] plus its
   [sub]s) shares, so a signal handler delivering SIGINT, or the
   daemon's drain, trips the search in progress at its next probe and
   every later sub-guard at its first.  All other fields belong to the
   one guard. *)
type t = {
  limits : limits;
  cancel : reason option Atomic.t;
  mutable states : int;
  mutable transitions : int;
  mutable ticks : int;
  mutable tripped : reason option;
}

let tick_period = 256

let make ?cancel limits =
  {
    limits;
    cancel = (match cancel with Some c -> c | None -> Atomic.make None);
    states = 0;
    transitions = 0;
    ticks = 0;
    tripped = None;
  }

let is_none t =
  t.limits.deadline = None
  && t.limits.max_states = None
  && t.limits.max_transitions = None

(* Shared value: every probe takes the [inert] fast path and returns
   without mutating anything, so the singleton is never written. *)
let none = make { deadline = None; max_states = None; max_transitions = None }

(* Only the [none] singleton is exempt from probing.  A guard the
   caller *created* stays probe-active even with every limit unset,
   because its cancel token must still be observable — that is what
   lets a SIGINT handler stop an otherwise unlimited run. *)
let inert t = t == none

let create ?timeout ?max_states ?max_transitions () =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  make { deadline; max_states; max_transitions }

let sub ?max_states ?max_transitions t =
  (* a sub of the inert singleton must not adopt — and pollute — the
     singleton's global cancel token *)
  let cancel = if inert t then None else Some t.cancel in
  make ?cancel { deadline = t.limits.deadline; max_states; max_transitions }

let trip t r =
  t.tripped <- Some r;
  raise (Exhausted r)

let cancel t r =
  if not (inert t) then
    ignore (Atomic.compare_and_set t.cancel None (Some r))

let retrip t =
  match t.tripped with
  | Some r -> raise (Exhausted r)
  | None -> (
    match Atomic.get t.cancel with
    | Some r -> trip t r
    | None -> ())

(* The [guard.tick] injection site: a mid-phase budget trip on demand,
   so tests can prove the fail-soft paths without crafting a netlist
   that happens to blow the budget at the right moment. *)
let inject_probe t =
  if Inject.enabled () then
    match Inject.probe "guard.tick" with
    | Some "trip" -> trip t Transition_limit
    | Some "trip-timeout" -> trip t Timeout
    | Some _ | None -> ()

let check_time t =
  if not (inert t) then begin
    retrip t;
    inject_probe t;
    match t.limits.deadline with
    | Some d when Unix.gettimeofday () > d -> trip t Timeout
    | _ -> ()
  end

let tick t =
  if not (inert t) then begin
    retrip t;
    inject_probe t;
    if t.limits.deadline <> None then begin
      t.ticks <- t.ticks + 1;
      if t.ticks land (tick_period - 1) = 0 then check_time t
    end
  end

let spend_states t n =
  if not (inert t) then begin
    t.states <- t.states + n;
    (match t.limits.max_states with
    | Some m when t.states > m -> trip t State_limit
    | _ -> ());
    tick t
  end

let spend_state t = spend_states t 1

let spend_transitions t n =
  if not (inert t) then begin
    t.transitions <- t.transitions + n;
    (match t.limits.max_transitions with
    | Some m when t.transitions > m -> trip t Transition_limit
    | _ -> ());
    tick t
  end

let spend_transition t = spend_transitions t 1

let states_used t = t.states
let transitions_used t = t.transitions
let tripped t = t.tripped

let guarded t f =
  match
    check_time t;
    f ()
  with
  | v -> Ok v
  | exception Exhausted r -> Error r

let reason_to_string = function
  | Timeout -> "timeout"
  | State_limit -> "state-limit"
  | Transition_limit -> "transition-limit"
  | Interrupt -> "interrupt"

let reason_of_string = function
  | "timeout" -> Some Timeout
  | "state-limit" -> Some State_limit
  | "transition-limit" -> Some Transition_limit
  | "interrupt" -> Some Interrupt
  | _ -> None

let pp_reason fmt r = Format.pp_print_string fmt (reason_to_string r)
