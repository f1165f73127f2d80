(** Signal Transition Graphs: Petri nets whose transitions are signal
    edges ([a+] / [a-]), the standard specification formalism for
    asynchronous controllers (and the input language of Petrify, which
    synthesized the paper's benchmarks).

    The text format is a dialect of the astg [.g] format:

    {v
    .model xyz
    .inputs a b
    .outputs c
    .graph
    a+ c+          # arc(s): a+ -> implicit place -> c+
    c+ b+ a-       # one implicit place per target
    p0 a+          # explicit place p0 -> a+
    b+ p0
    .marking { <a+,c+> p0 }
    .init a=0 b=0 c=0
    .end
    v}

    Transition labels may carry instance suffixes ([a+/2]).  Initial
    signal values are explicit ([.init]); every signal must be
    assigned. *)

type dir =
  | Rise
  | Fall

type transition = {
  signal : int;  (** index into {!signals} *)
  dir : dir;
  label : string;  (** e.g. "a+/2" *)
}

type place = {
  pname : string;
  pre : int list;  (** transitions producing tokens here *)
  post : int list;  (** transitions consuming tokens *)
}

type t = {
  name : string;
  signals : string array;  (** inputs first, then outputs *)
  n_inputs : int;
  transitions : transition array;
  places : place array;
  marking : int array;  (** initial tokens per place *)
  init_values : bool array;  (** per signal *)
}

val input_signals : t -> string list
val output_signals : t -> string list
val is_input : t -> int -> bool
val signal_index : t -> string -> int option

val parse_string : string -> (t, string) result
val to_string : t -> string

(** {1 Token-game semantics} *)

val enabled : t -> int array -> int list
(** Transitions enabled in a marking. *)

val fire : t -> int array -> int -> int array
(** Fire a transition (assumed enabled); returns the new marking. *)

(** {1 Reachability / state graph} *)

type sg_state = {
  mark : int array;
  values : bool array;  (** signal values in this state *)
}

type sg = {
  stg : t;
  states : sg_state array;
  excited : bool array array;
      (** [excited.(s).(sig)]: some transition of [sig] enabled in
          state [s] *)
  initial_state : int;
}

val explore : ?bound:int -> t -> (sg, string) result
(** Full reachability with consistency checking (a [+] transition may
    only fire when the signal is 0, and vice versa) and boundedness
    checking ([bound] tokens per place, default 2).  Errors mention the
    offending transition. *)

val check_csc : sg -> (unit, string) result
(** Complete State Coding: any two reachable states with identical
    codes must agree on the excitation of every {e output} signal. *)

val next_state_tables : sg -> (int list * int list) array
(** [(on, off)] per signal [s]: the reached codes (signal 0 = MSB) in
    which the next-state function of [s] is 1, and those in which it
    is 0, each in first-reached order.  Every unreached code is a
    don't-care and is not listed.  Meaningful only if {!check_csc}
    passed.
    @raise Invalid_argument beyond {!Satg_logic.Qm.max_vars} signals. *)

val to_dot : t -> string
(** Graphviz rendering of the Petri net: transitions as boxes (inputs
    grey), places as circles (implicit single-arc places elided into
    direct edges), initial tokens as bullet labels. *)

val check_output_persistency : sg -> (unit, string) result
(** Speed-independence prerequisite: no enabled {e output} transition
    may be disabled by firing another transition (of a different
    signal).  A violating STG specifies behaviour no delay-insensitive
    gate implementation can exhibit deterministically. *)
