(** Structural analysis of netlists: strongly connected components,
    feedback edges and combinational levels.  Used for circuit
    statistics, for estimating the test-cycle budget, and by the
    virtual flip-flop baseline (feedback cutting). *)

type edge = {
  gate : int;  (** reading gate node id *)
  pin : int;  (** fanin position within that gate *)
  src : int;  (** node being read *)
}

val sccs : Circuit.t -> int list list
(** Strongly connected components of the gate graph (edges go from a
    gate to the gates reading it), in reverse topological order.
    Singleton components without self-loops are included. *)

val cyclic_gates : Circuit.t -> int list
(** Gates involved in some cycle (including self-loops). *)

val feedback_edges : Circuit.t -> edge list
(** A set of fanin pins whose removal makes the gate graph acyclic
    (DFS back-edge heuristic; not guaranteed minimum).  Self-loops are
    always included. *)

val levels : Circuit.t -> break:edge list -> int array
(** Topological level of every node once the given edges are ignored;
    environment nodes are level 0.
    @raise Invalid_argument if cycles remain. *)

val longest_path : Circuit.t -> int
(** Length (in gates) of the longest acyclic path once
    {!feedback_edges} are removed; a crude settling-length estimate
    used for the default test-cycle budget [k]. *)

val reaches_output : Circuit.t -> int -> bool
(** [reaches_output c i]: some primary output lies in the transitive
    fanout of node [i], [i] itself included.  When none does, no value
    [i] takes can ever show at an output. *)

val default_k : Circuit.t -> int
(** Default test-cycle budget: [4 * n_gates], at least 8 (paper §4.1
    estimates [k] from the longest transition sequence; four firings
    per gate bounds the controllers considered here). *)
