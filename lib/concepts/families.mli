(** Parameterized benchmark families, assembled from {!Concepts}
    combinators and compiled through the stock STG flows.

    Each family is a generator [n -> spec] with a size knob, mirroring
    the paper's own benchmark construction (Petrify-synthesized
    speed-independent circuits, Table 1; SIS-decomposed bounded-delay
    netlists, Table 2) but scalable:

    - [pipeline]: N-stage Muller handshake pipeline (collapsed ebergen
      cells; C-element next-state functions, concurrent waves).
    - [arbiter]: N clients handshaking for one shared grant under
      mutual exclusion ([me] over the grants; input-concurrent, the
      grant functions depend on every other grant).
    - [ring]: an N-station token ring / sequencer (master-read scaled;
      one token, depth grows linearly with N).
    - [fifo]: an N-stage FIFO controller (vbe5b scaled; request wave
      fills the stages, the acknowledge wave drains them).
    - [latch]: an N-deep D-latch sampler chain (dff scaled,
      instance-suffixed clock transitions); its next-state covers
      contain opposing literals, so the hazard-free synthesis backend
      inserts redundant cubes, reproducing the Table 2 pathology.

    Size caps are measured: [ring], [fifo] and [latch] go up to the 62
    signals a state code holds; [pipeline] and [arbiter], whose state
    graphs grow as 2^n, stop at the largest size synthesized in about
    2 s a style. *)

open Satg_stg

type family = {
  fname : string;
  doc : string;
  size_doc : string;  (** what the size knob [n] counts *)
  min_n : int;
  max_n : int;
  default_n : int;
  build : int -> Concepts.t;
      (** the raw concept composition (unvalidated size) *)
}

val all : family list
val names : string list
val find : string -> family option

val instance_name : string -> int -> string
(** ["pipeline3"] etc. — the [.model] name of an instance. *)

val generate : string -> n:int -> (Stg.t, string) result
(** Validate the size against the family's bounds and compile.
    [Error] on unknown family or out-of-range [n]. *)
