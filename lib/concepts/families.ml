open Concepts

let sf = Printf.sprintf

(* N-stage Muller pipeline: stage i is a C-element x_i joining the
   previous stage's request (x_{i-1}, or the environment request r) and
   the inverted next-stage occupancy (x_{i+1}, or the environment ack
   a).  The left environment lowers r once stage 1 latches; the right
   environment mirrors stage N. *)
let pipeline n =
  let x i = sf "x%d" i in
  let stage_sig i = if i = 0 then "r" else if i = n + 1 then "a" else x i in
  let xs = List.init n (fun i -> x (i + 1)) in
  concat
    [
      inputs [ "r"; "a" ];
      outputs xs;
      initialise0 ("r" :: "a" :: xs);
      concat
        (List.init n (fun i ->
             let i = i + 1 in
             let left = stage_sig (i - 1) and right = stage_sig (i + 1) in
             concat
               [
                 [ rise left; fall right ] &--> rise (x i);
                 [ fall left; rise right ] &--> fall (x i);
               ]));
      rise (x 1) --> fall "r";
      fall (x 1) --> rise "r";
      buffer (x n) "a";
    ]

(* N clients, each a four-phase handshake request/grant pair, all
   grants mutually exclusive through one shared token. *)
let arbiter n =
  let r i = sf "r%d" i and g i = sf "g%d" i in
  let idx = List.init n (fun i -> i + 1) in
  concat
    [
      inputs (List.map r idx);
      outputs (List.map g idx);
      concat (List.map (fun i -> handshake (r i) (g i)) idx);
      me_n (List.map g idx);
    ]

(* N-station token ring: one request token circulates through every
   station's rise, then every station's fall (master-read scaled). *)
let ring n =
  let t i = sf "t%d" i in
  let ts = List.init n (fun i -> t (i + 1)) in
  let chain edge =
    concat
      (List.init (n - 1) (fun i -> edge (t (i + 1)) --> edge (t (i + 2))))
  in
  concat
    [
      inputs [ "go" ];
      outputs ts;
      initialise0 ("go" :: ts);
      rise "go" --> rise (t 1);
      chain rise;
      rise (t n) --> fall "go";
      fall "go" --> fall (t 1);
      chain fall;
      fall (t n) --> rise "go";
    ]

(* N-stage FIFO controller (vbe5b scaled): the put request a fills the
   stages left to right; the consumer's acknowledge b drains them in
   the same order before the next item is offered. *)
let fifo n =
  let x i = sf "x%d" i in
  let xs = List.init n (fun i -> x (i + 1)) in
  let chain edge =
    concat
      (List.init (n - 1) (fun i -> edge (x (i + 1)) --> edge (x (i + 2))))
  in
  concat
    [
      inputs [ "a"; "b" ];
      outputs xs;
      initialise0 ("a" :: "b" :: xs);
      rise "a" --> rise (x 1);
      chain rise;
      rise (x n) --> rise "b";
      rise "b" --> fall (x 1);
      chain fall;
      fall (x n) --> fall "a";
      fall "a" --> fall "b";
      fall "b" --> rise "a";
    ]

(* N-deep D-latch sampler chain (dff scaled): the clock c pulses twice
   per data cycle — the first pulse ripples a rise through the q chain,
   the second (instance-suffixed) pulse ripples the fall — so every
   q_i's next-state function keeps the latch shape set + hold*state
   with opposing literals. *)
let latch n =
  let q i = sf "q%d" i in
  let qs = List.init n (fun i -> q (i + 1)) in
  let chain edge =
    concat
      (List.init (n - 1) (fun i -> edge (q (i + 1)) --> edge (q (i + 2))))
  in
  concat
    [
      inputs [ "d"; "c" ];
      outputs qs;
      initialise0 ("d" :: "c" :: qs);
      rise "d" --> rise "c";
      rise "c" --> rise (q 1);
      chain rise;
      rise (q n) --> fall "c";
      fall "c" --> fall "d";
      fall "d" --> inst 2 (rise "c");
      inst 2 (rise "c") --> fall (q 1);
      chain fall;
      fall (q n) --> inst 2 (fall "c");
      inst 2 (fall "c") --> rise "d";
      token (inst 2 (fall "c")) (rise "d");
    ]

type family = {
  fname : string;
  doc : string;
  size_doc : string;
  min_n : int;
  max_n : int;
  default_n : int;
  build : int -> Concepts.t;
}

(* max_n is measured, not a ceiling in the code.  ring, fifo and latch
   go to the 62 signals a state code holds (ring n has n + 1 signals,
   fifo and latch n + 2) and synthesize there in about 0.4 s a style.
   pipeline and arbiter reach every code of their 2^n-state graphs, and
   stop at the largest size `satg gen` synthesizes in about 2 s a style:
   pipeline 12 in 2.1-2.3 s, arbiter 10 in about 1 s (arbiter 11 takes
   about 4 s). *)
let all =
  [
    {
      fname = "pipeline";
      doc = "N-stage Muller handshake pipeline (C-element stages)";
      size_doc = "stages";
      min_n = 1;
      max_n = 12;
      default_n = 3;
      build = pipeline;
    };
    {
      fname = "arbiter";
      doc = "N-client mutual-exclusion arbiter (me over the grants)";
      size_doc = "clients";
      min_n = 2;
      max_n = 10;
      default_n = 4;
      build = arbiter;
    };
    {
      fname = "ring";
      doc = "N-station token ring / sequencer (master-read scaled)";
      size_doc = "stations";
      min_n = 1;
      max_n = 61;
      default_n = 8;
      build = ring;
    };
    {
      fname = "fifo";
      doc = "N-stage FIFO controller (vbe5b scaled)";
      size_doc = "stages";
      min_n = 1;
      max_n = 60;
      default_n = 4;
      build = fifo;
    };
    {
      fname = "latch";
      doc = "N-deep D-latch sampler chain (dff scaled, redundant covers)";
      size_doc = "latches";
      min_n = 1;
      max_n = 60;
      default_n = 2;
      build = latch;
    };
  ]

let names = List.map (fun f -> f.fname) all
let find nm = List.find_opt (fun f -> f.fname = nm) all
let instance_name fname n = sf "%s%d" fname n

let generate fname ~n =
  match find fname with
  | None ->
    Error
      (sf "unknown family %s (known: %s)" fname (String.concat " " names))
  | Some f ->
    if n < f.min_n || n > f.max_n then
      Error
        (sf "family %s: size %d out of range [%d, %d]" fname n f.min_n
           f.max_n)
    else compile ~name:(instance_name fname n) (f.build n)
