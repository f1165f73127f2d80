open Satg_logic
open Satg_guard
open Satg_circuit
open Satg_bdd
open Satg_inject

(* The delta-step transition relation, partitioned: the paper's R_delta
   (§4.2) is never formed as one BDD.  The relation stays one small
   conjunct per gate (its excitation, fanin-local support), and the
   image pushes early quantification to its limit.  Under interleaved
   single-gate firing the frame conjunct ∏_{i≠g}(y_i = z_i) quantifies
   each frame variable out at the very equality that mentions it — an
   identity rename — and the firing gate's own ∃z_g against
   (y_g = ¬z_g) is a one-variable cofactor exchange: the gate-g
   disjunct of the image is [Bdd.flip_var ~var:y_g T excited_g], fused
   so that T ∧ excited_g is never built.  No frame BDD is ever built,
   no relational product is ever run, and no intermediate result
   carries a dead variable. *)
type schedule = int list * (Bdd.t * int list) list

type rel = {
  excited_y : Bdd.t array;
      (* per gate, in gate order: excitation over the y rail *)
  stable_y : Bdd.t;  (* the stable self-loop disjunct's one conjunct *)
}

type t = {
  circuit : Circuit.t;
  k : int;
  man : Bdd.man;
  rank : int array;  (* node id -> position in the variable order *)
  node_of_rank : int array;
  stable : Bdd.t;
  r_input : Bdd.t;  (* R_I over (x, y) *)
  rel : rel;
  reachable : Bdd.t;  (* over x *)
  cssg : Bdd.t;  (* over (x, y) *)
  reset : bool array;
  truncated : Guard.reason option;
}

(* Each node owns three adjacent BDD variables at its rank: present,
   next, auxiliary.  The rank permutation is the variable-ordering
   knob; the triple structure never changes, so the x/y/z renamings
   below are rank-independent. *)
let x_of t i = 3 * t.rank.(i)
let y_of t i = (3 * t.rank.(i)) + 1
let y_to_x v = if v mod 3 = 1 then v - 1 else v

(* Sets over x-vars only: each x-state contributes exactly 2^(2n)
   assignments of the free y/z variables, so the exact integer count
   divides out without float rounding. *)
let count_x_states m ~n set =
  match Bdd.sat_count_int m ~nvars:(3 * n) set with
  | Some cnt -> cnt asr (2 * n)
  | None ->
    let cnt = Bdd.sat_count m ~nvars:(3 * n) set in
    int_of_float ((cnt /. (2.0 ** float_of_int (2 * n))) +. 0.5)

let circuit t = t.circuit
let k t = t.k
let man t = t.man
let reachable t = t.reachable
let truncated t = t.truncated

let default_cluster_cap = 1024

let rel_roots r = r.stable_y :: Array.to_list r.excited_y

(* Every handle a built [t] holds. *)
let roots t = t.stable :: t.r_input :: t.reachable :: t.cssg :: rel_roots t.rel

(* A safe point: no operation is in flight and [roots ()] names every
   handle the caller still needs.  The store is collected once
   [Bdd.collect_due] says it has doubled since the last collection, or
   at every safe point under the [bdd.collect=force] injection. *)
let safe_point m roots =
  if Inject.fires "bdd.collect" "force" || Bdd.collect_due m then
    Bdd.collect m (roots ())

(* --- building blocks ---------------------------------------------------- *)

let func_bdd m c var_of gid =
  let fanin = Circuit.fanins c gid in
  let in_var p = Bdd.var m (var_of fanin.(p)) in
  match Circuit.func c gid with
  | Gatefunc.Buf -> in_var 0
  | Gatefunc.Not -> Bdd.not_ m (in_var 0)
  | Gatefunc.And -> Bdd.and_list m (List.init (Array.length fanin) in_var)
  | Gatefunc.Or -> Bdd.or_list m (List.init (Array.length fanin) in_var)
  | Gatefunc.Nand ->
    Bdd.not_ m (Bdd.and_list m (List.init (Array.length fanin) in_var))
  | Gatefunc.Nor ->
    Bdd.not_ m (Bdd.or_list m (List.init (Array.length fanin) in_var))
  | Gatefunc.Xor ->
    List.fold_left (Bdd.xor_ m) (Bdd.zero m)
      (List.init (Array.length fanin) in_var)
  | Gatefunc.Xnor ->
    Bdd.not_ m
      (List.fold_left (Bdd.xor_ m) (Bdd.zero m)
         (List.init (Array.length fanin) in_var))
  | Gatefunc.Mux -> Bdd.ite m (in_var 0) (in_var 1) (in_var 2)
  | Gatefunc.Celem ->
    let all = Bdd.and_list m (List.init (Array.length fanin) in_var) in
    let any = Bdd.or_list m (List.init (Array.length fanin) in_var) in
    let self = Bdd.var m (var_of gid) in
    Bdd.or_ m all (Bdd.and_ m self any)
  | Gatefunc.Const b -> if b then Bdd.one m else Bdd.zero m
  | Gatefunc.Sop cover ->
    List.fold_left
      (fun acc cube ->
        let term = ref (Bdd.one m) in
        Array.iteri
          (fun p l ->
            match l with
            | Cube.D -> ()
            | Cube.T -> term := Bdd.and_ m !term (in_var p)
            | Cube.F -> term := Bdd.and_ m !term (Bdd.not_ m (in_var p)))
          (Cube.lits cube);
        Bdd.or_ m acc !term)
      (Bdd.zero m) (Cover.cubes cover)

(* --- clustered early-quantification schedules ---------------------------- *)

(* A schedule evaluates [∃ quant. src ∧ c1 ∧ ... ∧ cm] left to right,
   quantifying each variable of [quant] out at the {e last} conjunct
   whose support mentions it — the earliest point where it is dead in
   the remaining product, so no intermediate result carries a variable
   longer than it must.  Variables no conjunct mentions are quantified
   out of [src] up front.  Supports are computed once here, never per
   image. *)
let make_schedule m ~quant parts : schedule =
  let nv = Bdd.nvars m in
  let inq = Array.make nv false in
  List.iter (fun v -> inq.(v) <- true) quant;
  let last = Array.make nv (-1) in
  List.iteri
    (fun i p ->
      List.iter (fun v -> if inq.(v) then last.(v) <- i) (Bdd.support m p))
    parts;
  let unseen = List.filter (fun v -> last.(v) < 0) quant in
  let steps =
    List.mapi (fun i p -> (p, List.filter (fun v -> last.(v) = i) quant)) parts
  in
  (unseen, steps)

let run_schedule m ((unseen, steps) : schedule) src =
  let acc = if unseen = [] then src else Bdd.exists m ~vars:unseen src in
  List.fold_left
    (fun acc (p, kill) ->
      if kill = [] then Bdd.and_ m acc p
      else Bdd.and_exists m ~vars:kill acc p)
    acc steps

(* --- construction -------------------------------------------------------- *)

let build ?k ?node_order ?(reorder = Bdd.Reorder_none)
    ?(cluster_cap = default_cluster_cap) ?(guard = Guard.none) c =
  let k = match k with Some k -> k | None -> Structure.default_k c in
  let reset =
    match Circuit.initial c with
    | Some s when Circuit.is_stable c s -> s
    | Some _ -> invalid_arg "Symbolic.build: reset state not stable"
    | None -> invalid_arg "Symbolic.build: circuit has no reset state"
  in
  let n = Circuit.n_nodes c in
  let rank =
    match node_order with
    | None -> Array.init n Fun.id
    | Some r ->
      if Array.length r <> n then
        invalid_arg "Symbolic.build: node_order length mismatch";
      let seen = Array.make n false in
      Array.iter
        (fun v ->
          if v < 0 || v >= n || seen.(v) then
            invalid_arg "Symbolic.build: node_order is not a permutation";
          seen.(v) <- true)
        r;
      Array.copy r
  in
  let node_of_rank = Array.make n 0 in
  Array.iteri (fun i r -> node_of_rank.(r) <- i) rank;
  (* The guard rides inside the manager: Bdd.mk/apply probe it on every
     cache miss, so a deadline trips mid-apply even when one image
     computation blows up between the loop-boundary checks below. *)
  let m = Bdd.create ~nvars:(3 * n) ~guard () in
  Bdd.set_reorder m reorder;
  let xv i = 3 * rank.(i) and yv i = (3 * rank.(i)) + 1 in
  let zv i = (3 * rank.(i)) + 2 in
  let reset_bdd_of () =
    Bdd.and_list m
      (List.init n (fun i ->
           if reset.(i) then Bdd.var m (xv i) else Bdd.nvar m (xv i)))
  in
  try
  let gates = Circuit.gates c in
  let env = Circuit.inputs c in
  (* Work-proportional budgeting: one allocated BDD node charges one
     transition, so [max_transitions] bounds the symbolic phase by the
     same order of work it bounds the explicit one.  The seed charged
     one transition per whole image step, which let a capped build burn
     minutes of image computation against a budget meant to stop it in
     milliseconds — and then threw the result away as truncated. *)
  let charged = ref (Bdd.node_count m) in
  let charge_alloc () =
    let now = Bdd.node_count m in
    if now > !charged then begin
      let d = now - !charged in
      charged := now;
      Guard.spend_transitions guard d
    end;
    Guard.check_time guard
  in
  (* Excitation over the next-state (y) rail, where the delta relation
     iterates; the x-rail stable set is a rename of its complement
     (each y sits one order position below its free x slot, so the
     rename is order-preserving and linear). *)
  let excited_y =
    Array.map
      (fun gid -> Bdd.xor_ m (func_bdd m c yv gid) (Bdd.var m (yv gid)))
      gates
  in
  let stable_y =
    Array.fold_left
      (fun acc e -> Bdd.and_ m acc (Bdd.not_ m e))
      (Bdd.one m) excited_y
  in
  let stable = Bdd.permute m y_to_x stable_y in
  (* Equality chains over all nodes in rank order (keeps the
     conjunction shallow w.r.t. the chosen order). *)
  let eq_xy =
    Array.init n (fun i -> Bdd.iff m (Bdd.var m (xv i)) (Bdd.var m (yv i)))
  in
  let eq_zy =
    Array.init n (fun i -> Bdd.iff m (Bdd.var m (zv i)) (Bdd.var m (yv i)))
  in
  let gates_eq =
    Array.fold_left (fun acc gid -> Bdd.and_ m acc eq_xy.(gid)) (Bdd.one m) gates
  in
  let env_all_eq =
    Array.fold_left (fun acc e -> Bdd.and_ m acc eq_xy.(e)) (Bdd.one m) env
  in
  let r_input = Bdd.and_list m [ stable; gates_eq; Bdd.not_ m env_all_eq ] in
  let z_vars = List.init n zv in
  let x_vars = List.init n xv in
  let rel = { excited_y; stable_y } in
  (* What the rest of the build reads; a collection at a safe point
     keeps these plus the reachability loop's own live sets. *)
  let kept =
    stable_y :: stable :: r_input :: (Array.to_list eq_zy @ rel_roots rel)
  in
  (* Relation construction is real work too; a budget small enough to
     be tripped by it degrades (below) to the reset-only graph. *)
  charge_alloc ();
  let y_to_z v = if v mod 3 = 1 then v + 1 else if v mod 3 = 2 then v - 1 else v in
  (* The gate firings of one delta step of a set T(x, y) of unstable
     pairs (a stable pair only self-loops).  The partitioned image
     needs no auxiliary rail at all: a firing of gate g toggles
     exactly one variable, so its disjunct is the one-variable flip of
     T ∧ excited_g — each frame variable is "quantified" at the very
     equality conjunct that mentions it, which degenerates to the
     identity rename, and the firing variable's ∃z_g collapses into
     {!Bdd.flip_var}, which flips the conjunction without building it.
     No frame BDD, no relational product. *)
  let fire t =
    let img = ref (Bdd.zero m) in
    Array.iteri
      (fun idx gid ->
        img := Bdd.or_ m !img (Bdd.flip_var m ~var:(yv gid) t excited_y.(idx)))
      gates;
    !img
  in
  let gate_y = List.map yv (Array.to_list gates) in
  (* TCR_k, carried as a settled part (y stable) and an unsettled part.
     Only the unsettled part is imaged: a stable pair self-loops, so the
     settled part only grows.  A source (x with its applied vector, the
     x and env-y rails, which no firing changes) that already holds two
     distinct stable states keeps both in TCR_k, so the non-confluence
     check discards all its pairs whatever else it reaches: its
     unsettled part is dropped, the early verdict the explicit kernel
     takes at a pair's second stable outcome.  Doomed sources are
     found incrementally: the sources of this step's new stable pairs
     that are already in [sources], the running union of the sources
     holding a stable pair.  A doomed source has no unsettled part
     from then on, so the doomed set need not outlive its step, and the
     valid edges are exactly those of the unpruned TCR_k.

     The pruned sequence is a deterministic function of the pair
     (settled, unsettled) — [sources] is the settled part's sources —
     so it is eventually periodic; unstable states bouncing around a
     ring make the period small and the k horizon large (default
     4·gates).  Once a pair repeats, the step-k pair is read off the
     recorded cycle instead of grinding the remaining steps
     (exact-step semantics preserved: unstable states surviving at
     step k are the non-settling witnesses of the confluence check).
     Each step is a safe point; [live] are the caller's sets, [srcs]
     among them.  [seen] is keyed on handle ids, so every recorded
     pair stays rooted, as does [sources]: a reclaimed id reused for a
     new set would alias a dead one and fake a period or a verdict. *)
  let tcr ~live srcs =
    let t0 = Bdd.and_ m srcs r_input in
    let settled0 = Bdd.and_ m t0 stable_y in
    let p0 = (settled0, Bdd.diff m t0 stable_y) in
    let hist = Array.make (k + 1) p0 in
    let seen = Hashtbl.create 64 in
    let rec iterate i ((settled, unsettled) as p) sources =
      if i >= k then Bdd.or_ m settled unsettled
      else
        match Hashtbl.find_opt seen p with
        | Some j ->
          (* p_i = p_j with j < i: period i - j *)
          let settled, unsettled = hist.(j + ((k - j) mod (i - j))) in
          Bdd.or_ m settled unsettled
        | None ->
          Hashtbl.add seen p i;
          hist.(i) <- p;
          charge_alloc ();
          safe_point m (fun () ->
              Array.fold_left (fun acc (s, u) -> s :: u :: acc)
                (sources :: live @ kept) hist);
          let img = fire unsettled in
          let fresh = Bdd.diff m (Bdd.and_ m img stable_y) settled in
          let fresh_src = Bdd.exists m ~vars:gate_y fresh in
          let doomed = Bdd.and_ m fresh_src sources in
          let unsettled' = Bdd.diff m (Bdd.diff m img stable_y) doomed in
          iterate (i + 1)
            (Bdd.or_ m settled fresh, unsettled')
            (Bdd.or_ m sources fresh_src)
    in
    iterate 0 p0 (Bdd.exists m ~vars:gate_y settled0)
  in
  let reset_bdd = reset_bdd_of () in
  let env_ranked =
    List.sort (fun a b -> Stdlib.compare rank.(a) rank.(b)) (Array.to_list env)
  in
  (* The valid edges of one ring's TCR_k(x, y): the pairs with y stable
     that the non-confluence check ∃z. TCR(x,z) ∧ X_I(z)=X_I(y) ∧ z≠y
     does not prune.  A source's TCR_k depends on that source alone, so
     checking a ring on its own TCR_k is exact.
     The check runs as a clustered early-quantification schedule: the
     input equalities are chunked along the rank order under
     [cluster_cap] nodes per cluster, the disequality conjunct goes
     first (it is the last mention of every gate's z, so those die
     immediately), and each input's z dies at its own cluster.  The
     monolithic conjunct X_I(z)=X_I(y) ∧ z≠y is never built.  The
     conjuncts are rebuilt in every ring rather than kept as roots: a
     root would pin its nodes through every collection and sifting
     pass, and after sifting [all_eq_yz] can be large (docs/PERF.md,
     "One CSSG node set"). *)
  let valid_edges t =
    let cap = max 16 cluster_cap in
    let open_chunk, closed =
      List.fold_left
        (fun (acc, closed) e ->
          let eq = eq_zy.(e) in
          match acc with
          | None -> (Some eq, closed)
          | Some b ->
            let b' = Bdd.and_ m b eq in
            if Bdd.size m b' > cap then (Some eq, b :: closed)
            else (Some b', closed))
        (None, []) env_ranked
    in
    let env_eq_chunks =
      List.rev (match open_chunk with None -> closed | Some b -> b :: closed)
    in
    let all_eq_yz = Array.fold_left (Bdd.and_ m) (Bdd.one m) eq_zy in
    let sched =
      make_schedule m ~quant:z_vars (Bdd.not_ m all_eq_yz :: env_eq_chunks)
    in
    let conflict = run_schedule m sched (Bdd.permute m y_to_z t) in
    Bdd.and_list m [ t; stable_y; Bdd.not_ m conflict ]
  in
  (* Frontier-only reachability over valid edges: each ring images just
     the states first reached by the previous ring's valid edges, keeps
     its own valid edges, and takes their new targets as the next
     frontier.  The CSSG is the union of the rings' edges, and the
     reachable set is exactly the subgraph reachable from reset over
     valid edges — the graph the explicit builder returns.  A stable
     state that only a race or an unsettled interleaving reaches never
     enters it.

     Fail-soft: a tripped guard keeps the reachable set and the edges
     of the completed rings; the states of the ring in progress are
     kept without edges.  That pair is a sound under-approximation of
     the full graph — every state and edge in it is genuine. *)
  let truncated = ref None in
  let rec reach_loop reach front cssg =
    match
      try
        let t = tcr ~live:[ reach; front; cssg ] front in
        let edges = valid_edges t in
        let cssg' = Bdd.or_ m cssg edges in
        let targets = Bdd.permute m y_to_x (Bdd.exists m ~vars:x_vars edges) in
        let front' = Bdd.diff m targets reach in
        let reach' = Bdd.or_ m reach front' in
        let n_new = count_x_states m ~n front' in
        if n_new > 0 then Guard.spend_states guard n_new;
        Guard.check_time guard;
        `Step (reach', front', cssg')
      with Guard.Exhausted r ->
        truncated := Some r;
        (* The guard stays tripped; detach it so enumerating the partial
           result is not re-tripped by the very probes that stopped the
           loop.  Also freeze the variable order: an unguarded sifting
           pass over whatever the store grew to before the trip could
           dwarf the budget that just expired. *)
        Bdd.set_guard m Guard.none;
        Bdd.disable_reorder m;
        `Stop
    with
    | `Stop -> (reach, cssg)
    | `Step (reach', front', cssg') ->
      if Bdd.is_zero front' then (reach', cssg')
      else begin
        safe_point m (fun () -> reach' :: front' :: cssg' :: kept);
        reach_loop reach' front' cssg'
      end
  in
  let reachable, cssg = reach_loop reset_bdd reset_bdd (Bdd.zero m) in
  {
    circuit = c;
    k;
    man = m;
    rank;
    node_of_rank;
    stable;
    r_input;
    rel;
    reachable;
    cssg;
    reset;
    truncated = !truncated;
  }
  with Guard.Exhausted r ->
    (* The budget died before the relations existed (the guard inside
       the manager can trip while they are built).
       Degrade to the smallest sound result: the reset state with no
       edges — every state and edge it contains is genuine. *)
    Bdd.set_guard m Guard.none;
    Bdd.disable_reorder m;
    let reset_bdd = reset_bdd_of () in
    {
      circuit = c;
      k;
      man = m;
      rank;
      node_of_rank;
      stable = reset_bdd;
      r_input = Bdd.zero m;
      rel = { excited_y = [||]; stable_y = Bdd.zero m };
      reachable = reset_bdd;
      cssg = Bdd.zero m;
      reset;
      truncated = Some r;
    }

(* --- queries ------------------------------------------------------------- *)

let live_nodes t =
  List.fold_left
    (fun acc root -> acc + Bdd.size t.man root)
    0
    (t.cssg :: t.reachable :: t.r_input :: rel_roots t.rel)

let n_reachable t = count_x_states t.man ~n:(Circuit.n_nodes t.circuit) t.reachable

let sift t = Bdd.sift ~roots:(roots t) t.man

(* --- frozen builds -------------------------------------------------------- *)

type frozen = {
  f_circuit : Circuit.t;
  f_k : int;
  f_rank : int array;
  f_node_of_rank : int array;
  f_reset : bool array;
  f_truncated : Guard.reason option;
  f_roots : Bdd.frozen;  (* [roots t], in that order *)
}

let freeze t =
  {
    f_circuit = t.circuit;
    f_k = t.k;
    f_rank = t.rank;
    f_node_of_rank = t.node_of_rank;
    f_reset = t.reset;
    f_truncated = t.truncated;
    f_roots = Bdd.freeze t.man (roots t);
  }

let thaw f =
  let m = Bdd.create ~nvars:(3 * Circuit.n_nodes f.f_circuit) () in
  match Bdd.thaw m f.f_roots with
  | stable :: r_input :: reachable :: cssg :: stable_y :: excited_y ->
    {
      circuit = f.f_circuit;
      k = f.f_k;
      man = m;
      rank = f.f_rank;
      node_of_rank = f.f_node_of_rank;
      stable;
      r_input;
      rel = { excited_y = Array.of_list excited_y; stable_y };
      reachable;
      cssg;
      reset = f.f_reset;
      truncated = f.f_truncated;
    }
  | _ -> invalid_arg "Symbolic.thaw: not a frozen build"

let bdd_stats t = Bdd.stats t.man

let with_guard t g f =
  let old = Bdd.guard t.man in
  Bdd.set_guard t.man g;
  Fun.protect ~finally:(fun () -> Bdd.set_guard t.man old) f

let state_to_bdd t s =
  let m = t.man in
  Bdd.and_list m
    (List.init (Array.length s) (fun i ->
         if s.(i) then Bdd.var m (x_of t i) else Bdd.nvar m (x_of t i)))

let bool_state_of_assign t assign =
  let n = Circuit.n_nodes t.circuit in
  let s = Array.make n false in
  List.iter
    (fun (v, b) -> if v mod 3 = 0 then s.(t.node_of_rank.(v / 3)) <- b)
    assign;
  s

(* Enumerate the concrete states of a set over x-vars. *)
let enumerate_states t set =
  let n = Circuit.n_nodes t.circuit in
  let rec expand assign free =
    match free with
    | [] -> [ bool_state_of_assign t assign ]
    | v :: rest ->
      expand ((v, false) :: assign) rest @ expand ((v, true) :: assign) rest
  in
  Bdd.fold_sat t.man set ~init:[] ~f:(fun acc cube ->
      let bound = List.map fst cube in
      let free =
        List.filter
          (fun v -> not (List.mem v bound))
          (List.init n (fun i -> x_of t i))
      in
      expand cube free @ acc)
  |> List.sort_uniq Stdlib.compare

(* One forward CSSG image: successors (over x) of a set of states
   (over x). *)
let cssg_image t src_bdd =
  let x_vars = List.init (Circuit.n_nodes t.circuit) (x_of t) in
  let img = Bdd.and_exists t.man ~vars:x_vars src_bdd t.cssg in
  Bdd.permute t.man y_to_x img

let justify t ~target =
  let m = t.man in
  safe_point m (fun () -> target :: roots t);
  let init = state_to_bdd t t.reset in
  if not (Bdd.is_zero (Bdd.and_ m init target)) then Some ([], t.reset)
  else begin
    let rec forward rings seen front =
      let next = Bdd.diff m (cssg_image t front) seen in
      if Bdd.is_zero next then None
      else if not (Bdd.is_zero (Bdd.and_ m next target)) then
        Some (List.rev (front :: rings), Bdd.and_ m next target)
      else forward (front :: rings) (Bdd.or_ m seen next) next
    in
    match forward [] init init with
    | None -> None
    | Some (rings, hit) ->
      let n = Circuit.n_nodes t.circuit in
      let concrete set = bool_state_of_assign t (Bdd.any_sat m set) in
      let goal = concrete hit in
      let rec backward rings target_state acc =
        match rings with
        | [] -> acc
        | ring :: earlier ->
          let tgt = state_to_bdd t target_state in
          let y_tgt =
            Bdd.permute m (fun v -> if v mod 3 = 0 then v + 1 else v) tgt
          in
          let y_vars = List.init n (fun i -> y_of t i) in
          let pre =
            Bdd.and_ m ring
              (Bdd.exists m ~vars:y_vars (Bdd.and_ m t.cssg y_tgt))
          in
          assert (not (Bdd.is_zero pre));
          let src = concrete pre in
          let vector =
            Array.map (fun e -> target_state.(e)) (Circuit.inputs t.circuit)
          in
          backward earlier src (vector :: acc)
      in
      let vectors = backward (List.rev rings) goal [] in
      Some (vectors, goal)
  end

let to_cssg t =
  let m = t.man in
  let states = Array.of_list (enumerate_states t t.reachable) in
  let index = Hashtbl.create 64 in
  Array.iteri
    (fun i s -> Hashtbl.replace index (Circuit.state_to_string t.circuit s) i)
    states;
  let id_of s = Hashtbl.find index (Circuit.state_to_string t.circuit s) in
  let succ =
    Array.map
      (fun s ->
        let src = state_to_bdd t s in
        let succs_set = cssg_image t src in
        enumerate_states t (Bdd.and_ m succs_set t.reachable)
        |> List.map (fun s' ->
               {
                 Cssg.vector =
                   Array.map (fun e -> s'.(e)) (Circuit.inputs t.circuit);
                 target = id_of s';
               }))
      states
  in
  Cssg.make ?truncated:t.truncated ~circuit:t.circuit ~k:t.k ~states ~succ
    ~initial:[ id_of t.reset ] ()
