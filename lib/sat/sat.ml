open Satg_guard

type lit = int

let pos v = 2 * v
let neg_of v = (2 * v) + 1
let neg l = l lxor 1
let var_of l = l lsr 1
let sign_of l = l land 1 = 0

(* Variable assignment: 0 = unassigned, 1 = true, 2 = false. *)
let v_undef = 0
let v_true = 1
let v_false = 2

(* Arena headers pack the clause length with two flag bits: learned
   clauses are tagged so cross-query reuse can be counted, dead clauses
   (deleted by {!retire}) are tagged so compaction can skip them. *)
let len_mask = (1 lsl 30) - 1
let learned_flag = 1 lsl 30
let dead_flag = 1 lsl 31

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  learned : int;
  learned_lits : int;
  restarts : int;
  n_vars : int;
  n_clauses : int;
  instances : int;
  solves : int;
  reused_shared : int;
  reused_learned : int;
  deleted_clauses : int;
}

let zero_stats =
  {
    decisions = 0;
    propagations = 0;
    conflicts = 0;
    learned = 0;
    learned_lits = 0;
    restarts = 0;
    n_vars = 0;
    n_clauses = 0;
    instances = 0;
    solves = 0;
    reused_shared = 0;
    reused_learned = 0;
    deleted_clauses = 0;
  }

let add_stats a b =
  {
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    conflicts = a.conflicts + b.conflicts;
    learned = a.learned + b.learned;
    learned_lits = a.learned_lits + b.learned_lits;
    restarts = a.restarts + b.restarts;
    n_vars = max a.n_vars b.n_vars;
    n_clauses = max a.n_clauses b.n_clauses;
    instances = a.instances + b.instances;
    solves = a.solves + b.solves;
    reused_shared = a.reused_shared + b.reused_shared;
    reused_learned = a.reused_learned + b.reused_learned;
    deleted_clauses = a.deleted_clauses + b.deleted_clauses;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "sat: %d instances, %d solves; %d vars, %d clauses; %d decisions, %d \
     propagations, %d conflicts, %d learned (%.1f lits avg), %d reused \
     shared, %d reused learned, %d deleted, %d restarts"
    s.instances s.solves s.n_vars s.n_clauses s.decisions s.propagations
    s.conflicts s.learned
    (if s.learned = 0 then 0.0
     else float_of_int s.learned_lits /. float_of_int s.learned)
    s.reused_shared s.reused_learned s.deleted_clauses s.restarts

type t = {
  mutable guard : Guard.t;
  (* Clause arena: [header; lit0; lit1; ...] blocks, refs are header
     indices; the header packs the length with the learned/dead flags.
     The two watched literals are always at ref+1 / ref+2. *)
  mutable arena : int array;
  mutable arena_top : int;
  (* Per-variable state, indexed by var. *)
  mutable nvars : int;
  mutable assign : int array;
  mutable level : int array;
  mutable reason : int array;  (* clause ref, or -1 *)
  mutable activity : float array;
  mutable saved_phase : bool array;
  mutable seen : bool array;  (* conflict-analysis scratch *)
  mutable decidable : bool array;
  mutable act_of_var : int array;  (* var -> activation id, or -1 *)
  (* Watch lists, indexed by literal. *)
  mutable watch : int array array;
  mutable watch_n : int array;
  (* Assignment trail. *)
  mutable trail : int array;
  mutable trail_n : int;
  mutable qhead : int;
  mutable lim : int array;  (* trail boundary of each decision level *)
  mutable lim_n : int;  (* current decision level *)
  (* Branching heap: binary max-heap over activity. *)
  mutable heap : int array;  (* heap slots -> var *)
  mutable heap_pos : int array;  (* var -> heap slot, or -1 *)
  mutable heap_n : int;
  mutable var_inc : float;
  (* Activation literals: per-activation registered clause refs, so one
     [retire] call deletes a whole fault's clause group. *)
  mutable act_lits : int array;  (* activation id -> positive literal *)
  mutable act_clauses : int list array;
  mutable act_retired : bool array;
  mutable n_acts : int;
  mutable dead_space : int;  (* arena ints held by dead clauses *)
  (* Status / counters. *)
  mutable ok : bool;
  mutable decisions : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable learned : int;
  mutable learned_lits : int;
  mutable restarts : int;
  mutable n_clauses : int;
  mutable solves : int;
  mutable solve_top : int;  (* arena_top when the current solve began *)
  mutable epoch_top : int;  (* arena_top when the latest act was created *)
  mutable reused_shared : int;
  mutable reused_learned : int;
  mutable deleted_clauses : int;
}

let create () =
  {
    guard = Guard.none;
    arena = Array.make 1024 0;
    arena_top = 0;
    nvars = 0;
    assign = [||];
    level = [||];
    reason = [||];
    activity = [||];
    saved_phase = [||];
    seen = [||];
    decidable = [||];
    act_of_var = [||];
    watch = [||];
    watch_n = [||];
    trail = [||];
    trail_n = 0;
    qhead = 0;
    lim = Array.make 16 0;
    lim_n = 0;
    heap = [||];
    heap_pos = [||];
    heap_n = 0;
    var_inc = 1.0;
    act_lits = Array.make 8 0;
    act_clauses = Array.make 8 [];
    act_retired = Array.make 8 false;
    n_acts = 0;
    dead_space = 0;
    ok = true;
    decisions = 0;
    propagations = 0;
    conflicts = 0;
    learned = 0;
    learned_lits = 0;
    restarts = 0;
    n_clauses = 0;
    solves = 0;
    solve_top = 0;
    epoch_top = 0;
    reused_shared = 0;
    reused_learned = 0;
    deleted_clauses = 0;
  }

let set_guard s g = s.guard <- g

let stats s =
  {
    decisions = s.decisions;
    propagations = s.propagations;
    conflicts = s.conflicts;
    learned = s.learned;
    learned_lits = s.learned_lits;
    restarts = s.restarts;
    n_vars = s.nvars;
    n_clauses = s.n_clauses;
    instances = 1;
    solves = s.solves;
    reused_shared = s.reused_shared;
    reused_learned = s.reused_learned;
    deleted_clauses = s.deleted_clauses;
  }

(* --- growable flat storage ------------------------------------------------- *)

let grow_int a n def =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max 16 (2 * n)) def in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_bool a n def =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max 16 (2 * n)) def in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_float a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max 16 (2 * n)) 0.0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_list a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max 16 (2 * n)) [] in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* --- branching heap --------------------------------------------------------- *)

let heap_swap s i j =
  let vi = s.heap.(i) and vj = s.heap.(j) in
  s.heap.(i) <- vj;
  s.heap.(j) <- vi;
  s.heap_pos.(vi) <- j;
  s.heap_pos.(vj) <- i

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(p)) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_n && s.activity.(s.heap.(l)) > s.activity.(s.heap.(!best)) then
    best := l;
  if r < s.heap_n && s.activity.(s.heap.(r)) > s.activity.(s.heap.(!best)) then
    best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    let i = s.heap_n in
    s.heap_n <- i + 1;
    s.heap.(i) <- v;
    s.heap_pos.(v) <- i;
    heap_up s i
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_n <- s.heap_n - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_n > 0 then begin
    let w = s.heap.(s.heap_n) in
    s.heap.(0) <- w;
    s.heap_pos.(w) <- 0;
    heap_down s 0
  end;
  v

(* --- variables -------------------------------------------------------------- *)

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assign <- grow_int s.assign s.nvars v_undef;
  s.level <- grow_int s.level s.nvars 0;
  s.reason <- grow_int s.reason s.nvars (-1);
  s.activity <- grow_float s.activity s.nvars;
  s.saved_phase <- grow_bool s.saved_phase s.nvars false;
  s.seen <- grow_bool s.seen s.nvars false;
  s.decidable <- grow_bool s.decidable s.nvars true;
  s.act_of_var <- grow_int s.act_of_var s.nvars (-1);
  s.trail <- grow_int s.trail s.nvars 0;
  s.heap <- grow_int s.heap s.nvars 0;
  s.heap_pos <- grow_int s.heap_pos s.nvars (-1);
  (if Array.length s.watch < 2 * s.nvars then begin
     let w = Array.make (max 32 (4 * s.nvars)) [||] in
     let wn = Array.make (max 32 (4 * s.nvars)) 0 in
     Array.blit s.watch 0 w 0 (Array.length s.watch);
     Array.blit s.watch_n 0 wn 0 (Array.length s.watch_n);
     s.watch <- w;
     s.watch_n <- wn
   end);
  s.assign.(v) <- v_undef;
  s.reason.(v) <- -1;
  s.heap_pos.(v) <- -1;
  s.saved_phase.(v) <- false;
  s.seen.(v) <- false;
  s.decidable.(v) <- true;
  s.act_of_var.(v) <- -1;
  s.activity.(v) <- 0.0;
  heap_insert s v;
  v

let nvars s = s.nvars

let set_decidable s v b =
  if v < 0 || v >= s.nvars then
    invalid_arg "Sat.set_decidable: undeclared variable";
  s.decidable.(v) <- b

let check_var s l =
  let v = var_of l in
  if v < 0 || v >= s.nvars then invalid_arg "Sat: undeclared variable"

(* Literal value: v_undef / v_true / v_false. *)
let val_lit s l =
  let a = s.assign.(l lsr 1) in
  if a = v_undef then v_undef
  else if (a = v_true) = (l land 1 = 0) then v_true
  else v_false

(* --- VSIDS ------------------------------------------------------------------- *)

let var_decay = 1.0 /. 0.95

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for u = 0 to s.nvars - 1 do
      s.activity.(u) <- s.activity.(u) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* --- watches / arena ---------------------------------------------------------- *)

let watch_add s l cr =
  let n = s.watch_n.(l) in
  let a = s.watch.(l) in
  let a =
    if n >= Array.length a then begin
      let b = Array.make (max 4 (2 * n)) 0 in
      Array.blit a 0 b 0 n;
      s.watch.(l) <- b;
      b
    end
    else a
  in
  a.(n) <- cr;
  s.watch_n.(l) <- n + 1

(* Stable removal, so the propagation visit order of the surviving
   clauses — and with it the whole search trace — stays deterministic. *)
let watch_remove s l cr =
  let a = s.watch.(l) in
  let n = s.watch_n.(l) in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if a.(i) <> cr then begin
      a.(!j) <- a.(i);
      incr j
    end
  done;
  s.watch_n.(l) <- !j

let arena_alloc s len ~learned =
  let need = s.arena_top + len + 1 in
  if need > Array.length s.arena then begin
    let b = Array.make (max need (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 b 0 s.arena_top;
    s.arena <- b
  end;
  let cr = s.arena_top in
  s.arena.(cr) <- (if learned then len lor learned_flag else len);
  s.arena_top <- need;
  cr

let clause_len s cr = s.arena.(cr) land len_mask
let clause_learned s cr = s.arena.(cr) land learned_flag <> 0
let clause_dead s cr = s.arena.(cr) land dead_flag <> 0

let attach s cr =
  watch_add s s.arena.(cr + 1) cr;
  watch_add s s.arena.(cr + 2) cr

(* A clause allocated before the latest activation was created (the
   shared good-machine unrolling, or anything learned while an earlier
   fault was live) just steered this query: the cross-fault payoff of
   the long-lived incremental instance.  Learned-clause reuse across
   solves is tallied separately. *)
let note_clause_used s cr =
  if cr < s.epoch_top then s.reused_shared <- s.reused_shared + 1;
  if clause_learned s cr && cr < s.solve_top then
    s.reused_learned <- s.reused_learned + 1

(* --- trail --------------------------------------------------------------------- *)

let enqueue s l reason =
  let v = l lsr 1 in
  s.assign.(v) <- (if l land 1 = 0 then v_true else v_false);
  s.level.(v) <- s.lim_n;
  s.reason.(v) <- reason;
  s.trail.(s.trail_n) <- l;
  s.trail_n <- s.trail_n + 1

let new_decision_level s =
  if s.lim_n >= Array.length s.lim then begin
    let b = Array.make (2 * Array.length s.lim) 0 in
    Array.blit s.lim 0 b 0 s.lim_n;
    s.lim <- b
  end;
  s.lim.(s.lim_n) <- s.trail_n;
  s.lim_n <- s.lim_n + 1

let cancel_until s lvl =
  if s.lim_n > lvl then begin
    let bound = s.lim.(lvl) in
    for c = s.trail_n - 1 downto bound do
      let l = s.trail.(c) in
      let v = l lsr 1 in
      s.saved_phase.(v) <- l land 1 = 0;
      s.assign.(v) <- v_undef;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_n <- bound;
    s.qhead <- bound;
    s.lim_n <- lvl
  end

(* --- unit propagation ----------------------------------------------------------- *)

(* Returns the conflicting clause ref, or -1.  The guard probe sits at
   the top of each propagated literal, before its watch list is
   touched, so an abort leaves the two-watched invariant intact. *)
let propagate s =
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < s.trail_n do
    Guard.tick s.guard;
    s.propagations <- s.propagations + 1;
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    (* fp just became false: every clause watching it needs a look *)
    let fp = p lxor 1 in
    let ws = s.watch.(fp) in
    let n = s.watch_n.(fp) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cr = ws.(!i) in
      incr i;
      if !confl >= 0 then begin
        (* conflict already found: keep the remaining watches as-is *)
        ws.(!j) <- cr;
        incr j
      end
      else begin
        (* ensure the falsified literal sits at slot 2 *)
        if s.arena.(cr + 1) = fp then begin
          s.arena.(cr + 1) <- s.arena.(cr + 2);
          s.arena.(cr + 2) <- fp
        end;
        let first = s.arena.(cr + 1) in
        if val_lit s first = v_true then begin
          ws.(!j) <- cr;
          incr j
        end
        else begin
          let len = clause_len s cr in
          let k = ref 3 in
          let moved = ref false in
          while (not !moved) && !k <= len do
            let l = s.arena.(cr + !k) in
            if val_lit s l <> v_false then begin
              s.arena.(cr + 2) <- l;
              s.arena.(cr + !k) <- fp;
              watch_add s l cr;
              moved := true
            end;
            incr k
          done;
          if not !moved then begin
            (* unit or conflicting under the first literal *)
            ws.(!j) <- cr;
            incr j;
            note_clause_used s cr;
            if val_lit s first = v_false then confl := cr
            else enqueue s first cr
          end
        end
      end
    done;
    s.watch_n.(fp) <- !j
  done;
  !confl

(* --- conflict analysis ------------------------------------------------------------ *)

(* First-UIP resolution (MiniSat's analyze).  Fills [learnt] with the
   asserting literal first and returns the backtrack level.  Relies on
   the invariant that an active reason clause holds its propagated
   literal at slot 1.  The [seen] scratch flags are cleared on every
   exit, guard aborts included. *)
let analyze s confl0 learnt =
  let to_clear = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun v -> s.seen.(v) <- false) !to_clear)
    (fun () ->
      let tail = ref [] in
      let counter = ref 0 in
      let p = ref (-1) in
      let confl = ref confl0 in
      let index = ref (s.trail_n - 1) in
      let uip = ref (-1) in
      while !uip < 0 do
        Guard.tick s.guard;
        let cr = !confl in
        let len = clause_len s cr in
        (* slot 1 of a reason clause is the resolved literal: skip it *)
        let start = if !p < 0 then 1 else 2 in
        for k = start to len do
          let q = s.arena.(cr + k) in
          let v = q lsr 1 in
          if (not s.seen.(v)) && s.level.(v) > 0 then begin
            s.seen.(v) <- true;
            to_clear := v :: !to_clear;
            bump_var s v;
            if s.level.(v) >= s.lim_n then incr counter
            else tail := q :: !tail
          end
        done;
        while not s.seen.(s.trail.(!index) lsr 1) do
          decr index
        done;
        let pl = s.trail.(!index) in
        decr index;
        s.seen.(pl lsr 1) <- false;
        decr counter;
        if !counter = 0 then uip := pl
        else begin
          p := pl;
          confl := s.reason.(pl lsr 1)
        end
      done;
      learnt := (!uip lxor 1) :: !tail;
      List.fold_left (fun acc q -> max acc (s.level.(q lsr 1))) 0 !tail)

(* --- activation literals ----------------------------------------------------------- *)

type act = int

let new_act s =
  let v = new_var s in
  (* clauses below this point predate the activation's owner: their use
     from now on is cross-fault reuse *)
  s.epoch_top <- s.arena_top;
  let i = s.n_acts in
  s.act_lits <- grow_int s.act_lits (i + 1) 0;
  s.act_clauses <- grow_list s.act_clauses (i + 1);
  s.act_retired <- grow_bool s.act_retired (i + 1) false;
  s.act_lits.(i) <- pos v;
  s.act_clauses.(i) <- [];
  s.act_retired.(i) <- false;
  s.act_of_var.(v) <- i;
  s.n_acts <- i + 1;
  i

let act_lit s a =
  if a < 0 || a >= s.n_acts then invalid_arg "Sat.act_lit: unknown activation";
  s.act_lits.(a)

let register_act_clause s a cr =
  if not s.act_retired.(a) then s.act_clauses.(a) <- cr :: s.act_clauses.(a)

(* --- clause addition --------------------------------------------------------------- *)

let add_clause ?act s lits =
  List.iter (check_var s) lits;
  let lits =
    match act with
    | None -> lits
    | Some a ->
      if a < 0 || a >= s.n_acts then
        invalid_arg "Sat.add_clause: unknown activation"
      else if s.act_retired.(a) then
        invalid_arg "Sat.add_clause: retired activation"
      else neg s.act_lits.(a) :: lits
  in
  cancel_until s 0;
  if s.ok then begin
    let sorted = List.sort_uniq compare lits in
    let taut =
      let rec chk = function
        | a :: (b :: _ as rest) -> a lxor 1 = b || chk rest
        | _ -> false
      in
      chk sorted
    in
    let satisfied = List.exists (fun l -> val_lit s l = v_true) sorted in
    if not (taut || satisfied) then begin
      let live = List.filter (fun l -> val_lit s l <> v_false) sorted in
      s.n_clauses <- s.n_clauses + 1;
      match live with
      | [] -> s.ok <- false
      | [ l ] ->
        enqueue s l (-1);
        if propagate s >= 0 then s.ok <- false
      | live ->
        let len = List.length live in
        let cr = arena_alloc s len ~learned:false in
        List.iteri (fun k l -> s.arena.(cr + 1 + k) <- l) live;
        attach s cr;
        Option.iter (fun a -> register_act_clause s a cr) act
    end
  end

(* --- clause deletion / arena compaction -------------------------------------------- *)

(* Precondition: decision level 0.  Reason refs of root-level literals
   are never dereferenced by [analyze] (it only resolves vars above
   level 0), so they can be cleared wholesale before clause refs move. *)
let compact s =
  for i = 0 to s.trail_n - 1 do
    s.reason.(s.trail.(i) lsr 1) <- -1
  done;
  let map = Hashtbl.create 256 in
  let cr = ref 0 and top = ref 0 in
  let new_epoch = ref 0 and new_solve = ref 0 in
  while !cr < s.arena_top do
    let len = clause_len s !cr in
    if not (clause_dead s !cr) then begin
      Array.blit s.arena !cr s.arena !top (len + 1);
      Hashtbl.replace map !cr !top;
      top := !top + len + 1;
      (* keep the reuse watermarks pointing at the same boundary *)
      if !cr < s.epoch_top then new_epoch := !top;
      if !cr < s.solve_top then new_solve := !top
    end;
    cr := !cr + len + 1
  done;
  s.arena_top <- !top;
  s.epoch_top <- !new_epoch;
  s.solve_top <- !new_solve;
  s.dead_space <- 0;
  (* every live clause is watched exactly on its slot-1/2 literals, so
     the watch lists can simply be rebuilt from the compacted arena *)
  Array.fill s.watch_n 0 (Array.length s.watch_n) 0;
  let cr = ref 0 in
  while !cr < s.arena_top do
    attach s !cr;
    cr := !cr + clause_len s !cr + 1
  done;
  for a = 0 to s.n_acts - 1 do
    if not s.act_retired.(a) then
      s.act_clauses.(a) <-
        List.filter_map (fun old -> Hashtbl.find_opt map old) s.act_clauses.(a)
  done

let delete_clause s cr =
  if not (clause_dead s cr) then begin
    watch_remove s s.arena.(cr + 1) cr;
    watch_remove s s.arena.(cr + 2) cr;
    s.arena.(cr) <- s.arena.(cr) lor dead_flag;
    s.dead_space <- s.dead_space + clause_len s cr + 1;
    s.deleted_clauses <- s.deleted_clauses + 1
  end

let retire s a =
  if a < 0 || a >= s.n_acts then invalid_arg "Sat.retire: unknown activation";
  if not s.act_retired.(a) then begin
    cancel_until s 0;
    (* the unit below may propagate; never let a tripped per-fault
       guard abort the retirement bookkeeping itself *)
    let saved_guard = s.guard in
    s.guard <- Guard.none;
    s.act_retired.(a) <- true;
    List.iter (delete_clause s) s.act_clauses.(a);
    s.act_clauses.(a) <- [];
    (* permanently disable: any clause still mentioning the activation
       (none, after deletion) is satisfied forever *)
    add_clause s [ neg s.act_lits.(a) ];
    if 2 * s.dead_space > s.arena_top then compact s;
    s.guard <- saved_guard
  end

(* --- search -------------------------------------------------------------------------- *)

(* The i-th term (0-based) of the Luby restart sequence 1 1 2 1 1 2 4 ... *)
let luby i =
  let size = ref 1 and seq = ref 0 in
  while !size < i + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref i in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let restart_base = 100

exception Sat_found
exception Unsat_found

let learn s learnt =
  s.learned <- s.learned + 1;
  s.learned_lits <- s.learned_lits + List.length learnt;
  match learnt with
  | [] -> s.ok <- false
  | [ l ] ->
    cancel_until s 0;
    if val_lit s l = v_false then s.ok <- false
    else if val_lit s l = v_undef then enqueue s l (-1)
  | l0 :: rest ->
    (* the caller has backtracked already; watch the asserting literal
       and a literal of the backtrack level *)
    let len = 1 + List.length rest in
    let cr = arena_alloc s len ~learned:true in
    s.arena.(cr + 1) <- l0;
    List.iteri (fun k l -> s.arena.(cr + 2 + k) <- l) rest;
    let best = ref 2 in
    for k = 3 to len do
      if s.level.(s.arena.(cr + k) lsr 1) > s.level.(s.arena.(cr + !best) lsr 1)
      then best := k
    done;
    if !best <> 2 then begin
      let tmp = s.arena.(cr + 2) in
      s.arena.(cr + 2) <- s.arena.(cr + !best);
      s.arena.(cr + !best) <- tmp
    end;
    attach s cr;
    (* a learned clause mentioning an activation literal belongs to that
       fault's clause group: register it so retirement deletes it too,
       leaving the fault's variables in no live clause *)
    List.iter
      (fun l ->
        let a = s.act_of_var.(l lsr 1) in
        if a >= 0 then register_act_clause s a cr)
      learnt;
    enqueue s l0 cr

let solve ?(assumptions = []) s =
  List.iter (check_var s) assumptions;
  s.solves <- s.solves + 1;
  if not s.ok then false
  else begin
    cancel_until s 0;
    s.solve_top <- s.arena_top;
    let n_assumps = List.length assumptions in
    let assumps = Array.of_list assumptions in
    let learnt = ref [] in
    let result = ref false in
    let epoch = ref 0 in
    (try
       if propagate s >= 0 then begin
         s.ok <- false;
         raise Unsat_found
       end;
       while true do
         (* one restart epoch *)
         let conflicts_left = ref (restart_base * luby !epoch) in
         incr epoch;
         if !epoch > 1 then begin
           s.restarts <- s.restarts + 1;
           cancel_until s 0
         end;
         let epoch_live = ref true in
         while !epoch_live do
           let confl = propagate s in
           if confl >= 0 then begin
             s.conflicts <- s.conflicts + 1;
             (* a conflict is the solver's coarse search-space expansion:
                charge the transition budget like a relational product *)
             Guard.spend_transition s.guard;
             if s.lim_n = 0 then begin
               s.ok <- false;
               raise Unsat_found
             end;
             let bt = analyze s confl learnt in
             cancel_until s bt;
             learn s !learnt;
             if not s.ok then raise Unsat_found;
             s.var_inc <- s.var_inc *. var_decay;
             decr conflicts_left;
             if !conflicts_left <= 0 then epoch_live := false
           end
           else if s.lim_n < n_assumps then begin
             (* install the next assumption as its own decision level *)
             let p = assumps.(s.lim_n) in
             let v = val_lit s p in
             if v = v_true then new_decision_level s
             else if v = v_false then raise Unsat_found
             else begin
               new_decision_level s;
               enqueue s p (-1)
             end
           end
           else begin
             let rec pick () =
               if s.heap_n = 0 then None
               else
                 let v = heap_pop s in
                 if s.assign.(v) = v_undef && s.decidable.(v) then Some v
                 else pick ()
             in
             match pick () with
             | None -> raise Sat_found
             | Some v ->
               s.decisions <- s.decisions + 1;
               new_decision_level s;
               enqueue s (if s.saved_phase.(v) then pos v else neg_of v) (-1)
           end
         done
       done
     with
    | Sat_found -> result := true
    | Unsat_found -> result := false
    | Guard.Exhausted _ as e ->
      cancel_until s 0;
      raise e);
    if not !result then cancel_until s 0;
    !result
  end

let value s v =
  if v < 0 || v >= s.nvars then invalid_arg "Sat.value: undeclared variable";
  let a = s.assign.(v) in
  if a = v_true then true else if a = v_false then false else s.saved_phase.(v)

let lit_true s l =
  let b = value s (l lsr 1) in
  if l land 1 = 0 then b else not b
