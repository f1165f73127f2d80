open Satg_guard
open Satg_circuit

type outcome =
  | Settles of bool array
  | Non_confluent of bool array list
  | Exceeds_budget

type classification =
  | C_settles of bool array
  | C_invalid
  | C_capped

exception Frontier_limit

(* --- packed words ------------------------------------------------------------ *)

(* Node [i] lives in word [i / 63] at bit [62 - i mod 63]: the first node
   of a word is its most significant bit, so comparing words as unsigned
   integers orders states exactly like [Stdlib.compare] on [bool array]. *)
let word_bits = 63

let n_words n = (n + word_bits - 1) / word_bits
let bit_mask i = 1 lsl (word_bits - 1 - (i mod word_bits))
let compare_unsigned a b = compare (a lxor min_int) (b lxor min_int)

(* Index of the single set bit of [x]. *)
let ctz x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFFFFFF = 0 then begin n := 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then !n + 1 else !n

let parity x =
  let x = x lxor (x lsr 32) in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  (x lxor (x lsr 1)) land 1 = 1

module Words = struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && Array.unsafe_get a !i = Array.unsafe_get b !i do
      incr i
    done;
    !i = n

  let hash (a : t) =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h * 0x100000001B3) lxor Array.unsafe_get a i
    done;
    !h land max_int

  let compare (a : t) (b : t) =
    let n = min (Array.length a) (Array.length b) in
    let i = ref 0 in
    while !i < n && a.(!i) = b.(!i) do
      incr i
    done;
    if !i < n then compare_unsigned a.(!i) b.(!i)
    else compare (Array.length a) (Array.length b)

  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)
end

(* Deterministic 62-bit Zobrist keys (splitmix64 steps, truncated). *)
let zobrist n =
  let x = ref 0x2545F4914F6CDD1D in
  Array.init n (fun _ ->
      x := !x + 0x1E3779B97F4A7C15;
      let z = !x in
      let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
      let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
      (z lxor (z lsr 31)) land max_int)

(* --- compiled gates ---------------------------------------------------------- *)

type op =
  | Op_const of bool
  | Op_and  (* all fanins 1; BUF and NOT too *)
  | Op_or
  | Op_xor
  | Op_mux
  | Op_celem
  | Op_sop of {
      care : int array;  (* [n_cubes * fw] words, cube-major *)
      value : int array;
    }

(* Fanin [p] of a gate is gathered into bit [p mod 63] of word [p / 63];
   a SOP cube holds iff [gathered land care = value] word by word. *)
type gate = {
  out_w : int;  (* state word and bit of the gate output *)
  out_m : int;
  fin_w : int array;  (* per fanin: state word and bit *)
  fin_m : int array;
  fw : int;  (* gathered words *)
  full : int;  (* all-ones mask of the last gathered word *)
  op : op;
  neg : bool;
  affected : int array;  (* gate indices to re-evaluate after this one fires *)
  zob : int;  (* Zobrist key of the output node *)
}

let compile_gate c ~zob ~gate_of_node gid =
  let fanin = Circuit.fanins c gid in
  let arity = Array.length fanin in
  let fw = max 1 (n_words arity) in
  let last = arity - ((fw - 1) * word_bits) in
  let full = if last >= word_bits then -1 else (1 lsl last) - 1 in
  let op, neg =
    match Circuit.func c gid with
    | Gatefunc.Buf | Gatefunc.And -> (Op_and, false)
    | Gatefunc.Not | Gatefunc.Nand -> (Op_and, true)
    | Gatefunc.Or -> (Op_or, false)
    | Gatefunc.Nor -> (Op_or, true)
    | Gatefunc.Xor -> (Op_xor, false)
    | Gatefunc.Xnor -> (Op_xor, true)
    | Gatefunc.Mux -> (Op_mux, false)
    | Gatefunc.Celem -> (Op_celem, false)
    | Gatefunc.Const b -> (Op_const b, false)
    | Gatefunc.Sop cover ->
      let cubes = Array.of_list (Satg_logic.Cover.cubes cover) in
      let care = Array.make (Array.length cubes * fw) 0 in
      let value = Array.make (Array.length cubes * fw) 0 in
      Array.iteri
        (fun ci cube ->
          for p = 0 to arity - 1 do
            let w = (ci * fw) + (p / word_bits) and b = 1 lsl (p mod word_bits) in
            match Satg_logic.Cube.lit cube p with
            | Satg_logic.Cube.T ->
              care.(w) <- care.(w) lor b;
              value.(w) <- value.(w) lor b
            | Satg_logic.Cube.F -> care.(w) <- care.(w) lor b
            | Satg_logic.Cube.D -> ()
          done)
        cubes;
      (Op_sop { care; value }, false)
  in
  {
    out_w = gid / word_bits;
    out_m = bit_mask gid;
    fin_w = Array.map (fun i -> i / word_bits) fanin;
    fin_m = Array.map bit_mask fanin;
    fw;
    full;
    op;
    neg;
    affected =
      gid :: Circuit.fanouts c gid
      |> List.sort_uniq compare
      |> List.map (fun g -> gate_of_node.(g))
      |> Array.of_list;
    zob = zob.(gid);
  }

(* Function value of a gate of at most 63 fanins from its gathered word. *)
let eval1 g ~self x =
  let v =
    match g.op with
    | Op_and -> x = g.full
    | Op_or -> x <> 0
    | Op_xor -> parity x
    | Op_mux -> if x land 1 <> 0 then x land 2 <> 0 else x land 4 <> 0
    | Op_celem -> if x = g.full then true else if x <> 0 then self else false
    | Op_const b -> b
    | Op_sop { care; value } ->
      let n = Array.length care in
      let i = ref 0 in
      while !i < n && x land Array.unsafe_get care !i <> Array.unsafe_get value !i do
        incr i
      done;
      !i < n
  in
  v <> g.neg

(* The same over [g.fw] gathered words. *)
let evaln g ~self fan =
  let fw = g.fw in
  let full w = if w = fw - 1 then g.full else -1 in
  let rec all_full w = w >= fw || (fan.(w) = full w && all_full (w + 1)) in
  let rec any_set w = w < fw && (fan.(w) <> 0 || any_set (w + 1)) in
  let v =
    match g.op with
    | Op_and -> all_full 0
    | Op_or -> any_set 0
    | Op_xor ->
      let x = ref 0 in
      for w = 0 to fw - 1 do
        x := !x lxor fan.(w)
      done;
      parity !x
    | Op_mux -> assert false (* arity 3 *)
    | Op_celem -> if all_full 0 then true else if any_set 0 then self else false
    | Op_const b -> b
    | Op_sop { care; value } ->
      let rec cube_ok base w =
        w >= fw || (fan.(w) land care.(base + w) = value.(base + w) && cube_ok base (w + 1))
      in
      let rec any base = base < Array.length care && (cube_ok base 0 || any (base + fw)) in
      any 0
  in
  v <> g.neg

(* --- open-addressing state sets ---------------------------------------------- *)

(* An entry is [stride] ints: the state's Zobrist hash, its state words,
   then its excitation words (bit [g mod 63] of word [g / 63] set iff
   gate index [g] may fire).  Entries are appended in insertion order;
   [slots] maps probe positions to entry index + 1, and [slot_of] lets
   [clear_set] empty exactly the slots in use, so one set serves every
   layer or search at the cost of its last contents. *)
type set = {
  mutable data : int array;
  mutable count : int;
  mutable unstable : int;  (* entries with a nonzero excitation word *)
  mutable slots : int array;
  mutable slot_of : int array;
}

let new_set stride =
  {
    data = Array.make (8 * stride) 0;
    count = 0;
    unstable = 0;
    slots = Array.make 16 0;
    slot_of = Array.make 8 0;
  }

let clear_set s =
  for e = 0 to s.count - 1 do
    Array.unsafe_set s.slots (Array.unsafe_get s.slot_of e) 0
  done;
  s.count <- 0;
  s.unstable <- 0

module Kernel = struct
  type t = {
    circuit : Circuit.t;
    n : int;
    nws : int;  (* state words *)
    nwe : int;  (* excitation words *)
    stride : int;
    gates : gate array;
    zob : int array;  (* per node *)
    env_w : int array;  (* per input: state word, bit and key of its env node *)
    env_m : int array;
    env_z : int array;
    env_gates : int array array;  (* per input: gates reading the env node *)
    slow : int;  (* gate index whose transitions to [slow_to] never fire, or -1 *)
    slow_to : bool;
    fan : int array;  (* gather scratch for gates wider than one word *)
    mutable cur : set;
    mutable nxt : set;
    mutable height : int array;  (* per entry of [cur]: -1 on the stack, else its height *)
    mutable stack : int array;  (* per frame: entry, next gate, height so far *)
  }

  let circuit t = t.circuit

  let compile ?slow c =
    let n = Circuit.n_nodes c in
    let ids = Circuit.gates c in
    let gate_of_node = Array.make n (-1) in
    Array.iteri (fun gi gid -> gate_of_node.(gid) <- gi) ids;
    let nws = n_words n and nwe = max 1 (n_words (Array.length ids)) in
    let zob = zobrist n in
    let gates = Array.map (compile_gate c ~zob ~gate_of_node) ids in
    let slow, slow_to =
      match slow with
      | None -> (-1, false)
      | Some (gid, dir) ->
        if gid < 0 || gid >= n || gate_of_node.(gid) < 0 then
          invalid_arg "Async_sim.Kernel.compile: slow node is not a gate";
        (gate_of_node.(gid), dir)
    in
    let inputs = Circuit.inputs c in
    let stride = 1 + nws + nwe in
    {
      circuit = c;
      n;
      nws;
      nwe;
      stride;
      gates;
      zob;
      env_w = Array.map (fun e -> e / word_bits) inputs;
      env_m = Array.map bit_mask inputs;
      env_z = Array.map (fun e -> zob.(e)) inputs;
      env_gates =
        Array.map
          (fun e -> Array.of_list (List.map (fun g -> gate_of_node.(g)) (Circuit.fanouts c e)))
          inputs;
      slow;
      slow_to;
      fan = Array.make (Array.fold_left (fun m g -> max m g.fw) 1 gates) 0;
      cur = new_set stride;
      nxt = new_set stride;
      height = Array.make 8 0;
      stack = Array.make 24 0;
    }

  (* May gate [gi] fire in the state whose words start at [d.(b)]? *)
  let fireable t d b gi =
    let g = Array.unsafe_get t.gates gi in
    let self = Array.unsafe_get d (b + g.out_w) land g.out_m <> 0 in
    let fin_w = g.fin_w and fin_m = g.fin_m in
    let v =
      if g.fw = 1 then begin
        let x = ref 0 in
        for p = 0 to Array.length fin_w - 1 do
          if Array.unsafe_get d (b + Array.unsafe_get fin_w p) land Array.unsafe_get fin_m p <> 0
          then x := !x lor (1 lsl p)
        done;
        eval1 g ~self !x
      end
      else begin
        let fan = t.fan in
        Array.fill fan 0 g.fw 0;
        for p = 0 to Array.length fin_w - 1 do
          if d.(b + fin_w.(p)) land fin_m.(p) <> 0 then
            fan.(p / word_bits) <- fan.(p / word_bits) lor (1 lsl (p mod word_bits))
        done;
        evaln g ~self fan
      end
    in
    v <> self && not (gi = t.slow && self <> t.slow_to)

  (* Recompute the excitation bits of gates [gis] of the entry at [base]. *)
  let update_exc t d base gis =
    let sb = base + 1 and eb = base + 1 + t.nws in
    for j = 0 to Array.length gis - 1 do
      let gi = Array.unsafe_get gis j in
      let w = eb + (gi / word_bits) and m = 1 lsl (gi mod word_bits) in
      let old = Array.unsafe_get d w in
      Array.unsafe_set d w (if fireable t d sb gi then old lor m else old land lnot m)
    done

  let is_stable_entry t d base =
    let eb = base + 1 + t.nws in
    let w = ref 0 in
    while !w < t.nwe && Array.unsafe_get d (eb + !w) = 0 do
      incr w
    done;
    !w = t.nwe

  (* --- set primitives ------------------------------------------------------- *)

  (* Room for a candidate entry at index [s.count], and a load factor of
     at most 1/2 once it is added. *)
  let reserve t s =
    if (s.count + 1) * t.stride > Array.length s.data then begin
      let data = Array.make (2 * Array.length s.data) 0 in
      Array.blit s.data 0 data 0 (s.count * t.stride);
      s.data <- data;
      let slot_of = Array.make (2 * Array.length s.slot_of) 0 in
      Array.blit s.slot_of 0 slot_of 0 s.count;
      s.slot_of <- slot_of
    end;
    if 2 * (s.count + 1) > Array.length s.slots then begin
      let slots = Array.make (2 * Array.length s.slots) 0 in
      let mask = Array.length slots - 1 in
      for e = 0 to s.count - 1 do
        let i = ref (s.data.(e * t.stride) land mask) in
        while slots.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- e + 1;
        s.slot_of.(e) <- !i
      done;
      s.slots <- slots
    end

  (* Is the state at [d.(a)] (hash first) the one at [d.(b)]? *)
  let same_state t da a db b =
    Array.unsafe_get da a = Array.unsafe_get db b
    &&
    let w = ref 1 in
    while !w <= t.nws && Array.unsafe_get da (a + !w) = Array.unsafe_get db (b + !w) do
      incr w
    done;
    !w > t.nws

  (* Probe for the candidate at entry [s.count], whose hash and state
     words are filled in: the index of the entry holding the same state,
     or [s.count] for a new state, whose slot is then reserved; the
     caller completes its excitation words and [commit]s. *)
  let claim t s =
    let d = s.data and c = s.count in
    let cb = c * t.stride in
    let slots = s.slots in
    let mask = Array.length slots - 1 in
    let i = ref (Array.unsafe_get d cb land mask) and found = ref c in
    while
      !found = c
      &&
      let e = Array.unsafe_get slots !i in
      e <> 0
    do
      let e = Array.unsafe_get slots !i - 1 in
      if same_state t d (e * t.stride) d cb then found := e else i := (!i + 1) land mask
    done;
    if !found = c then begin
      Array.unsafe_set slots !i (c + 1);
      Array.unsafe_set s.slot_of c !i
    end;
    !found

  let commit t s =
    if not (is_stable_entry t s.data (s.count * t.stride)) then s.unstable <- s.unstable + 1;
    s.count <- s.count + 1

  (* Copy entry [e] of [src] into [dst] unless already present. *)
  let add_entry t dst src e =
    reserve t dst;
    let sb = e * t.stride and db = dst.count * t.stride in
    for j = 0 to t.stride - 1 do
      Array.unsafe_set dst.data (db + j) (Array.unsafe_get src.data (sb + j))
    done;
    if claim t dst = dst.count then commit t dst

  (* --- loading and decoding ------------------------------------------------- *)

  (* Pack [s] as the candidate entry of [set], with its whole excitation. *)
  let load t set s =
    if Array.length s <> t.n then invalid_arg "Async_sim.Kernel: wrong state length";
    reserve t set;
    let d = set.data and base = set.count * t.stride in
    Array.fill d base t.stride 0;
    let h = ref 0 in
    Array.iteri
      (fun i b ->
        if b then begin
          let w = base + 1 + (i / word_bits) in
          d.(w) <- d.(w) lor bit_mask i;
          h := !h lxor t.zob.(i)
        end)
      s;
    d.(base) <- !h;
    let eb = base + 1 + t.nws in
    for gi = 0 to Array.length t.gates - 1 do
      if fireable t d (base + 1) gi then
        d.(eb + (gi / word_bits)) <- d.(eb + (gi / word_bits)) lor (1 lsl (gi mod word_bits))
    done

  let decode t d base =
    Array.init t.n (fun i -> d.(base + 1 + (i / word_bits)) land bit_mask i <> 0)

  let pack t s =
    if Array.length s <> t.n then invalid_arg "Async_sim.Kernel.pack: wrong state length";
    let w = Array.make t.nws 0 in
    Array.iteri (fun i b -> if b then w.(i / word_bits) <- w.(i / word_bits) lor bit_mask i) s;
    w

  (* The members of [s], in [Stdlib.compare] order of their [bool array]s. *)
  let sorted_states t s =
    let d = s.data in
    let cmp a b =
      let w = ref 1 in
      while !w <= t.nws && d.(a + !w) = d.(b + !w) do
        incr w
      done;
      if !w > t.nws then 0 else compare_unsigned d.(a + !w) d.(b + !w)
    in
    List.init s.count (fun e -> e * t.stride) |> List.sort cmp |> List.map (decode t d)

  (* --- one R_delta layer ---------------------------------------------------- *)

  (* Every fireable gate of every state of [cur] fires; a state with
     nothing fireable persists (self-loop).  A new successor copies its
     parent's excitation and re-evaluates only the fired gate and its
     readers; a successor already in the layer costs one hash update and
     one probe.  Raises [Frontier_limit] as soon as the layer holds more
     than [limit] states.  Words are copied by inline loops: a state is a
     word or two, and [Array.blit] is an external call. *)
  let step t ~limit =
    let cur = t.cur and nxt = t.nxt in
    clear_set nxt;
    let stride = t.stride and nws = t.nws and nwe = t.nwe in
    let src = cur.data in
    for e = 0 to cur.count - 1 do
      let pb = e * stride in
      if is_stable_entry t src pb then add_entry t nxt cur e
      else
        for w = 0 to nwe - 1 do
          let x = ref (Array.unsafe_get src (pb + 1 + nws + w)) in
          while !x <> 0 do
            let low = !x land - !x in
            x := !x lxor low;
            let g = Array.unsafe_get t.gates ((w * word_bits) + ctz low) in
            reserve t nxt;
            let d = nxt.data and cb = nxt.count * stride in
            Array.unsafe_set d cb (Array.unsafe_get src pb lxor g.zob);
            for j = 1 to nws do
              Array.unsafe_set d (cb + j) (Array.unsafe_get src (pb + j))
            done;
            let ow = cb + 1 + g.out_w in
            Array.unsafe_set d ow (Array.unsafe_get d ow lxor g.out_m);
            if claim t nxt = nxt.count then begin
              for j = 1 + nws to nws + nwe do
                Array.unsafe_set d (cb + j) (Array.unsafe_get src (pb + j))
              done;
              update_exc t d cb g.affected;
              commit t nxt;
              if nxt.count > limit then raise Frontier_limit
            end
          done
        done
    done;
    t.nxt <- cur;
    t.cur <- nxt

  let push_candidate t s =
    ignore (claim t s : int);
    commit t s

  let states_after ?(max_frontier = max_int) ?(guard = Guard.none) t ~k s =
    clear_set t.cur;
    load t t.cur s;
    push_candidate t t.cur;
    let rec go i =
      let width = t.cur.count in
      if width > max_frontier then raise Frontier_limit;
      if i < k && t.cur.unstable > 0 then begin
        Guard.spend_transitions guard width;
        step t ~limit:max_frontier;
        go (i + 1)
      end
    in
    go 0;
    sorted_states t t.cur

  (* --- depth-first TCR_k verdicts --------------------------------------------- *)

  let grow a need =
    if need <= Array.length a then a
    else begin
      let b = Array.make (max need (2 * Array.length a)) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    end

  (* The lowest fireable gate index [>= gi] of the entry at [base], or -1. *)
  let rec next_gate t d base gi =
    let w = gi / word_bits in
    if w >= t.nwe then -1
    else
      let x = Array.unsafe_get d (base + 1 + t.nws + w) land (-1 lsl (gi mod word_bits)) in
      if x <> 0 then (w * word_bits) + ctz (x land -x)
      else next_gate t d base ((w + 1) * word_bits)

  exception Verdict of classification

  (* The rule is in the interface; the search expands each distinct
     state once.  The stack is the current path (at most [k] unstable
     states), an edge into an entry still on it closes an unstable
     cycle, and an edge into a finished entry extends the path by that
     entry's height, the number of states on its longest unstable path
     ([height]: 0 if stable, -1 while on the stack).  A stack frame is
     the entry, the next gate to fire from it and its height so far. *)
  let classify_vector ?(max_frontier = max_int) ?(guard = Guard.none) t ~k s v =
    let cur = t.cur in
    clear_set cur;
    load t cur s;
    let d = cur.data in
    if not (is_stable_entry t d 0) then
      invalid_arg "Async_sim.classify_vector: state not stable";
    if Array.length v <> Array.length t.env_w then
      invalid_arg "Circuit.apply_input_vector: wrong vector length";
    Array.iteri
      (fun i b ->
        let w = 1 + t.env_w.(i) and m = t.env_m.(i) in
        if d.(w) land m <> 0 <> b then begin
          d.(w) <- d.(w) lxor m;
          d.(0) <- d.(0) lxor t.env_z.(i);
          update_exc t d 0 t.env_gates.(i)
        end)
      v;
    let stride = t.stride and nws = t.nws and nwe = t.nwe in
    let sp = ref 0 and stable = ref (-1) in
    (* Commit the claimed candidate, the last state of a path of [depth]
       states, and push it if it is unstable. *)
    let enter depth =
      let e = cur.count in
      commit t cur;
      t.height <- grow t.height cur.count;
      if is_stable_entry t cur.data (e * stride) then begin
        if !stable >= 0 then raise_notrace (Verdict C_invalid);
        stable := e;
        t.height.(e) <- 0
      end
      else if depth > k then raise_notrace (Verdict C_invalid);
      if cur.count > max_frontier then raise_notrace (Verdict C_capped);
      if e <> !stable then begin
        t.height.(e) <- -1;
        let f = 3 * !sp in
        t.stack <- grow t.stack (f + 3);
        t.stack.(f) <- e;
        t.stack.(f + 1) <- 0;
        t.stack.(f + 2) <- 1;
        incr sp
      end
    in
    try
      ignore (claim t cur : int);
      enter 1;
      while !sp > 0 do
        let stack = t.stack and f = 3 * (!sp - 1) in
        let pb = stack.(f) * stride in
        let gi = next_gate t cur.data pb stack.(f + 1) in
        if gi < 0 then begin
          let h = stack.(f + 2) in
          t.height.(stack.(f)) <- h;
          decr sp;
          if !sp > 0 && h + 1 > stack.(f - 1) then stack.(f - 1) <- h + 1
        end
        else begin
          stack.(f + 1) <- gi + 1;
          Guard.spend_transition guard;
          let g = Array.unsafe_get t.gates gi in
          reserve t cur;
          let d = cur.data and cb = cur.count * stride in
          Array.unsafe_set d cb (Array.unsafe_get d pb lxor g.zob);
          for j = 1 to nws do
            Array.unsafe_set d (cb + j) (Array.unsafe_get d (pb + j))
          done;
          let ow = cb + 1 + g.out_w in
          Array.unsafe_set d ow (Array.unsafe_get d ow lxor g.out_m);
          let c = claim t cur in
          if c = cur.count then begin
            for j = 1 + nws to nws + nwe do
              Array.unsafe_set d (cb + j) (Array.unsafe_get d (pb + j))
            done;
            update_exc t d cb g.affected;
            enter (!sp + 1)
          end
          else begin
            let h = t.height.(c) in
            if h < 0 || !sp + h > k then raise_notrace (Verdict C_invalid);
            if h + 1 > stack.(f + 2) then stack.(f + 2) <- h + 1
          end
        end
      done;
      C_settles (decode t cur.data (!stable * stride))
    with Verdict r -> r
end

(* --- circuit-level entry points ---------------------------------------------- *)

let states_after ?max_frontier ?guard c ~k s =
  Kernel.states_after ?max_frontier ?guard (Kernel.compile c) ~k s

let classify_vector ?max_frontier ?guard c ~k s v =
  Kernel.classify_vector ?max_frontier ?guard (Kernel.compile c) ~k s v

let apply_with kern ~k s v =
  let c = Kernel.circuit kern in
  if not (Circuit.is_stable c s) then
    invalid_arg "Async_sim.apply_vector: state not stable";
  let s1 = Circuit.apply_input_vector c s v in
  let finals = Kernel.states_after kern ~k s1 in
  if List.exists (fun s' -> not (Circuit.is_stable c s')) finals then
    Exceeds_budget
  else
    match finals with
    | [ s' ] -> Settles s'
    | [] -> assert false
    | multiple -> Non_confluent multiple

let apply_vector c ~k s v = apply_with (Kernel.compile c) ~k s v

let settle c ~max_steps s =
  let rec go i s =
    match Circuit.excited_gates c s with
    | [] -> Some s
    | g :: _ -> if i >= max_steps then None else go (i + 1) (Circuit.fire c s g)
  in
  go 0 (Array.copy s)

let reachable_stable_states c ~k ~from =
  let kern = Kernel.compile c in
  let n_in = Circuit.n_inputs c in
  let vectors =
    List.init (1 lsl n_in) (fun mask ->
        Array.init n_in (fun i -> mask land (1 lsl i) <> 0))
  in
  let seen = Words.Tbl.create 64 in
  let queue = Queue.create () in
  let push s =
    let key = Kernel.pack kern s in
    if not (Words.Tbl.mem seen key) then begin
      Words.Tbl.replace seen key s;
      Queue.add s queue
    end
  in
  List.iter
    (fun s ->
      if Circuit.is_stable c s then push s
      else
        match settle c ~max_steps:k s with
        | Some s' -> push s'
        | None -> ())
    from;
  while not (Queue.is_empty queue) do
    let s = Queue.take queue in
    List.iter
      (fun v ->
        if v <> Circuit.input_vector_of_state c s then
          match apply_with kern ~k s v with
          | Settles s' -> push s'
          | Non_confluent finals -> List.iter push finals
          | Exceeds_budget -> ())
      vectors
  done;
  Words.Tbl.fold (fun _ s acc -> s :: acc) seen [] |> List.sort Stdlib.compare
