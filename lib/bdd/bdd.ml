(* Hash-consed ROBDDs, struct-of-arrays node store.  Node ids:
   0 = terminal false, 1 = terminal true, >= 2 internal.  The variable
   of a terminal is [terminal_var], larger than any real variable.

   The hot paths (mk / apply / ite / not / flip) are allocation-free:
   every loop is a top-level recursion that takes its state as
   arguments, so no call builds a closure.

   - The unique table is open addressing with linear probing over one
     int array.  A bucket holds [node id + 1] (0 = empty, -1 =
     tombstone); the key (var, low, high) is never materialised — it
     is hashed inline and compared against the struct-of-arrays store.
     The table grows at 3/4 occupancy.  Tombstones exist only because
     dynamic reordering rewrites nodes in place (the key of a
     rewritten node changes, so its old bucket must die) and frees the
     nodes its swaps orphan; a manager that never reorders never
     produces one.
   - All operation results share one direct-mapped cache (CUDD-style):
     a flat int array of 4-int entries [key1; key2; key3; result],
     where key1 packs the first operand and the op tag
     ((a lsl 3) lor op).  Collisions simply overwrite (lossy);
     correctness never depends on the cache, only speed.  It starts
     sized from the variable count and doubles with the unique table,
     up to [max_cache_slots] entries.
   - [Guard.tick] is probed on every cache miss and node allocation,
     so a deadline (or an already-tripped guard) aborts a runaway
     symbolic computation from *inside* the recursion instead of
     waiting for the caller's next loop boundary.

   Dynamic variable ordering: the variable order is a permutation held
   in [var_at] (level -> var) / [level_of] (var -> level), identity at
   creation.  Every ordering comparison in the operations goes through
   [level_of], so adjacent levels can be swapped in place (Rudell
   sifting): a swap rewrites only the upper level's nodes whose
   children live at the lower level, preserving what every node id
   *denotes* — external handles and op-cache entries stay valid across
   a reorder.  A pass frees only nodes no pinned node reaches, and none
   of those is in the op cache.

   Garbage collection is mark-and-sweep from explicit roots
   ([collect]): nodes unreachable from the roots go onto a free list
   threaded through [low_of], the unique table is rebuilt from the
   survivors and the op cache is cleared (its entries name dead ids).
   Survivors keep their ids, so a rooted handle stays valid; a dead id
   is reused by a later [mk].  Nothing collects implicitly — only the
   owner of the roots knows which handles are still held; a sifting
   pass given roots collects down to them first. *)

open Satg_guard

type t = int

let terminal_var = max_int

(* [var_of] of a slot on the free list: no real variable, so every
   [var_of = u] filter skips it *)
let free_var = -1

(* op tags, also the index into the per-op hit/miss counters *)
let op_and = 0
let op_or = 1
let op_xor = 2
let op_not = 3
let op_ite = 4
let op_flip = 5
let n_ops = 6

type reorder_mode = Reorder_none | Reorder_sift

type man = {
  mutable var_of : int array;
  mutable low_of : int array;
  mutable high_of : int array;
  mutable n_nodes : int;  (* bump pointer: the store's high-water mark *)
  mutable free : int;  (* head of the free list, -1 = empty *)
  mutable n_free : int;
  mutable allocs : int;  (* nodes allocated, monotone (budget charges) *)
  mutable live_after_gc : int;  (* nodes in use after the last collection *)
  mutable collections : int;
  (* unique table: open addressing, bucket = node id + 1, 0 = empty,
     -1 = tombstone (left behind by in-place reordering) *)
  mutable table : int array;
  mutable spare : int array;  (* the last table a same-size rehash left *)
  mutable umask : int;  (* Array.length table - 1 (power of two) *)
  mutable ulimit : int;  (* rehash threshold: 3/4 of the buckets *)
  mutable u_entries : int;  (* live keys in the table *)
  mutable u_used : int;  (* live keys + tombstones *)
  (* shared direct-mapped op cache: 4 ints per entry *)
  mutable cache : int array;
  mutable cmask : int;  (* entry count - 1 (power of two) *)
  hits : int array;  (* per op tag *)
  misses : int array;
  mutable n_vars : int;
  mutable guard : Guard.t;
  (* dynamic ordering *)
  mutable var_at : int array;  (* level -> variable *)
  mutable level_of : int array;  (* variable -> level *)
  mutable reorder : reorder_mode;
  mutable reorder_trigger : int;  (* auto-sift when [in_use] crosses this *)
  mutable in_reorder : bool;
  mutable reorders : int;
  mutable swaps : int;
  mutable reorder_time : float;
  unique_init : int;  (* chosen initial bucket count, for stats *)
}

let rec pow2_ge n acc = if acc >= n then acc else pow2_ge n (acc * 2)

(* Inline hash of an int triple; multiplications wrap mod 2^63 and the
   caller masks to a power of two, so only mixing quality matters. *)
let mix a b c =
  let h =
    (a * 0x2545F4914F6CDD1)
    lxor (b * 0x9E3779B97F4A7C1)
    lxor (c * 0x85EBCA77C2B2AE6)
  in
  let h = h lxor (h lsr 29) in
  let h = h * 0x27D4EB2F165667C in
  h lxor (h lsr 32)

(* The op cache stops doubling with the unique table here: 1 MiB. *)
let max_cache_slots = 1 lsl 15

(* Table sizes scale with the variable count unless the caller sets
   them: a 10-var manager does not pay for (and zero) the same 256 KiB
   op cache as a 100-var one. *)
let create ?unique_size ?cache_size ?(guard = Guard.none) ~nvars () =
  let usize =
    let wanted =
      match unique_size with
      | Some s -> max 16 s
      | None -> max 64 (min 1024 (8 * nvars))
    in
    pow2_ge wanted 16
  in
  let csize =
    let wanted =
      match cache_size with
      | Some s -> max 256 s
      | None -> max 256 (min 8192 (nvars * nvars))
    in
    pow2_ge wanted 256
  in
  let cap = max 64 (min 1024 (4 * nvars)) in
  {
    var_of = Array.make cap terminal_var;
    low_of = Array.make cap (-1);
    high_of = Array.make cap (-1);
    n_nodes = 2;
    free = -1;
    n_free = 0;
    allocs = 0;
    live_after_gc = 0;
    collections = 0;
    table = Array.make usize 0;
    spare = [||];
    umask = usize - 1;
    ulimit = usize * 3 / 4;
    u_entries = 0;
    u_used = 0;
    cache = Array.make (csize * 4) (-1);
    cmask = csize - 1;
    hits = Array.make n_ops 0;
    misses = Array.make n_ops 0;
    n_vars = nvars;
    guard;
    var_at = Array.init (max 1 nvars) Fun.id;
    level_of = Array.init (max 1 nvars) Fun.id;
    reorder = Reorder_none;
    reorder_trigger = 4096;
    in_reorder = false;
    reorders = 0;
    swaps = 0;
    reorder_time = 0.0;
    unique_init = usize;
  }

let set_guard m g = m.guard <- g
let guard m = m.guard
let nvars m = m.n_vars

let add_var m =
  let v = m.n_vars in
  m.n_vars <- v + 1;
  if v >= Array.length m.var_at then begin
    let extend a =
      let a' = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    m.var_at <- extend m.var_at;
    m.level_of <- extend m.level_of
  end;
  (* a fresh variable enters at the bottom of the order *)
  m.var_at.(v) <- v;
  m.level_of.(v) <- v;
  v

let zero (_ : man) = 0
let one (_ : man) = 1
let is_zero t = t = 0
let is_one t = t = 1
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (t : t) = t
let var_id m id = m.var_of.(id)
let level_of_var m v = m.level_of.(v)
let var_at_level m l = m.var_at.(l)
let order m = Array.sub m.var_at 0 m.n_vars

(* level of a node: its variable's position in the current order *)
let lvl m t = if t < 2 then max_int else m.level_of.(m.var_of.(t))

let grow m =
  let cap = Array.length m.var_of in
  if m.n_nodes >= cap then begin
    let cap' = cap * 2 in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    m.var_of <- extend m.var_of terminal_var;
    m.low_of <- extend m.low_of (-1);
    m.high_of <- extend m.high_of (-1)
  end

(* Double the op cache without losing an entry: an entry's slot under
   the doubled mask is its old slot or that slot plus the old size, so
   the old array, written into both halves, keeps every entry where a
   probe looks for it.  The copy in the wrong half never matches a
   probe (one for its key looks in the right half); it waits to be
   overwritten. *)
let grow_cache m =
  if m.cmask + 1 < max_cache_slots then begin
    m.cache <- Array.append m.cache m.cache;
    m.cmask <- (2 * m.cmask) + 1
  end

(* Rebuild from the old table, whose keys are exactly the nodes in use.
   Doubles only when live keys justify it — otherwise same size,
   purging tombstones — and the op cache doubles with it.  A sifting
   pass deletes keys at every swap, so it rehashes at the same size
   again and again: the old table is kept as the next one's buffer
   instead of becoming garbage each time. *)
let rehash m =
  let old = m.table in
  let osize = m.umask + 1 in
  let size = if m.u_entries * 8 >= osize * 3 then osize * 2 else osize in
  let table =
    if Array.length m.spare = size then begin
      Array.fill m.spare 0 size 0;
      m.spare
    end
    else Array.make size 0
  in
  m.spare <- (if size = osize then old else [||]);
  let mask = size - 1 in
  for s = 0 to osize - 1 do
    let e = old.(s) in
    if e > 0 then begin
      let id = e - 1 in
      let j = ref (mix m.var_of.(id) m.low_of.(id) m.high_of.(id) land mask) in
      while table.(!j) <> 0 do
        j := (!j + 1) land mask
      done;
      table.(!j) <- e
    end
  done;
  m.table <- table;
  m.umask <- mask;
  m.ulimit <- size * 3 / 4;
  m.u_used <- m.u_entries;
  if size > osize then grow_cache m

(* Nodes in the store: terminals, live nodes and garbage not yet
   collected. *)
let in_use m = m.n_nodes - m.n_free

(* Find (var, low, high) from bucket [i], or allocate it in place —
   from the free list first — at the first tombstone passed or at the
   empty bucket that ends the probe.  This probe and the two below
   take their state as arguments: a local [let rec] closing over it
   would be allocated on every call. *)
let rec mk_probe m v l h i tomb =
  let e = m.table.(i) in
  if e = 0 then begin
    Guard.tick m.guard;
    let id =
      if m.free >= 0 then begin
        let id = m.free in
        m.free <- m.low_of.(id);
        m.n_free <- m.n_free - 1;
        id
      end
      else begin
        grow m;
        let id = m.n_nodes in
        m.n_nodes <- id + 1;
        id
      end
    in
    m.allocs <- m.allocs + 1;
    m.var_of.(id) <- v;
    m.low_of.(id) <- l;
    m.high_of.(id) <- h;
    let slot = if tomb >= 0 then tomb else i in
    m.table.(slot) <- id + 1;
    m.u_entries <- m.u_entries + 1;
    if slot = i then begin
      m.u_used <- m.u_used + 1;
      if m.u_used >= m.ulimit then rehash m
    end;
    id
  end
  else if e = -1 then
    mk_probe m v l h ((i + 1) land m.umask) (if tomb >= 0 then tomb else i)
  else
    let n = e - 1 in
    if m.var_of.(n) = v && m.low_of.(n) = l && m.high_of.(n) = h then n
    else mk_probe m v l h ((i + 1) land m.umask) tomb

let mk m v l h =
  if l = h then l else mk_probe m v l h (mix v l h land m.umask) (-1)

let rec insert_probe m id i tomb =
  let e = m.table.(i) in
  if e = 0 then begin
    let slot = if tomb >= 0 then tomb else i in
    m.table.(slot) <- id + 1;
    m.u_entries <- m.u_entries + 1;
    if slot = i then begin
      m.u_used <- m.u_used + 1;
      if m.u_used >= m.ulimit then rehash m
    end
  end
  else if e = -1 then
    insert_probe m id ((i + 1) land m.umask) (if tomb >= 0 then tomb else i)
  else insert_probe m id ((i + 1) land m.umask) tomb

(* Insert an existing (rewritten) node under its current key. *)
let insert_key m id =
  let i = mix m.var_of.(id) m.low_of.(id) m.high_of.(id) land m.umask in
  insert_probe m id i (-1)

let rec delete_probe m id i =
  let e = m.table.(i) in
  if e = id + 1 then begin
    m.table.(i) <- -1;
    m.u_entries <- m.u_entries - 1
  end
  else if e <> 0 then delete_probe m id ((i + 1) land m.umask)

(* Tombstone the bucket holding [id] (keyed by its *current* triple). *)
let delete_key m id =
  let i = mix m.var_of.(id) m.low_of.(id) m.high_of.(id) land m.umask in
  delete_probe m id i

let var m v =
  if v < 0 || v >= m.n_vars then invalid_arg "Bdd.var: out of range";
  mk m v 0 1

let nvar m v =
  if v < 0 || v >= m.n_vars then invalid_arg "Bdd.nvar: out of range";
  mk m v 1 0

let top_var m t =
  if t < 2 then invalid_arg "Bdd.top_var: terminal";
  m.var_of.(t)

let low m t =
  if t < 2 then invalid_arg "Bdd.low: terminal";
  m.low_of.(t)

let high m t =
  if t < 2 then invalid_arg "Bdd.high: terminal";
  m.high_of.(t)

(* NOT, binary APPLY (and/or/xor) and ITE share the op cache; each is
   written so the cached path touches only int arrays.  The [_rec]
   variants are the internal recursions: they never trigger a reorder,
   so traversals that destructure nodes across calls (quantify,
   compose, permute, ...) stay coherent.  Public wrappers below probe
   the reorder trigger once at entry. *)

let rec not_rec m t =
  if t < 2 then t lxor 1
  else begin
    let h = mix op_not t 0 in
    let idx = (h land m.cmask) * 4 in
    let c = m.cache in
    let k1 = (t lsl 3) lor op_not in
    if c.(idx) = k1 then begin
      m.hits.(op_not) <- m.hits.(op_not) + 1;
      c.(idx + 3)
    end
    else begin
      m.misses.(op_not) <- m.misses.(op_not) + 1;
      Guard.tick m.guard;
      let r =
        mk m m.var_of.(t) (not_rec m m.low_of.(t)) (not_rec m m.high_of.(t))
      in
      let idx = (h land m.cmask) * 4 in
      let c = m.cache in
      c.(idx) <- k1;
      c.(idx + 3) <- r;
      r
    end
  end

(* [a] and [b] are internal and a < b (callers normalise). *)
let rec apply_slow m op a b =
  let h = mix op a b in
  let idx = (h land m.cmask) * 4 in
  let c = m.cache in
  let k1 = (a lsl 3) lor op in
  if c.(idx) = k1 && c.(idx + 1) = b then begin
    m.hits.(op) <- m.hits.(op) + 1;
    c.(idx + 3)
  end
  else begin
    m.misses.(op) <- m.misses.(op) + 1;
    Guard.tick m.guard;
    let r = apply_node m op a b in
    (* re-read the cache: [apply_node] may have doubled it (a unique
       table doubling inside [mk]), which moves this entry's slot *)
    let idx = (h land m.cmask) * 4 in
    let c = m.cache in
    c.(idx) <- k1;
    c.(idx + 1) <- b;
    c.(idx + 3) <- r;
    r
  end

and apply_node m op a b =
  let la = m.level_of.(m.var_of.(a)) and lb = m.level_of.(m.var_of.(b)) in
  let v = if la <= lb then m.var_of.(a) else m.var_of.(b) in
  let a0 = if la <= lb then m.low_of.(a) else a in
  let a1 = if la <= lb then m.high_of.(a) else a in
  let b0 = if lb <= la then m.low_of.(b) else b in
  let b1 = if lb <= la then m.high_of.(b) else b in
  let r0 = apply_rec m op a0 b0 in
  let r1 = apply_rec m op a1 b1 in
  mk m v r0 r1

and apply_rec m op a b =
  if op = op_and then
    if a = 0 || b = 0 then 0
    else if a = 1 then b
    else if b = 1 then a
    else if a = b then a
    else if a < b then apply_slow m op_and a b
    else apply_slow m op_and b a
  else if op = op_or then
    if a = 1 || b = 1 then 1
    else if a = 0 then b
    else if b = 0 then a
    else if a = b then a
    else if a < b then apply_slow m op_or a b
    else apply_slow m op_or b a
  else if a = b then 0
  else if a = 0 then b
  else if b = 0 then a
  else if a = 1 then not_rec m b
  else if b = 1 then not_rec m a
  else if a < b then apply_slow m op_xor a b
  else apply_slow m op_xor b a

let rec ite_rec m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else if g = 0 && h = 1 then not_rec m f
  else begin
    let hash = mix f g h in
    let idx = (hash land m.cmask) * 4 in
    let c = m.cache in
    let k1 = (f lsl 3) lor op_ite in
    if c.(idx) = k1 && c.(idx + 1) = g && c.(idx + 2) = h then begin
      m.hits.(op_ite) <- m.hits.(op_ite) + 1;
      c.(idx + 3)
    end
    else begin
      m.misses.(op_ite) <- m.misses.(op_ite) + 1;
      Guard.tick m.guard;
      let r = ite_node m f g h in
      let idx = (hash land m.cmask) * 4 in
      let c = m.cache in
      c.(idx) <- k1;
      c.(idx + 1) <- g;
      c.(idx + 2) <- h;
      c.(idx + 3) <- r;
      r
    end
  end

and ite_node m f g h =
  (* f is internal here; g and h may be terminals *)
  let lf = m.level_of.(m.var_of.(f)) in
  let lg = lvl m g and lh = lvl m h in
  let l = if lf < lg then if lf < lh then lf else lh
          else if lg < lh then lg else lh in
  let v = m.var_at.(l) in
  let f0 = if lf = l then m.low_of.(f) else f in
  let f1 = if lf = l then m.high_of.(f) else f in
  let g0 = if lg = l then m.low_of.(g) else g in
  let g1 = if lg = l then m.high_of.(g) else g in
  let h0 = if lh = l then m.low_of.(h) else h in
  let h1 = if lh = l then m.high_of.(h) else h in
  let r0 = ite_rec m f0 g0 h0 in
  let r1 = ite_rec m f1 g1 h1 in
  mk m v r0 r1

(* --- garbage collection --------------------------------------------------- *)

(* Mark from [roots], thread every unmarked slot onto the free list
   (ascending, so reuse refills the bottom of the store first), rebuild
   the unique table from the survivors at its current size, and clear
   the op cache: its entries may name reclaimed ids.  Survivors keep
   their ids.  Marking recurses once per level, so its depth is bounded
   by the variable count. *)
let collect m roots =
  let n = m.n_nodes in
  let mark = Bytes.make n '\000' in
  let rec visit t =
    if t >= 2 && Bytes.unsafe_get mark t = '\000' then begin
      if m.var_of.(t) = free_var then invalid_arg "Bdd.collect: dead root";
      Bytes.unsafe_set mark t '\001';
      visit m.low_of.(t);
      visit m.high_of.(t)
    end
  in
  List.iter visit roots;
  Array.fill m.table 0 (Array.length m.table) 0;
  m.u_entries <- 0;
  m.u_used <- 0;
  m.free <- -1;
  m.n_free <- 0;
  for id = n - 1 downto 2 do
    if Bytes.unsafe_get mark id = '\000' then begin
      m.var_of.(id) <- free_var;
      m.low_of.(id) <- m.free;
      m.high_of.(id) <- -1;
      m.free <- id;
      m.n_free <- m.n_free + 1
    end
    else insert_key m id
  done;
  Array.fill m.cache 0 (Array.length m.cache) (-1);
  m.live_after_gc <- in_use m;
  m.collections <- m.collections + 1

(* The rule a safe point applies: the store holds more than 2^16
   nodes and has doubled since the last collection.  A collection
   costs time linear in the store; waiting for it to double keeps that
   cost within a constant factor of the allocations made in between. *)
let collect_due m =
  let used = in_use m in
  used > 1 lsl 16 && used > 2 * m.live_after_gc

(* --- frozen functions ----------------------------------------------------- *)

(* The nodes under some roots, children first, as (var, low, high)
   triples in one int array.  A child is named by position: 0 and 1
   are the terminals, [i + 2] is the [i]-th triple.  Thawing re-[mk]s
   the triples in that order, so every child exists before its parent
   and hash-consing hands back a node the manager already holds.  A
   triple is an ordered node only under the order it was written in,
   so both ends insist on the identity order. *)
type frozen = { triples : int array; froots : int array }

let check_identity fn m =
  for l = 0 to m.n_vars - 1 do
    if m.var_at.(l) <> l then
      invalid_arg (fn ^ ": variable order is not the identity")
  done

let freeze m roots =
  check_identity "Bdd.freeze" m;
  let pos = Array.make m.n_nodes (-1) in
  let buf = ref (Array.make 48 0) in
  let n = ref 0 in
  (* the depth is bounded by the variable count, as in [collect] *)
  let rec visit t =
    if t < 2 then t
    else if pos.(t) >= 0 then pos.(t) + 2
    else begin
      if m.var_of.(t) = free_var then invalid_arg "Bdd.freeze: dead root";
      let l = visit m.low_of.(t) in
      let h = visit m.high_of.(t) in
      if 3 * (!n + 1) > Array.length !buf then begin
        let b = Array.make (2 * Array.length !buf) 0 in
        Array.blit !buf 0 b 0 (3 * !n);
        buf := b
      end;
      !buf.(3 * !n) <- m.var_of.(t);
      !buf.((3 * !n) + 1) <- l;
      !buf.((3 * !n) + 2) <- h;
      pos.(t) <- !n;
      incr n;
      !n + 1
    end
  in
  let froots = Array.of_list (List.map visit roots) in
  { triples = Array.sub !buf 0 (3 * !n); froots }

let thaw m f =
  check_identity "Bdd.thaw" m;
  let n = Array.length f.triples / 3 in
  let id = Array.make (n + 2) 0 in
  id.(1) <- 1;
  for i = 0 to n - 1 do
    let v = f.triples.(3 * i) in
    if v >= m.n_vars then invalid_arg "Bdd.thaw: variable out of range";
    id.(i + 2) <- mk m v id.(f.triples.((3 * i) + 1)) id.(f.triples.((3 * i) + 2))
  done;
  List.map (fun r -> id.(r)) (Array.to_list f.froots)

(* --- dynamic reordering --------------------------------------------------- *)

(* Bookkeeping that lives for one reordering pass, indexed by slot and
   grown with the store.  [refs] is a node's parent count in the store
   plus its pins: a pinned node never drops to zero, an unpinned one is
   freed the moment its last parent lets go.  [next]/[prev] thread each
   variable's nodes into a doubly linked list headed at [head] (-1 ends
   a list), so a swap walks exactly the upper variable's nodes, and
   relabelling or freeing a node relinks it in O(1) without allocating.
   A slot is on at most one list, so no node is visited twice. *)
type pass = {
  mutable refs : int array;
  mutable next : int array;
  mutable prev : int array;
  head : int array;
}

let link p v id =
  let h = p.head.(v) in
  p.next.(id) <- h;
  p.prev.(id) <- -1;
  if h >= 0 then p.prev.(h) <- id;
  p.head.(v) <- id

let unlink p v id =
  let n = p.next.(id) and pr = p.prev.(id) in
  if pr >= 0 then p.next.(pr) <- n else p.head.(v) <- n;
  if n >= 0 then p.prev.(n) <- pr

(* Count every node's parents and list it under its variable;
   [pin_all] also pins every node in the store. *)
let start_pass m ~pin_all =
  let cap = Array.length m.var_of in
  let p =
    {
      refs = Array.make cap 0;
      next = Array.make cap (-1);
      prev = Array.make cap (-1);
      head = Array.make m.n_vars (-1);
    }
  in
  for id = m.n_nodes - 1 downto 2 do
    let v = m.var_of.(id) in
    if v <> free_var then begin
      let l = m.low_of.(id) and h = m.high_of.(id) in
      p.refs.(l) <- p.refs.(l) + 1;
      p.refs.(h) <- p.refs.(h) + 1;
      if pin_all then p.refs.(id) <- p.refs.(id) + 1;
      link p v id
    end
  done;
  p

let fit p m =
  let cap = Array.length m.var_of in
  if Array.length p.refs < cap then begin
    let extend a =
      let a' = Array.make cap 0 in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    p.refs <- extend p.refs;
    p.next <- extend p.next;
    p.prev <- extend p.prev
  end

let acquire p id = p.refs.(id) <- p.refs.(id) + 1

(* Drop one reference.  A node left with none leaves the unique table,
   its variable's list and the store (onto the free list), and releases
   its children in turn (one level deeper per call, so the depth is
   bounded by the variable count).  No op-cache entry can name it: a
   pass frees only nodes it created itself, or — after the collection
   of a rooted pass, which clears the cache — nodes the roots no longer
   reach. *)
let rec release m p id =
  if id >= 2 then begin
    let r = p.refs.(id) - 1 in
    p.refs.(id) <- r;
    if r = 0 then begin
      delete_key m id;
      unlink p m.var_of.(id) id;
      let l = m.low_of.(id) and h = m.high_of.(id) in
      m.var_of.(id) <- free_var;
      m.low_of.(id) <- m.free;
      m.high_of.(id) <- -1;
      m.free <- id;
      m.n_free <- m.n_free + 1;
      release m p l;
      release m p h
    end
  end

(* Swap the variables at adjacent levels [l] (upper, var u) and [l+1]
   (lower, var v), in place.  Only u-nodes with a v-child change: node
   (u, f0, f1) becomes (v, mk(u, f0|v=0, f1|v=0), mk(u, f0|v=1, f1|v=1))
   — same id, same denoted function.  Nobody else moves: u-nodes
   without a v-child just find themselves one level lower, v-nodes'
   parents (all at levels < l) and children (all at levels > l+1) are
   untouched.  Key collisions cannot happen: a rewritten key always has
   a u-labeled child (both [mk]s collapsing would mean f0 = f1), which
   no pre-existing v-node key can mention, and two rewritten nodes
   denote distinct functions.

   A rewritten node acquires its new children before it releases its
   old ones, so a v-node the swap orphans is freed at once (with
   whatever below it only that v-node held), and [mk] may hand its slot
   to a u-node made later in the same swap.  A node [mk] allocates is
   known by the allocation counter moving; it takes its references to
   its children and joins the head of u's list, ahead of the walk,
   which never needs to visit it (its children lie below v).  The walk
   saves each successor before it touches a node; the swap frees only
   nodes below u, so that successor stays on the list.
   The whole swap runs with whatever guard is installed; sifting
   installs [Guard.none] and probes the real guard between swaps, so a
   swap is atomic and a trip always lands on a consistent order. *)
let swap_core m p l =
  let u = m.var_at.(l) and v = m.var_at.(l + 1) in
  let child lo hi =
    let a = m.allocs in
    let c = mk m u lo hi in
    if m.allocs > a then begin
      fit p m;
      acquire p lo;
      acquire p hi;
      link p u c
    end;
    acquire p c;
    c
  in
  let cur = ref p.head.(u) in
  while !cur >= 0 do
    let id = !cur in
    cur := p.next.(id);
    let f0 = m.low_of.(id) and f1 = m.high_of.(id) in
    let v0 = f0 >= 2 && m.var_of.(f0) = v in
    let v1 = f1 >= 2 && m.var_of.(f1) = v in
    if v0 || v1 then begin
      delete_key m id;
      let f00 = if v0 then m.low_of.(f0) else f0 in
      let f01 = if v0 then m.high_of.(f0) else f0 in
      let f10 = if v1 then m.low_of.(f1) else f1 in
      let f11 = if v1 then m.high_of.(f1) else f1 in
      let c0 = child f00 f10 in
      let c1 = child f01 f11 in
      unlink p u id;
      m.var_of.(id) <- v;
      m.low_of.(id) <- c0;
      m.high_of.(id) <- c1;
      insert_key m id;
      link p v id;
      release m p f0;
      release m p f1
    end
  done;
  m.var_at.(l) <- v;
  m.var_at.(l + 1) <- u;
  m.level_of.(u) <- l + 1;
  m.level_of.(v) <- l;
  m.swaps <- m.swaps + 1

let swap_adjacent m l =
  if l < 0 || l >= m.n_vars - 1 then invalid_arg "Bdd.swap_adjacent: level";
  let saved = m.guard in
  m.guard <- Guard.none;
  Fun.protect
    ~finally:(fun () -> m.guard <- saved)
    (fun () -> swap_core m (start_pass m ~pin_all:true) l)

(* One Rudell pass: visit variables in decreasing node-count order;
   walk each to the bottom then the top by adjacent swaps, tracking the
   unique table's key count, and park it at the smallest position seen
   — a strictly smaller one, so a tie never moves a variable.  A walk
   direction aborts once the table grows past 1.2× the best size seen
   for this variable (the standard max-growth cutoff).

   The pass's reference counts free what its swaps orphan, so the key
   count is the live size of the pinned nodes, and it depends on the
   order alone: parking lands exactly on the best size seen.  With
   [roots], the store is collected down to them and only they are
   pinned, so the pass minimises the size of the caller's functions.
   Without, every node in the store is pinned — the automatic trigger
   inside an operation cannot see the caller's handles — and the pass
   never ends with more nodes in use than it started with.

   The caller's guard is probed between swaps, and the nodes a swap
   allocates are charged to its transition budget (the same
   allocation-proportional rule the symbolic build uses), so a
   states/transitions-only guard bounds reordering work too — without
   the charge, sifting a large store under a small budget could stall
   indefinitely, since [Guard.tick] alone only watches the deadline.
   A trip re-raises with the order consistent, which is what lets a
   sift inside a guarded symbolic build degrade to a
   truncated-but-sound graph instead of corrupting the manager. *)
exception Abort_direction

let sift ?roots m =
  if m.in_reorder || m.n_vars < 2 then ()
  else begin
    Option.iter (collect m) roots;
    let p = start_pass m ~pin_all:(roots = None) in
    Option.iter (List.iter (acquire p)) roots;
    m.in_reorder <- true;
    let saved = m.guard in
    m.guard <- Guard.none;
    let t0 = Sys.time () in
    Fun.protect
      ~finally:(fun () ->
        m.guard <- saved;
        m.in_reorder <- false;
        m.reorder_time <- m.reorder_time +. (Sys.time () -. t0))
      (fun () ->
        let count = Array.make m.n_vars 0 in
        for id = 2 to m.n_nodes - 1 do
          let v = m.var_of.(id) in
          if v <> free_var then count.(v) <- count.(v) + 1
        done;
        let charged = ref m.allocs in
        let probe () =
          if m.allocs > !charged then begin
            let d = m.allocs - !charged in
            charged := m.allocs;
            Guard.spend_transitions saved d
          end;
          Guard.tick saved
        in
        let vars =
          List.sort
            (fun a b ->
              if count.(a) <> count.(b) then Stdlib.compare count.(b) count.(a)
              else Stdlib.compare a b)
            (List.init m.n_vars Fun.id)
        in
        List.iter
          (fun v ->
            probe ();
            let best = ref m.u_entries in
            let best_l = ref m.level_of.(v) in
            let walk step stop =
              try
                while m.level_of.(v) <> stop do
                  probe ();
                  let l = m.level_of.(v) in
                  swap_core m p (if step > 0 then l else l - 1);
                  let s = m.u_entries in
                  if s < !best then begin
                    best := s;
                    best_l := m.level_of.(v)
                  end
                  else if s * 5 > !best * 6 then raise Abort_direction
                done
              with Abort_direction -> ()
            in
            walk 1 (m.n_vars - 1);
            walk (-1) 0;
            (* park at the best level seen *)
            while m.level_of.(v) < !best_l do
              swap_core m p m.level_of.(v)
            done;
            while m.level_of.(v) > !best_l do
              swap_core m p (m.level_of.(v) - 1)
            done)
          vars;
        m.reorders <- m.reorders + 1;
        m.reorder_trigger <- max m.reorder_trigger (2 * in_use m))
  end

let set_reorder m mode = m.reorder <- mode
let reorder_mode m = m.reorder
let disable_reorder m = m.reorder <- Reorder_none

let maybe_reorder m =
  if
    m.reorder == Reorder_sift && (not m.in_reorder)
    && in_use m >= m.reorder_trigger
  then sift m

(* public operation entry points *)

let not_ m t =
  maybe_reorder m;
  not_rec m t

let apply m op a b =
  maybe_reorder m;
  apply_rec m op a b

let and_ m a b = apply m op_and a b
let or_ m a b = apply m op_or a b
let xor_ m a b = apply m op_xor a b
let imp m a b = or_ m (not_rec m a) b
let iff m a b = not_rec m (xor_ m a b)
let diff m a b = and_ m a (not_rec m b)

let ite m f g h =
  maybe_reorder m;
  ite_rec m f g h

let and_list m ts = List.fold_left (and_ m) 1 ts
let or_list m ts = List.fold_left (or_ m) 0 ts

(* [(a ∧ b)(¬v)]: the conjunction with the cofactors by [v] exchanged,
   in one recursion that never materialises [a ∧ b] — the image of a
   one-variable toggle restricted to a guard, so the partitioned
   transition relation needs neither a frame conjunct, a relational
   product nor the throwaway conjunction [t ∧ excited_g].  Above [v]
   the two operands split in lockstep, as in AND; at [v] the
   cofactor conjunctions are swapped; below [v] nothing flips and the
   result is the plain conjunction.  [b = 1] is the one-operand flip,
   linear in [a] and an involution.  Cache entries are [(a, b, v)]
   with [a < b] unless [b = 1]. *)
let rec flip_rec m v a b =
  if a = 0 || b = 0 then 0
  else if a = 1 && b = 1 then 1
  else if a = 1 then flip_norm m v b 1
  else if b = 1 || a = b then flip_norm m v a 1
  else if a < b then flip_norm m v a b
  else flip_norm m v b a

(* [a] is internal; [b] is internal (and > a) or the terminal 1. *)
and flip_norm m v a b =
  let la = m.level_of.(m.var_of.(a)) and lb = lvl m b in
  let l = if la <= lb then la else lb in
  if l > m.level_of.(v) then apply_rec m op_and a b
  else begin
    let k1 = (a lsl 3) lor op_flip in
    let h = mix k1 b v in
    let idx = (h land m.cmask) * 4 in
    let c = m.cache in
    if c.(idx) = k1 && c.(idx + 1) = b && c.(idx + 2) = v then begin
      m.hits.(op_flip) <- m.hits.(op_flip) + 1;
      c.(idx + 3)
    end
    else begin
      m.misses.(op_flip) <- m.misses.(op_flip) + 1;
      Guard.tick m.guard;
      let r = flip_node m v a b la lb l in
      let idx = (h land m.cmask) * 4 in
      let c = m.cache in
      c.(idx) <- k1;
      c.(idx + 1) <- b;
      c.(idx + 2) <- v;
      c.(idx + 3) <- r;
      r
    end
  end

and flip_node m v a b la lb l =
  let w = m.var_at.(l) in
  let a0 = if la = l then m.low_of.(a) else a in
  let a1 = if la = l then m.high_of.(a) else a in
  let b0 = if lb = l then m.low_of.(b) else b in
  let b1 = if lb = l then m.high_of.(b) else b in
  if w = v then mk m v (apply_rec m op_and a1 b1) (apply_rec m op_and a0 b0)
  else mk m w (flip_rec m v a0 b0) (flip_rec m v a1 b1)

let flip_var m ~var a b =
  if var < 0 || var >= m.n_vars then invalid_arg "Bdd.flip_var: bad variable";
  maybe_reorder m;
  flip_rec m var a b

let cofactor m t ~var ~value =
  maybe_reorder m;
  let vl = m.level_of.(var) in
  let cache = Hashtbl.create 64 in
  let rec go t =
    if t < 2 then t
    else if m.level_of.(m.var_of.(t)) > vl then t
    else
      match Hashtbl.find_opt cache t with
      | Some r -> r
      | None ->
        let r =
          if m.var_of.(t) = var then
            if value then m.high_of.(t) else m.low_of.(t)
          else mk m m.var_of.(t) (go m.low_of.(t)) (go m.high_of.(t))
        in
        Hashtbl.replace cache t r;
        r
  in
  go t

let compose m f ~var g =
  maybe_reorder m;
  let vl = m.level_of.(var) in
  let cache = Hashtbl.create 64 in
  let rec go f =
    if f < 2 then f
    else if m.level_of.(m.var_of.(f)) > vl then f
    else
      match Hashtbl.find_opt cache f with
      | Some r -> r
      | None ->
        let r =
          if m.var_of.(f) = var then ite_rec m g m.high_of.(f) m.low_of.(f)
          else
            (* Rebuild through ITE: children may now start above this
               variable after substitution deeper down. *)
            ite_rec m
              (mk m m.var_of.(f) 0 1)
              (go m.high_of.(f))
              (go m.low_of.(f))
        in
        Hashtbl.replace cache f r;
        r
  in
  go f

let rec check_vars m = function
  | [] -> ()
  | v :: vars ->
    if v < 0 || v >= m.n_vars then invalid_arg "Bdd.quantify: bad var";
    check_vars m vars

(* A terminal returns before the variable set and the memo table are
   allocated: the symbolic build quantifies an empty set on most of its
   steps. *)
let quantify m ~vars ~disjunct t =
  if vars <> [] then begin
    maybe_reorder m;
    check_vars m vars
  end;
  if vars = [] || t < 2 then t
  else begin
    let in_set = Array.make m.n_vars false in
    let max_lvl = ref 0 in
    List.iter
      (fun v ->
        in_set.(v) <- true;
        if m.level_of.(v) > !max_lvl then max_lvl := m.level_of.(v))
      vars;
    let max_lvl = !max_lvl in
    let cache = Hashtbl.create 256 in
    let rec go t =
      if t < 2 then t
      else if m.level_of.(m.var_of.(t)) > max_lvl then t
      else
        match Hashtbl.find_opt cache t with
        | Some r -> r
        | None ->
          let v = m.var_of.(t) in
          let l = go m.low_of.(t) and h = go m.high_of.(t) in
          let r =
            if in_set.(v) then
              if disjunct then apply_rec m op_or l h
              else apply_rec m op_and l h
            else mk m v l h
          in
          Hashtbl.replace cache t r;
          r
    in
    go t
  end

let exists m ~vars t = quantify m ~vars ~disjunct:true t
let forall m ~vars t = quantify m ~vars ~disjunct:false t

let and_exists m ~vars a b =
  if vars = [] then and_ m a b
  else begin
    maybe_reorder m;
    let in_set = Array.make m.n_vars false in
    let max_lvl = ref 0 in
    List.iter
      (fun v ->
        if v < 0 || v >= m.n_vars then invalid_arg "Bdd.and_exists: bad var";
        in_set.(v) <- true;
        if m.level_of.(v) > !max_lvl then max_lvl := m.level_of.(v))
      vars;
    let max_lvl = !max_lvl in
    (* per-call memo keyed by the packed pair — node ids stay far below
       2^31, so the pack is injective *)
    let cache = Hashtbl.create 1024 in
    let rec go a b =
      if a = 0 || b = 0 then 0
      else if a = 1 && b = 1 then 1
      else
        let a, b = if a <= b then (a, b) else (b, a) in
        let key = (a lsl 31) lor b in
        match Hashtbl.find_opt cache key with
        | Some r -> r
        | None ->
          let la = lvl m a and lb = lvl m b in
          let l = min la lb in
          let r =
            if l > max_lvl then
              (* No quantified variable below: plain conjunction. *)
              apply_rec m op_and a b
            else begin
              let v = m.var_at.(l) in
              let a0, a1 =
                if la = l then (m.low_of.(a), m.high_of.(a)) else (a, a)
              and b0, b1 =
                if lb = l then (m.low_of.(b), m.high_of.(b)) else (b, b)
              in
              if in_set.(v) then begin
                let r0 = go a0 b0 in
                if r0 = 1 then 1 else apply_rec m op_or r0 (go a1 b1)
              end
              else mk m v (go a0 b0) (go a1 b1)
            end
          in
          Hashtbl.replace cache key r;
          r
    in
    go a b
  end

let permute m p t =
  maybe_reorder m;
  let cache = Hashtbl.create 256 in
  let rec go t =
    if t < 2 then t
    else
      match Hashtbl.find_opt cache t with
      | Some r -> r
      | None ->
        let v' = p m.var_of.(t) in
        if v' < 0 || v' >= m.n_vars then invalid_arg "Bdd.permute: bad image";
        let r = ite_rec m (mk m v' 0 1) (go m.high_of.(t)) (go m.low_of.(t)) in
        Hashtbl.replace cache t r;
        r
  in
  go t

let support m t =
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go t =
    if t >= 2 && not (Hashtbl.mem seen t) then begin
      Hashtbl.replace seen t ();
      Hashtbl.replace vars m.var_of.(t) ();
      go m.low_of.(t);
      go m.high_of.(t)
    end
  in
  go t;
  Hashtbl.fold (fun v () acc -> v :: acc) vars [] |> List.sort Stdlib.compare

let eval m t assign =
  let rec go t =
    if t = 0 then false
    else if t = 1 then true
    else if assign m.var_of.(t) then go m.high_of.(t)
    else go m.low_of.(t)
  in
  go t

(* --- exact satisfying-assignment counting -------------------------------- *)

(* Minimal unsigned bignum (little-endian base-2^30 limb arrays, [||]
   is zero): sat counting only ever adds and multiplies by powers of
   two, so this stays tiny and dependency-free while being exact far
   beyond the 2^53 float-mantissa cliff. *)
module Big = struct
  let limb_bits = 30
  let limb_mask = (1 lsl limb_bits) - 1

  let zero = [||]

  let trim r =
    let len = ref (Array.length r) in
    while !len > 0 && r.(!len - 1) = 0 do
      decr len
    done;
    if !len = Array.length r then r else Array.sub r 0 !len

  let of_pow2 k =
    let a = Array.make ((k / limb_bits) + 1) 0 in
    a.(k / limb_bits) <- 1 lsl (k mod limb_bits);
    a

  let add a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 then a
    else begin
      let l = max la lb in
      let r = Array.make (l + 1) 0 in
      let carry = ref 0 in
      for i = 0 to l - 1 do
        let s =
          (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
        in
        r.(i) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      r.(l) <- !carry;
      trim r
    end

  let shl a k =
    if Array.length a = 0 then a
    else if k = 0 then a
    else begin
      let q = k / limb_bits and s = k mod limb_bits in
      let la = Array.length a in
      let r = Array.make (la + q + 1) 0 in
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl s) lor !carry in
        r.(i + q) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      r.(la + q) <- !carry;
      trim r
    end

  let to_float a =
    let r = ref 0.0 in
    for i = Array.length a - 1 downto 0 do
      r := (!r *. 1073741824.0) +. float_of_int a.(i)
    done;
    !r

  let bits a =
    let l = Array.length a in
    if l = 0 then 0
    else begin
      let top = a.(l - 1) in
      let b = ref 0 in
      while top lsr !b > 0 do
        incr b
      done;
      ((l - 1) * limb_bits) + !b
    end

  let to_int_opt a =
    if bits a > 62 then None
    else begin
      let v = ref 0 in
      for i = Array.length a - 1 downto 0 do
        v := (!v lsl limb_bits) lor a.(i)
      done;
      Some !v
    end
end

(* Exact count over variables [0..nvars-1]: every internal variable of
   [t] must be < nvars (same contract as before).  Positions come from
   the current order, so the count is order-independent. *)
let sat_count_big m ~nvars t =
  let level u = if u < 2 then nvars else m.level_of.(m.var_of.(u)) in
  let cache = Hashtbl.create 256 in
  (* f u = exact count over order positions [level u .. nvars-1] *)
  let rec f u =
    if u = 0 then Big.zero
    else if u = 1 then Big.of_pow2 0
    else
      match Hashtbl.find_opt cache u with
      | Some r -> r
      | None ->
        let lu = level u in
        let l = m.low_of.(u) and h = m.high_of.(u) in
        let r =
          Big.add
            (Big.shl (f l) (level l - lu - 1))
            (Big.shl (f h) (level h - lu - 1))
        in
        Hashtbl.replace cache u r;
        r
  in
  Big.shl (f t) (level t)

let sat_count m ~nvars t = Big.to_float (sat_count_big m ~nvars t)
let sat_count_int m ~nvars t = Big.to_int_opt (sat_count_big m ~nvars t)

let any_sat m t =
  if t = 0 then raise Not_found;
  let rec go t acc =
    if t = 1 then List.rev acc
    else
      let v = m.var_of.(t) in
      if m.low_of.(t) <> 0 then go m.low_of.(t) ((v, false) :: acc)
      else go m.high_of.(t) ((v, true) :: acc)
  in
  go t []

let fold_sat m t ~init ~f =
  let rec go t acc path =
    if t = 0 then acc
    else if t = 1 then f acc (List.rev path)
    else
      let v = m.var_of.(t) in
      let acc = go m.low_of.(t) acc ((v, false) :: path) in
      go m.high_of.(t) acc ((v, true) :: path)
  in
  go t init []

let all_sat m t =
  List.rev (fold_sat m t ~init:[] ~f:(fun acc cube -> cube :: acc))

let size m t =
  let seen = Hashtbl.create 64 in
  let rec go t acc =
    if t < 2 || Hashtbl.mem seen t then acc
    else begin
      Hashtbl.replace seen t ();
      go m.low_of.(t) (go m.high_of.(t) (acc + 1))
    end
  in
  go t 0

let node_count m = m.allocs

let clear_caches m = Array.fill m.cache 0 (Array.length m.cache) (-1)

type stats = {
  live_nodes : int;
  peak_nodes : int;
  n_vars : int;
  unique_buckets : int;
  unique_buckets_init : int;
  unique_load : float;
  cache_slots : int;
  reorders : int;
  swaps : int;
  reorder_seconds : float;
  collections : int;
  and_hits : int;
  and_misses : int;
  or_hits : int;
  or_misses : int;
  xor_hits : int;
  xor_misses : int;
  not_hits : int;
  not_misses : int;
  ite_hits : int;
  ite_misses : int;
  flip_hits : int;
  flip_misses : int;
}

let stats (m : man) =
  {
    (* every node in use has a unique-table key *)
    live_nodes = m.u_entries + 2;
    peak_nodes = m.n_nodes;
    n_vars = m.n_vars;
    unique_buckets = m.umask + 1;
    unique_buckets_init = m.unique_init;
    unique_load = float_of_int m.u_entries /. float_of_int (m.umask + 1);
    cache_slots = m.cmask + 1;
    reorders = m.reorders;
    swaps = m.swaps;
    reorder_seconds = m.reorder_time;
    collections = m.collections;
    and_hits = m.hits.(op_and);
    and_misses = m.misses.(op_and);
    or_hits = m.hits.(op_or);
    or_misses = m.misses.(op_or);
    xor_hits = m.hits.(op_xor);
    xor_misses = m.misses.(op_xor);
    not_hits = m.hits.(op_not);
    not_misses = m.misses.(op_not);
    ite_hits = m.hits.(op_ite);
    ite_misses = m.misses.(op_ite);
    flip_hits = m.hits.(op_flip);
    flip_misses = m.misses.(op_flip);
  }

let apply_ops s =
  s.and_hits + s.and_misses + s.or_hits + s.or_misses + s.xor_hits
  + s.xor_misses + s.not_hits + s.not_misses + s.ite_hits + s.ite_misses
  + s.flip_hits + s.flip_misses

let cache_hit_rate s =
  let hits =
    s.and_hits + s.or_hits + s.xor_hits + s.not_hits + s.ite_hits
    + s.flip_hits
  in
  let total = apply_ops s in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>bdd: %d nodes (peak %d), %d vars, %d collections@,\
     unique table: %d buckets (init %d), load %.3f@,\
     op cache: %d slots, hit rate %.3f@,\
     reorder: %d passes, %d swaps, %.3f s@,\
     and %d/%d  or %d/%d  xor %d/%d  not %d/%d  ite %d/%d  flip %d/%d \
     (hits/misses)@]"
    s.live_nodes s.peak_nodes s.n_vars s.collections s.unique_buckets
    s.unique_buckets_init
    s.unique_load s.cache_slots (cache_hit_rate s)
    s.reorders s.swaps s.reorder_seconds s.and_hits s.and_misses s.or_hits
    s.or_misses s.xor_hits s.xor_misses s.not_hits s.not_misses s.ite_hits
    s.ite_misses s.flip_hits s.flip_misses

let pp m fmt t =
  let rec go fmt t =
    if t = 0 then Format.pp_print_string fmt "F"
    else if t = 1 then Format.pp_print_string fmt "T"
    else
      Format.fprintf fmt "@[<hv 1>(x%d?%a:%a)@]" (var_id m t) go
        m.high_of.(t) go m.low_of.(t)
  in
  go fmt t
