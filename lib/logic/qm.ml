(* Implicants are (value, dash) pairs: [dash] bits are don't-care
   positions, [value] gives the fixed bits (0 on dashed positions).
   Variable 0 is the most significant bit, matching Cube.of_minterm. *)

let max_vars = 62

let popcount =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0

(* [f] on each set bit of [x], lowest first, as a one-bit mask. *)
let rec iter_bits f x =
  if x <> 0 then begin
    let b = x land -x in
    f b;
    iter_bits f (x lxor b)
  end

let cube_of_imp n (value, dash) =
  let bit_of i =
    let b = 1 lsl (n - 1 - i) in
    if dash land b <> 0 then Cube.D
    else if value land b <> 0 then Cube.T
    else Cube.F
  in
  Cube.make (Array.init n bit_of)

let imp_covers (value, dash) m = m land lnot dash = value

(* Every minimal set of positions meeting each mask of [sets] (the
   minimal hitting sets), each passed to [emit] once.  This is MMCS
   (Murakami and Uno, 2014): branch on the positions of the unmet mask
   with the fewest candidates, and cut a branch as soon as some chosen
   position is the sole hitter of no mask, since adding positions never
   makes it one again. *)
let minimal_hitting_sets sets emit =
  let each_critical hit =
    let critical = ref 0 in
    Array.iter
      (fun s ->
        let met = s land hit in
        if met land (met - 1) = 0 then critical := !critical lor met)
      sets;
    !critical = hit
  in
  let rec go hit cand =
    let pick = ref 0 and width = ref max_int in
    Array.iter
      (fun s ->
        if s land hit = 0 then begin
          let w = popcount (s land cand) in
          if w < !width then begin
            pick := s;
            width := w
          end
        end)
      sets;
    if !width = max_int then emit hit
    else begin
      let branch = !pick land cand in
      let cand = ref (cand land lnot branch) in
      iter_bits
        (fun e ->
          let hit = hit lor e in
          if each_critical hit then go hit !cand;
          cand := !cand lor e)
        branch
    end
  in
  go 0 (Array.fold_left ( lor ) 0 sets)

(* The primes through some on-minterm, deduplicated, in ascending
   (value, dash) order.  A cube through on-minterm [m] with fixed
   positions [p] is an implicant exactly when [p] meets [m lxor o] for
   every off-minterm [o], so the primes through [m] are the minimal such
   [p].  A position one flip away from an off-minterm ([forced]) is in
   every one of them, and the masks it meets need no search; of the
   rest, only the masks that contain no other matter.  When the cube
   that fixes just [forced] is a prime already found, it is the only
   prime through [m], and the scan of the off-set is skipped. *)
let primes_imp ~n ~on ~off =
  if n < 0 || n > max_vars then
    invalid_arg (Printf.sprintf "Qm: variable count out of [0, %d]" max_vars);
  let in_range m = m >= 0 && m lsr n = 0 in
  if not (List.for_all in_range on && List.for_all in_range off) then
    invalid_arg "Qm: minterm out of range";
  let is_off = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace is_off m ()) off;
  if List.exists (Hashtbl.mem is_off) on then
    invalid_arg "Qm: minterm in both the on-set and the off-set";
  let full = (1 lsl n) - 1 in
  (* Scanned in ascending order, which keeps the antichain of masks
     small: arbiter 10 synthesizes in 1.0 s this way, and in 2.7 s
     with the off-set in first-reached order. *)
  let off = Array.of_list (List.sort_uniq Int.compare off) in
  let found = Hashtbl.create 64 in
  let through m =
    let forced = ref 0 in
    for i = 0 to n - 1 do
      if Hashtbl.mem is_off (m lxor (1 lsl i)) then
        forced := !forced lor (1 lsl i)
    done;
    let forced = !forced in
    if not (Hashtbl.mem found (m land forced, full land lnot forced)) then begin
      let minimal = ref [] in
      let rec inside d = function
        | [] -> false
        | k :: rest -> k land d = k || inside d rest
      in
      Array.iter
        (fun o ->
          let d = m lxor o in
          if d land forced = 0 && not (inside d !minimal) then
            minimal := d :: List.filter (fun k -> k land d <> d) !minimal)
        off;
      minimal_hitting_sets (Array.of_list !minimal) (fun hit ->
          let fixed = forced lor hit in
          Hashtbl.replace found (m land fixed, full land lnot fixed) ())
    end
  in
  List.iter through (List.sort_uniq Int.compare on);
  Hashtbl.fold (fun p () acc -> p :: acc) found [] |> List.sort compare

let primes ~n ~on ~off = List.map (cube_of_imp n) (primes_imp ~n ~on ~off)

(* Cover selection: essential primes first, then repeatedly the prime
   covering the most still-uncovered on-set minterms (the first such
   prime in list order). *)
let select_cover prime_list on =
  let uncovered = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace uncovered m ()) on;
  let covering m = List.filter (fun p -> imp_covers p m) prime_list in
  let chosen = ref [] in
  let take p =
    chosen := p :: !chosen;
    Hashtbl.iter
      (fun m () -> if imp_covers p m then Hashtbl.remove uncovered m)
      (Hashtbl.copy uncovered)
  in
  (* Essentials. *)
  List.iter
    (fun m ->
      if Hashtbl.mem uncovered m then
        match covering m with
        | [ p ] -> take p
        | [] | _ :: _ :: _ -> ())
    on;
  (* Greedy remainder. *)
  let gain p =
    Hashtbl.fold
      (fun m () acc -> if imp_covers p m then acc + 1 else acc)
      uncovered 0
  in
  while Hashtbl.length uncovered > 0 do
    let best =
      List.fold_left
        (fun best p ->
          let g = gain p in
          match best with
          | None -> if g > 0 then Some (p, g) else None
          | Some (_, gb) -> if g > gb then Some (p, g) else best)
        None prime_list
    in
    match best with
    | Some (p, _) -> take p
    | None ->
      (* Unreachable: every on-set minterm is covered by some prime. *)
      assert false
  done;
  List.rev !chosen

let minimize ~n ~on ~off =
  let prime_list = primes_imp ~n ~on ~off in
  if on = [] then Cover.empty n
  else
    let selected = select_cover prime_list (List.sort_uniq Int.compare on) in
    Cover.make ~n (List.map (cube_of_imp n) selected)

let minimize_f ~n f =
  let on = ref [] and off = ref [] in
  for m = (1 lsl n) - 1 downto 0 do
    match f m with
    | Some true -> on := m :: !on
    | Some false -> off := m :: !off
    | None -> ()
  done;
  minimize ~n ~on:!on ~off:!off
