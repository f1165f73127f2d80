(* The reference Quine–McCluskey minimizer: every minterm of on ∪ dc
   starts as an implicant, and each round merges every pair that shares
   a dash mask and differs in one fixed bit, so it lists every
   don't-care and compares O(k^2) pairs a round.  Slow, and obviously
   the textbook procedure; [Satg_logic.Qm] grows primes from the on-set
   against the off-set instead, and must return the primes listed here
   that contain an on-minterm, in the same order, and the same cover. *)

open Satg_logic

module ImpSet = Set.Make (struct
  type t = int * int

  let compare = Stdlib.compare
end)

let imp_covers (value, dash) m = m land lnot dash = value

let cube_of_imp n (value, dash) =
  Cube.make
    (Array.init n (fun i ->
         let b = 1 lsl (n - 1 - i) in
         if dash land b <> 0 then Cube.D
         else if value land b <> 0 then Cube.T
         else Cube.F))

(* One round of pairwise merging: the merged set, and the implicants
   that took part in no merge (primes). *)
let merge_round imps =
  let merged = Hashtbl.create 64 in
  let used = Hashtbl.create 64 in
  let arr = Array.of_list (ImpSet.elements imps) in
  let k = Array.length arr in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let v1, d1 = arr.(i) and v2, d2 = arr.(j) in
      if d1 = d2 then begin
        let diff = v1 lxor v2 in
        if diff <> 0 && diff land (diff - 1) = 0 then begin
          Hashtbl.replace merged (v1 land lnot diff, d1 lor diff) ();
          Hashtbl.replace used arr.(i) ();
          Hashtbl.replace used arr.(j) ()
        end
      end
    done
  done;
  let next =
    Hashtbl.fold (fun imp () acc -> ImpSet.add imp acc) merged ImpSet.empty
  in
  (next, ImpSet.filter (fun imp -> not (Hashtbl.mem used imp)) imps)

(* Every prime of on ∪ dc, don't-care-only ones included, in ascending
   (value, dash) order. *)
let primes_imp ~on ~dc =
  let rec loop current primes =
    if ImpSet.is_empty current then primes
    else
      let next, stuck = merge_round current in
      loop next (ImpSet.union primes stuck)
  in
  loop
    (List.fold_left (fun acc m -> ImpSet.add (m, 0) acc) ImpSet.empty (on @ dc))
    ImpSet.empty
  |> ImpSet.elements

let primes ~n ~on ~dc = List.map (cube_of_imp n) (primes_imp ~on ~dc)

(* Essential primes, then repeatedly the first prime covering the most
   uncovered on-minterms. *)
let select_cover prime_list on =
  let uncovered = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace uncovered m ()) on;
  let chosen = ref [] in
  let take p =
    chosen := p :: !chosen;
    List.iter (fun m -> if imp_covers p m then Hashtbl.remove uncovered m) on
  in
  List.iter
    (fun m ->
      if Hashtbl.mem uncovered m then
        match List.filter (fun p -> imp_covers p m) prime_list with
        | [ p ] -> take p
        | [] | _ :: _ :: _ -> ())
    on;
  let gain p =
    Hashtbl.fold
      (fun m () acc -> if imp_covers p m then acc + 1 else acc)
      uncovered 0
  in
  while Hashtbl.length uncovered > 0 do
    let p, g =
      List.fold_left
        (fun (bp, bg) p ->
          let g = gain p in
          if g > bg then (p, g) else (bp, bg))
        ((0, 0), 0) prime_list
    in
    assert (g > 0);
    take p
  done;
  List.rev !chosen

let minimize ~n ~on ~dc =
  let on = List.sort_uniq compare on in
  if on = [] then Cover.empty n
  else
    Cover.make ~n
      (List.map (cube_of_imp n) (select_cover (primes_imp ~on ~dc) on))
