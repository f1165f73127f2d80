open Satg_logic
open Satg_circuit

let covers_with sg select =
  let t = sg.Stg.stg in
  let n_sig = Array.length t.Stg.signals in
  let tables = Stg.next_state_tables sg in
  List.filteri (fun s _ -> not (Stg.is_input t s)) (Array.to_list t.Stg.signals)
  |> List.mapi (fun i nm ->
         let on, off = tables.(t.Stg.n_inputs + i) in
         (nm, select ~n:n_sig ~on ~off))

let next_state_covers sg = covers_with sg Qm.minimize

(* Maximally-redundant cover: every prime implicant that covers at least
   one on-set minterm.  This is the classic fully-hazard-free two-level
   cover; its redundant cubes are what make some of the Table 2 circuits
   poorly testable. *)
let all_primes_cover ~n ~on ~off =
  if on = [] then Cover.empty n else Cover.make ~n (Qm.primes ~n ~on ~off)

let prime_covers sg = covers_with sg all_primes_cover

(* A two-level cover can glitch on a single-input change only when two
   of its cubes oppose in some literal (one requires a signal high, the
   other low).  These are the functions SIS's hazard-free synthesis has
   to patch with redundant cubes. *)
let has_opposing_pair cover =
  let cubes = Array.of_list (Cover.cubes cover) in
  let opposing c1 c2 =
    let l1 = Cube.lits c1 and l2 = Cube.lits c2 in
    let rec scan i =
      i < Array.length l1
      && ((match (l1.(i), l2.(i)) with
          | Cube.T, Cube.F | Cube.F, Cube.T -> true
          | _ -> false)
         || scan (i + 1))
    in
    scan 0
  in
  let n = Array.length cubes in
  let rec pairs i j =
    if i >= n then false
    else if j >= n then pairs (i + 1) (i + 2)
    else opposing cubes.(i) cubes.(j) || pairs i (j + 1)
  in
  pairs 0 1

(* Hazard-driven redundancy (the Table 2 style): hazard-prone functions
   get their full prime cover, unate-ish ones keep the minimum. *)
let hazard_free_covers sg =
  covers_with sg (fun ~n ~on ~off ->
      let minimal = Qm.minimize ~n ~on ~off in
      if has_opposing_pair minimal then all_primes_cover ~n ~on ~off
      else minimal)

(* Columns actually referenced by a cover, ascending. *)
let support cover =
  let n = Cover.n_vars cover in
  let used = Array.make n false in
  List.iter
    (fun cube ->
      Array.iteri (fun i l -> if l <> Cube.D then used.(i) <- true) (Cube.lits cube))
    (Cover.cubes cover);
  List.filter (fun i -> used.(i)) (List.init n Fun.id)

(* Re-express a cover over only its support columns. *)
let shrink cover cols =
  let cols = Array.of_list cols in
  let n' = Array.length cols in
  Cover.make ~n:n'
    (List.map
       (fun cube ->
         let lits = Cube.lits cube in
         Cube.make (Array.map (fun c -> lits.(c)) cols))
       (Cover.cubes cover))

let prepare stg =
  let n_sig = Array.length stg.Stg.signals in
  let fail m = Error (Printf.sprintf "%s: %s" stg.Stg.name m) in
  if n_sig > Qm.max_vars then
    fail
      (Printf.sprintf "%d signals, more than the %d a code holds" n_sig
         Qm.max_vars)
  else
    match Stg.explore stg with
    | Error m -> fail m
    | Ok sg -> (
      match Stg.check_csc sg with Error m -> fail m | Ok () -> Ok sg)

(* Shared scaffolding: builder with input buffers and declared output
   gates; returns the node id of every signal. *)
let scaffold stg b =
  let t = stg in
  let signal_node = Array.make (Array.length t.Stg.signals) (-1) in
  Array.iteri
    (fun s nm ->
      if Stg.is_input t s then
        signal_node.(s) <- Circuit.Builder.add_input b nm)
    t.Stg.signals;
  Array.iteri
    (fun s nm ->
      if not (Stg.is_input t s) then
        signal_node.(s) <- Circuit.Builder.declare_gate b ~name:nm)
    t.Stg.signals;
  signal_node

let initial_state_of circuit stg signal_node =
  (* Environment, buffers and signal gates carry the STG initial values;
     auxiliary gates (decomposition internals) are settled by sweeping
     evaluations to a fixpoint with the signal nodes held. *)
  let n = Circuit.n_nodes circuit in
  let st = Array.make n false in
  let held = Array.make n false in
  Array.iteri
    (fun s v ->
      let node = signal_node.(s) in
      st.(node) <- v;
      held.(node) <- true;
      if Stg.is_input stg s then begin
        (* set the env node feeding the buffer *)
        match Circuit.find_node circuit (Circuit.node_name circuit node ^ "$env") with
        | Some env ->
          st.(env) <- v;
          held.(env) <- true
        | None -> ()
      end)
    stg.Stg.init_values;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= Circuit.n_gates circuit + 1 do
    changed := false;
    incr rounds;
    Array.iter
      (fun gid ->
        if not held.(gid) then begin
          let v = Circuit.eval_gate circuit st gid in
          if v <> st.(gid) then begin
            st.(gid) <- v;
            changed := true
          end
        end)
      (Circuit.gates circuit)
  done;
  st

let finalize_with_initial b stg signal_node =
  match Circuit.Builder.finalize b with
  | exception Invalid_argument m -> Error m
  | circuit -> (
    let st = initial_state_of circuit stg signal_node in
    match Circuit.with_initial circuit st with
    | c -> Ok c
    | exception Invalid_argument m ->
      Error (Printf.sprintf "%s (initial marking excites an output?)" m))

(* --- complex-gate backend ------------------------------------------------ *)

let complex_gate stg =
  match prepare stg with
  | Error _ as e -> e
  | Ok sg ->
    let covers = next_state_covers sg in
    let b = Circuit.Builder.create stg.Stg.name in
    let signal_node = scaffold stg b in
    List.iter
      (fun (nm, cover) ->
        let s = Option.get (Stg.signal_index stg nm) in
        let gate = signal_node.(s) in
        if Cover.is_empty cover then
          Circuit.Builder.define_gate b gate (Gatefunc.Const false) []
        else
          let cols = support cover in
          if cols = [] then
            (* tautology: reachable codes make it constant 1 *)
            Circuit.Builder.define_gate b gate (Gatefunc.Const true) []
          else
            let small = shrink cover cols in
            let fanin = List.map (fun c -> signal_node.(c)) cols in
            Circuit.Builder.define_gate b gate (Gatefunc.Sop small) fanin)
      covers;
    Array.iteri
      (fun s nm ->
        ignore nm;
        if not (Stg.is_input stg s) then
          Circuit.Builder.mark_output b signal_node.(s))
      stg.Stg.signals;
    finalize_with_initial b stg signal_node

(* --- consensus (redundant covers) ---------------------------------------- *)

let consensus_of c1 c2 =
  let l1 = Cube.lits c1 and l2 = Cube.lits c2 in
  let n = Array.length l1 in
  let opposing = ref [] in
  for i = 0 to n - 1 do
    match (l1.(i), l2.(i)) with
    | Cube.T, Cube.F | Cube.F, Cube.T -> opposing := i :: !opposing
    | _ -> ()
  done;
  match !opposing with
  | [ v ] ->
    let merged =
      Array.init n (fun i ->
          if i = v then Cube.D
          else
            match (l1.(i), l2.(i)) with
            | Cube.D, l | l, Cube.D -> l
            | l, _ -> l)
    in
    (* The merge is only a consensus when the non-opposing literals are
       compatible, which the [opposing] scan guarantees. *)
    Some (Cube.make merged)
  | _ -> None

let add_consensus cover =
  let cubes = Cover.cubes cover in
  let extra = ref [] in
  let covered cube =
    List.exists (fun c -> Cube.covers c cube) cubes
    || List.exists (fun c -> Cube.covers c cube) !extra
  in
  List.iteri
    (fun i c1 ->
      List.iteri
        (fun j c2 ->
          if j > i then
            match consensus_of c1 c2 with
            | Some c when not (covered c) -> extra := c :: !extra
            | Some _ | None -> ())
        cubes)
    cubes;
  List.fold_left Cover.add_cube cover (List.rev !extra)

(* --- decomposed (SIS-like) backend ---------------------------------------- *)

let decomposed ?(redundant = false) stg =
  match prepare stg with
  | Error _ as e -> e
  | Ok sg ->
    let covers = if redundant then hazard_free_covers sg else next_state_covers sg in
    let b = Circuit.Builder.create (stg.Stg.name ^ if redundant then "_hf" else "_2l") in
    let signal_node = scaffold stg b in
    (* One shared inverter per negatively-referenced signal. *)
    let inverters = Hashtbl.create 16 in
    let inv s =
      match Hashtbl.find_opt inverters s with
      | Some id -> id
      | None ->
        let id =
          Circuit.Builder.add_gate b
            ~name:(Printf.sprintf "n_%s" stg.Stg.signals.(s))
            Gatefunc.Not
            [ signal_node.(s) ]
        in
        Hashtbl.replace inverters s id;
        id
    in
    List.iter
      (fun (nm, cover) ->
        let s = Option.get (Stg.signal_index stg nm) in
        let root = signal_node.(s) in
        if Cover.is_empty cover then
          Circuit.Builder.define_gate b root (Gatefunc.Const false) []
        else begin
          (* Terms: left-leaning chains of 2-input ANDs. *)
          let term_nodes =
            List.mapi
              (fun ti cube ->
                let lit_nodes =
                  List.concat
                    (List.mapi
                       (fun v l ->
                         match l with
                         | Cube.D -> []
                         | Cube.T -> [ signal_node.(v) ]
                         | Cube.F -> [ inv v ])
                       (Array.to_list (Cube.lits cube)))
                in
                match lit_nodes with
                | [] ->
                  (* universal cube: constant 1 term *)
                  [ Circuit.Builder.add_gate b
                      ~name:(Printf.sprintf "%s_t%d_one" nm ti)
                      (Gatefunc.Const true) [] ]
                  |> List.hd
                | [ single ] -> single
                | first :: rest ->
                  let _, final =
                    List.fold_left
                      (fun (j, acc) lit ->
                        ( j + 1,
                          Circuit.Builder.add_gate b
                            ~name:(Printf.sprintf "%s_t%d_a%d" nm ti j)
                            Gatefunc.And [ acc; lit ] ))
                      (0, first) rest
                  in
                  final)
              (Cover.cubes cover)
          in
          match term_nodes with
          | [] -> assert false
          | [ single ] ->
            Circuit.Builder.define_gate b root Gatefunc.Buf [ single ]
          | first :: second :: rest ->
            (* Chain all but the last OR into auxiliary gates; the final
               OR is the signal gate itself. *)
            let rec chain j acc = function
              | [] -> (acc, None)
              | [ last ] -> (acc, Some last)
              | x :: rest ->
                let g =
                  Circuit.Builder.add_gate b
                    ~name:(Printf.sprintf "%s_o%d" nm j)
                    Gatefunc.Or [ acc; x ]
                in
                chain (j + 1) g rest
            in
            let acc, last = chain 0 first (second :: rest) in
            (match last with
            | Some last -> Circuit.Builder.define_gate b root Gatefunc.Or [ acc; last ]
            | None -> assert false)
        end)
      covers;
    Array.iteri
      (fun s _nm ->
        if not (Stg.is_input stg s) then
          Circuit.Builder.mark_output b signal_node.(s))
      stg.Stg.signals;
    finalize_with_initial b stg signal_node
