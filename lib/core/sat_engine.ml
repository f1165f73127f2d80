open Satg_guard
open Satg_sg
module Sat = Satg_sat.Sat
module Cnf = Satg_cnf.Cnf

(* The long-lived core: one solver holding the good-machine time-frame
   unrolling (shared by justification and every differentiation call),
   its edge vectors, BFS distances for the product-to-good frame
   offset, and the hash-consing table. *)
type core = {
  sat : Sat.t;
  good : Cnf.Unroller.t;
  gvec : bool array array;  (* good unroller edge id -> input vector *)
  gdist : int array;  (* state -> BFS distance from reset (-1 = unreachable) *)
  defs : Cnf.Defs.t;
}

type t = { g : Cssg.t; mutable core : core option }

let create g = { g; core = None }

let build_core g =
  let sat = Sat.create () in
  let unr = Cnf.Unroller.create sat in
  let n = Cssg.n_states g in
  let init_mask = Array.make (max 1 n) false in
  List.iter (fun i -> init_mask.(i) <- true) (Cssg.initial g);
  for i = 0 to n - 1 do
    ignore (Cnf.Unroller.add_state unr ~initial:init_mask.(i))
  done;
  let vecs = ref [] in
  for i = 0 to n - 1 do
    List.iter
      (fun e ->
        ignore (Cnf.Unroller.add_edge unr ~src:i ~dst:e.Cssg.target);
        vecs := e.Cssg.vector :: !vecs)
      (Cssg.successors g i)
  done;
  let gdist = Array.make (max 1 n) (-1) in
  let q = Queue.create () in
  List.iter
    (fun i ->
      if gdist.(i) < 0 then begin
        gdist.(i) <- 0;
        Queue.add i q
      end)
    (Cssg.initial g);
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    List.iter
      (fun e ->
        let j = e.Cssg.target in
        if gdist.(j) < 0 then begin
          gdist.(j) <- gdist.(i) + 1;
          Queue.add j q
        end)
      (Cssg.successors g i)
  done;
  {
    sat;
    good = unr;
    gvec = Array.of_list (List.rev !vecs);
    gdist;
    defs = Cnf.Defs.create sat;
  }

let core t =
  match t.core with
  | Some c -> c
  | None ->
    let c = build_core t.g in
    t.core <- Some c;
    c

(* Exact-length BMC: the first satisfiable frame is the BFS distance.
   The frame bound is the trivial diameter bound; justification targets
   are BFS-reachable, so the loop never actually runs dry on them. *)
let justify t guard target =
  let c = core t in
  Sat.set_guard c.sat guard;
  let bound = Cssg.n_states t.g - 1 in
  let rec try_frame f =
    if f > bound then None
    else begin
      Cnf.Unroller.ensure_frames c.good ~upto:f;
      match Cnf.Unroller.state_lit c.good ~frame:f target with
      | None -> try_frame (f + 1)
      | Some l ->
        if Sat.solve ~assumptions:[ l ] c.sat then
          Some
            (List.map
               (fun e -> c.gvec.(e))
               (Cnf.Unroller.decode_path c.good ~frame:f ~state:target))
        else try_frame (f + 1)
    end
  in
  try_frame 0

(* Ring-synchronized product unrolling.  Invariant: when the step-t
   clauses are emitted, every product state of distance <= t+1 and
   every edge leaving distance <= t already exists — and a path
   position t only ever sits on a state of distance <= t, so the
   encoding is complete for exact-length queries despite the dynamic
   graph.

   Every fault shares the core solver: the product clauses (and the
   per-depth disjunction indicators) are guarded by a per-fault
   activation literal, product frame [f] is linked to good frame
   [dist(start) + f] so the shared good-machine clauses and any learned
   clauses over them constrain every fault's search, and the whole
   group is retired (clauses deleted, variables undecidable) before the
   next fault arrives. *)
let differentiate t guard config fm ~start ~fstates =
  let g = t.g in
  let cr = core t in
  let sat = cr.sat and defs = cr.defs in
  Sat.set_guard sat guard;
  let act = Sat.new_act sat in
  let l0 = max 0 cr.gdist.(start) in
  let unr = Cnf.Unroller.create ~act sat in
  let key2pid = Hashtbl.create 256 in
  let info = Hashtbl.create 256 in (* pid -> (good state, faulty set) *)
  let evec = Hashtbl.create 256 in (* unroller edge id -> vector *)
  let capped = ref false in
  let register i fsts =
    let k = Detect.product_key g i fsts in
    match Hashtbl.find_opt key2pid k with
    | Some pid -> Some (pid, false)
    | None ->
      if Hashtbl.length key2pid >= config.Three_phase.max_product_states
      then begin
        (* fail-soft: remember the truncation instead of silently
           pretending the frontier ended here *)
        capped := true;
        None
      end
      else begin
        let pid =
          Cnf.Unroller.add_state unr ~initial:(Hashtbl.length key2pid = 0)
        in
        Hashtbl.replace key2pid k pid;
        Hashtbl.replace info pid (i, fsts);
        Some (pid, true)
      end
  in
  let pid0 =
    match register start fstates with
    | Some (pid, _) -> pid
    | None -> assert false (* cap is >= 1 *)
  in
  let frontier = ref [ pid0 ] in
  let result = ref None in
  let linked_upto = ref 0 in
  (* Product frame f implies good frame l0 + f for the good component:
     every product path is a good path shifted by the start's BFS
     distance.  This is what lets learned clauses over the shared good
     frames transfer between faults. *)
  let link_frames upto =
    Cnf.Unroller.ensure_frames cr.good ~upto:(l0 + upto);
    for f = !linked_upto to upto do
      for pid = 0 to Cnf.Unroller.n_states unr - 1 do
        match Cnf.Unroller.state_lit unr ~frame:f pid with
        | None -> ()
        | Some p ->
          let i, _ = Hashtbl.find info pid in
          (match Cnf.Unroller.state_lit cr.good ~frame:(l0 + f) i with
          | Some sg -> Sat.add_clause ~act sat [ Sat.neg p; sg ]
          | None -> ())
      done
    done;
    linked_upto := upto + 1
  in
  let cleanup () =
    Cnf.Defs.release defs act;
    Cnf.Unroller.retire unr
  in
  (try
     let depth = ref 0 in
     while
       !result = None && !frontier <> []
       && !depth < config.Three_phase.max_depth
     do
       incr depth;
       let d = !depth in
       let fresh = ref [] and fresh_diff = ref [] in
       List.iter
         (fun pid ->
           let i, fsts = Hashtbl.find info pid in
           List.iter
             (fun e ->
               Guard.spend_transition guard;
               match Detect.exact_apply fm fsts e.Cssg.vector with
               | None -> ()
               | Some fsts' -> (
                 let j = e.Cssg.target in
                 match register j fsts' with
                 | None -> () (* over the cap; recorded in [capped] *)
                 | Some (pid', is_new) ->
                   let eid = Cnf.Unroller.add_edge unr ~src:pid ~dst:pid' in
                   Hashtbl.replace evec eid e.Cssg.vector;
                   if is_new then
                     if Detect.exact_differs g j fm fsts' then
                       fresh_diff := pid' :: !fresh_diff
                     else fresh := pid' :: !fresh))
             (Cssg.successors g i))
         !frontier;
       (* differentiating states are terminal: never expanded further *)
       frontier := !fresh;
       if !fresh_diff <> [] then begin
         Cnf.Unroller.ensure_frames unr ~upto:d;
         link_frames d;
         let ind =
           Cnf.Defs.or_ ~act defs
             (List.filter_map
                (fun pid -> Cnf.Unroller.state_lit unr ~frame:d pid)
                !fresh_diff)
         in
         let assumptions = [ Sat.act_lit sat act; ind ] in
         if Sat.solve ~assumptions sat then begin
           let final =
             List.find
               (fun pid ->
                 match Cnf.Unroller.state_lit unr ~frame:d pid with
                 | Some l -> Sat.lit_true sat l
                 | None -> false)
               !fresh_diff
           in
           result :=
             Some
               (List.map
                  (fun e -> Hashtbl.find evec e)
                  (Cnf.Unroller.decode_path unr ~frame:d ~state:final))
         end
       end
     done
   with Guard.Exhausted _ as ex ->
     cleanup ();
     raise ex);
  cleanup ();
  if !result = None && !capped then
    (* the product graph was truncated: "no differentiating sequence
       found" would be a lie, so degrade exactly like a guard trip *)
    raise (Guard.Exhausted Guard.State_limit);
  !result

let backend t =
  {
    Three_phase.backend_name = "sat";
    backend_justify = (fun guard act -> justify t guard act);
    backend_differentiate =
      Some
        (fun guard config fm ~start ~fstates ->
          differentiate t guard config fm ~start ~fstates);
  }

let stats t =
  match t.core with None -> Sat.zero_stats | Some c -> Sat.stats c.sat

let defs_stats t =
  match t.core with
  | None -> (0, 0)
  | Some c -> (Cnf.Defs.defined c.defs, Cnf.Defs.interned c.defs)
