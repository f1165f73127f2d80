type dir =
  | Rise
  | Fall

type transition = {
  signal : int;
  dir : dir;
  label : string;
}

type place = {
  pname : string;
  pre : int list;
  post : int list;
}

type t = {
  name : string;
  signals : string array;
  n_inputs : int;
  transitions : transition array;
  places : place array;
  marking : int array;
  init_values : bool array;
}

let input_signals t =
  Array.to_list (Array.sub t.signals 0 t.n_inputs)

let output_signals t =
  Array.to_list
    (Array.sub t.signals t.n_inputs (Array.length t.signals - t.n_inputs))

let is_input t s = s < t.n_inputs

let signal_index t nm =
  let rec find i =
    if i >= Array.length t.signals then None
    else if t.signals.(i) = nm then Some i
    else find (i + 1)
  in
  find 0

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let is_transition_token tok =
  String.contains tok '+' || String.contains tok '-'

(* "a+", "b-/2" -> (signal name, dir, full label) *)
let split_transition tok =
  let plus = String.index_opt tok '+' and minus = String.index_opt tok '-' in
  match plus, minus with
  | Some i, None -> (String.sub tok 0 i, Rise, tok)
  | None, Some i -> (String.sub tok 0 i, Fall, tok)
  | Some i, Some j when i < j -> (String.sub tok 0 i, Rise, tok)
  | Some _, Some j -> (String.sub tok 0 j, Fall, tok)
  | None, None -> fail "not a transition: %S" tok

let tokenize line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse_string text =
  try
    let lines = String.split_on_char '\n' text |> List.map tokenize in
    let name = ref "stg" in
    let inputs = ref [] and outputs = ref [] in
    let graph_arcs = ref [] in
    (* (source token, target tokens) *)
    let marking_tokens = ref [] in
    let init_assigns = ref [] in
    let in_graph = ref false in
    List.iter
      (fun toks ->
        match toks with
        | [] -> ()
        | ".model" :: [ nm ] ->
          name := nm;
          in_graph := false
        | ".inputs" :: nms ->
          inputs := !inputs @ nms;
          in_graph := false
        | ".outputs" :: nms ->
          outputs := !outputs @ nms;
          in_graph := false
        | [ ".graph" ] -> in_graph := true
        | ".marking" :: rest ->
          in_graph := false;
          let joined = String.concat " " rest in
          let joined =
            String.map (fun c -> if c = '{' || c = '}' then ' ' else c) joined
          in
          marking_tokens := !marking_tokens @ tokenize joined
        | ".init" :: assigns ->
          in_graph := false;
          List.iter
            (fun a ->
              match String.split_on_char '=' a with
              | [ nm; "0" ] -> init_assigns := (nm, false) :: !init_assigns
              | [ nm; "1" ] -> init_assigns := (nm, true) :: !init_assigns
              | _ -> fail "bad .init assignment %S" a)
            assigns
        | [ ".end" ] -> in_graph := false
        | src :: dsts when !in_graph ->
          if dsts = [] then fail "arc line with no targets: %S" src;
          graph_arcs := (src, dsts) :: !graph_arcs
        | tok :: _ -> fail "unexpected token %S" tok)
      lines;
    let signals = Array.of_list (!inputs @ !outputs) in
    let n_inputs = List.length !inputs in
    let sig_index = Hashtbl.create 16 in
    Array.iteri
      (fun i nm ->
        if Hashtbl.mem sig_index nm then fail "duplicate signal %S" nm;
        Hashtbl.replace sig_index nm i)
      signals;
    (* Collect transitions (unique by label) in order of appearance. *)
    let trans_index = Hashtbl.create 32 in
    let rev_trans = ref [] in
    let n_trans = ref 0 in
    let intern_transition tok =
      match Hashtbl.find_opt trans_index tok with
      | Some i -> i
      | None ->
        let signal_name, dir, label = split_transition tok in
        let signal =
          match Hashtbl.find_opt sig_index signal_name with
          | Some s -> s
          | None -> fail "transition %S: unknown signal %S" tok signal_name
        in
        let i = !n_trans in
        incr n_trans;
        Hashtbl.replace trans_index tok i;
        rev_trans := { signal; dir; label } :: !rev_trans;
        i
    in
    (* First pass: intern all transition tokens (sources and targets). *)
    List.iter
      (fun (src, dsts) ->
        if is_transition_token src then ignore (intern_transition src);
        List.iter
          (fun d -> if is_transition_token d then ignore (intern_transition d))
          dsts)
      (List.rev !graph_arcs);
    (* Places: explicit ones by name, implicit ones per transition->
       transition arc. *)
    let places = Hashtbl.create 32 in
    (* name -> (pre ref, post ref) *)
    let place_order = ref [] in
    let place nm =
      match Hashtbl.find_opt places nm with
      | Some p -> p
      | None ->
        let p = (ref [], ref []) in
        Hashtbl.replace places nm p;
        place_order := nm :: !place_order;
        p
    in
    (* Repeating an arc line does not change the net: an implicit place
       is identified by its transition pair, and a transition is in a
       place's pre/post set or it is not.  Deduplicate here so the
       printer's one-transition-per-implicit-place invariant holds for
       every parsed net (to_string/parse_string round-trip). *)
    let add_uniq r x = if not (List.mem x !r) then r := x :: !r in
    List.iter
      (fun (src, dsts) ->
        List.iter
          (fun dst ->
            match (is_transition_token src, is_transition_token dst) with
            | true, true ->
              let ti = intern_transition src and tj = intern_transition dst in
              let pre, post = place (Printf.sprintf "<%s,%s>" src dst) in
              add_uniq pre ti;
              add_uniq post tj
            | true, false ->
              let ti = intern_transition src in
              let pre, _ = place dst in
              add_uniq pre ti
            | false, true ->
              let tj = intern_transition dst in
              let _, post = place src in
              add_uniq post tj
            | false, false -> fail "place-to-place arc %S -> %S" src dst)
          dsts)
      (List.rev !graph_arcs);
    let place_names = List.rev !place_order in
    let place_arr =
      Array.of_list
        (List.map
           (fun nm ->
             let pre, post = Hashtbl.find places nm in
             { pname = nm; pre = List.rev !pre; post = List.rev !post })
           place_names)
    in
    let place_idx = Hashtbl.create 32 in
    Array.iteri (fun i p -> Hashtbl.replace place_idx p.pname i) place_arr;
    let marking = Array.make (Array.length place_arr) 0 in
    (* Marking tokens: "<a+,b+>" or explicit place names. *)
    let rec mark_tokens = function
      | [] -> ()
      | tok :: rest ->
        (match Hashtbl.find_opt place_idx tok with
        | Some i -> marking.(i) <- marking.(i) + 1
        | None -> fail "marking refers to unknown place %S" tok);
        mark_tokens rest
    in
    mark_tokens !marking_tokens;
    let init_values = Array.make (Array.length signals) false in
    let assigned = Array.make (Array.length signals) false in
    List.iter
      (fun (nm, v) ->
        match Hashtbl.find_opt sig_index nm with
        | Some i ->
          init_values.(i) <- v;
          assigned.(i) <- true
        | None -> fail ".init: unknown signal %S" nm)
      !init_assigns;
    Array.iteri
      (fun i a -> if not a then fail ".init: signal %S not assigned" signals.(i))
      assigned;
    let transitions = Array.of_list (List.rev !rev_trans) in
    if Array.length transitions = 0 then fail "no transitions";
    Ok
      {
        name = !name;
        signals;
        n_inputs;
        transitions;
        places = place_arr;
        marking;
        init_values;
      }
  with Parse_error m -> Error m

let to_string t =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr ".model %s\n" t.name;
  pr ".inputs %s\n" (String.concat " " (input_signals t));
  pr ".outputs %s\n" (String.concat " " (output_signals t));
  pr ".graph\n";
  Array.iter
    (fun p ->
      let is_implicit = String.length p.pname > 0 && p.pname.[0] = '<' in
      if is_implicit then begin
        match (p.pre, p.post) with
        | [ ti ], [ tj ] ->
          pr "%s %s\n" t.transitions.(ti).label t.transitions.(tj).label
        | _ -> assert false
      end
      else begin
        List.iter
          (fun ti -> pr "%s %s\n" t.transitions.(ti).label p.pname)
          p.pre;
        List.iter
          (fun tj -> pr "%s %s\n" p.pname t.transitions.(tj).label)
          p.post
      end)
    t.places;
  let marks = ref [] in
  Array.iteri
    (fun i p ->
      for _ = 1 to t.marking.(i) do
        marks := p.pname :: !marks
      done)
    t.places;
  pr ".marking { %s }\n" (String.concat " " (List.rev !marks));
  pr ".init %s\n"
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun i nm -> Printf.sprintf "%s=%d" nm (if t.init_values.(i) then 1 else 0))
             t.signals)));
  pr ".end\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Token game                                                          *)
(* ------------------------------------------------------------------ *)

let enabled t marking =
  let n_t = Array.length t.transitions in
  let ok = Array.make n_t true in
  Array.iteri
    (fun pi p ->
      List.iter
        (fun ti ->
          (* Transitions consuming more tokens than present are disabled;
             multiple arcs from the same place are counted. *)
          let needed =
            List.length (List.filter (fun x -> x = ti) p.post)
          in
          if marking.(pi) < needed then ok.(ti) <- false)
        p.post)
    t.places;
  List.filter (fun ti -> ok.(ti)) (List.init n_t Fun.id)

let fire t marking ti =
  let m = Array.copy marking in
  Array.iteri
    (fun pi p ->
      List.iter (fun tj -> if tj = ti then m.(pi) <- m.(pi) - 1) p.post;
      List.iter (fun tj -> if tj = ti then m.(pi) <- m.(pi) + 1) p.pre)
    t.places;
  m

(* ------------------------------------------------------------------ *)
(* Reachability                                                        *)
(* ------------------------------------------------------------------ *)

type sg_state = {
  mark : int array;
  values : bool array;
}

type sg = {
  stg : t;
  states : sg_state array;
  excited : bool array array;
  initial_state : int;
}

let state_key st =
  String.concat ","
    (List.map string_of_int (Array.to_list st.mark))
  ^ "|"
  ^ String.init (Array.length st.values) (fun i -> if st.values.(i) then '1' else '0')

let explore ?(bound = 2) t =
  let index = Hashtbl.create 64 in
  let rev_states = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  let error = ref None in
  let set_error fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  let intern st =
    let key = state_key st in
    match Hashtbl.find_opt index key with
    | Some i -> i
    | None ->
      let i = !count in
      incr count;
      Hashtbl.replace index key i;
      rev_states := st :: !rev_states;
      Queue.add st queue;
      i
  in
  let initial = { mark = t.marking; values = t.init_values } in
  let (_ : int) = intern initial in
  while not (Queue.is_empty queue) && !error = None do
    let st = Queue.take queue in
    List.iter
      (fun ti ->
        let tr = t.transitions.(ti) in
        let cur = st.values.(tr.signal) in
        (match tr.dir with
        | Rise ->
          if cur then
            set_error "inconsistent: %s enabled while %s = 1" tr.label
              t.signals.(tr.signal)
        | Fall ->
          if not cur then
            set_error "inconsistent: %s enabled while %s = 0" tr.label
              t.signals.(tr.signal));
        if !error = None then begin
          let mark = fire t st.mark ti in
          if Array.exists (fun m -> m > bound || m < 0) mark then
            set_error "unbounded place after firing %s" tr.label
          else begin
            let values = Array.copy st.values in
            values.(tr.signal) <- tr.dir = Rise;
            ignore (intern { mark; values })
          end
        end)
      (enabled t st.mark)
  done;
  match !error with
  | Some m -> Error m
  | None ->
    let states = Array.of_list (List.rev !rev_states) in
    let excited =
      Array.map
        (fun st ->
          let ex = Array.make (Array.length t.signals) false in
          List.iter
            (fun ti -> ex.(t.transitions.(ti).signal) <- true)
            (enabled t st.mark);
          ex)
        states
    in
    Ok { stg = t; states; excited; initial_state = 0 }

let code_of_values values =
  Array.fold_left (fun acc v -> (acc lsl 1) lor (if v then 1 else 0)) 0 values

let check_csc sg =
  let t = sg.stg in
  let n_sig = Array.length t.signals in
  let by_code = Hashtbl.create 64 in
  let violation = ref None in
  Array.iteri
    (fun i st ->
      let code = code_of_values st.values in
      match Hashtbl.find_opt by_code code with
      | None -> Hashtbl.replace by_code code i
      | Some j ->
        (* Same code: output excitation must agree. *)
        for s = t.n_inputs to n_sig - 1 do
          if sg.excited.(i).(s) <> sg.excited.(j).(s) && !violation = None then
            violation :=
              Some
                (Printf.sprintf "CSC conflict on %s at code %s" t.signals.(s)
                   (String.init n_sig (fun b -> if st.values.(b) then '1' else '0')))
        done)
    sg.states;
  match !violation with Some m -> Error m | None -> Ok ()

let next_state_tables sg =
  let t = sg.stg in
  let n_sig = Array.length t.signals in
  if n_sig > Satg_logic.Qm.max_vars then
    invalid_arg "Stg.next_state_tables: too many signals";
  let reached = Hashtbl.create 64 in
  let on = Array.make n_sig [] and off = Array.make n_sig [] in
  Array.iteri
    (fun i st ->
      let code = code_of_values st.values in
      if not (Hashtbl.mem reached code) then begin
        Hashtbl.replace reached code ();
        for s = 0 to n_sig - 1 do
          (* Next value: current XOR excited. *)
          if st.values.(s) <> sg.excited.(i).(s) then on.(s) <- code :: on.(s)
          else off.(s) <- code :: off.(s)
        done
      end)
    sg.states;
  Array.init n_sig (fun s -> (List.rev on.(s), List.rev off.(s)))

let to_dot t =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph \"%s\" {\n" t.name;
  Array.iteri
    (fun i tr ->
      pr "  t%d [label=\"%s\", shape=box%s];\n" i tr.label
        (if is_input t tr.signal then ", style=filled, fillcolor=lightgrey"
         else ""))
    t.transitions;
  Array.iteri
    (fun pi p ->
      let implicit =
        String.length p.pname > 0 && p.pname.[0] = '<'
        && List.length p.pre = 1 && List.length p.post = 1
        && t.marking.(pi) = 0
      in
      if implicit then
        pr "  t%d -> t%d;\n" (List.hd p.pre) (List.hd p.post)
      else begin
        let label =
          if t.marking.(pi) = 0 then ""
          else String.concat "" (List.init t.marking.(pi) (fun _ -> "&bull;"))
        in
        pr "  p%d [label=\"%s\", shape=circle];\n" pi label;
        List.iter (fun ti -> pr "  t%d -> p%d;\n" ti pi) p.pre;
        List.iter (fun ti -> pr "  p%d -> t%d;\n" pi ti) p.post
      end)
    t.places;
  pr "}\n";
  Buffer.contents buf

let check_output_persistency sg =
  let t = sg.stg in
  let violation = ref None in
  Array.iter
    (fun st ->
      if !violation = None then begin
        let enabled_now = enabled t st.mark in
        List.iter
          (fun ti ->
            let tri = t.transitions.(ti) in
            if not (is_input t tri.signal) then
              List.iter
                (fun tj ->
                  if
                    tj <> ti
                    && t.transitions.(tj).signal <> tri.signal
                    && !violation = None
                  then begin
                    let mark' = fire t st.mark tj in
                    if not (List.mem ti (enabled t mark')) then
                      violation :=
                        Some
                          (Printf.sprintf "%s disables enabled output %s"
                             t.transitions.(tj).label tri.label)
                  end)
                enabled_now)
          enabled_now
      end)
    sg.states;
  match !violation with Some m -> Error m | None -> Ok ()
