open Satg_logic

type line =
  | L_circuit of string
  | L_input of string list
  | L_output of string list
  | L_gate of string * string * string list  (* name, func, fanins *)
  | L_sop of string * string list * string list  (* name, fanins, cubes *)
  | L_initial of (string * bool) list
  | L_end

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let tokenize line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  (* '\r' is a separator too: a CRLF-encoded file otherwise leaves a
     carriage return glued to each line's last token, and the error
     surfaces much later as a baffling [unknown signal "b\r"]. *)
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (fun s -> s <> "")

let parse_assign tok =
  match String.split_on_char '=' tok with
  | [ nm; "0" ] -> (nm, false)
  | [ nm; "1" ] -> (nm, true)
  | _ -> fail "bad initial assignment %S" tok

let parse_line lineno raw =
  match tokenize raw with
  | [] -> None
  | "circuit" :: [ nm ] -> Some (L_circuit nm)
  | "input" :: nms when nms <> [] -> Some (L_input nms)
  | "output" :: nms when nms <> [] -> Some (L_output nms)
  | "gate" :: nm :: fn :: ins -> Some (L_gate (nm, String.uppercase_ascii fn, ins))
  | "celem" :: nm :: ins when ins <> [] -> Some (L_gate (nm, "CELEM", ins))
  | "sop" :: nm :: "(" :: rest -> (
    let rec split_ins acc = function
      | ")" :: cubes -> (List.rev acc, cubes)
      | x :: rest -> split_ins (x :: acc) rest
      | [] -> fail "line %d: sop %s: missing ')'" lineno nm
    in
    match split_ins [] rest with
    | _, [] -> fail "line %d: sop %s: no cubes" lineno nm
    | ins, cubes -> Some (L_sop (nm, ins, cubes)))
  | "initial" :: toks when toks <> [] ->
    Some (L_initial (List.map parse_assign toks))
  | [ "end" ] -> Some L_end
  | tok :: _ -> fail "line %d: unrecognised directive %S" lineno tok

let build lines =
  let cname =
    match
      List.find_map (function L_circuit nm -> Some nm | _ -> None) lines
    with
    | Some nm -> nm
    | None -> fail "missing 'circuit' line"
  in
  let b = Circuit.Builder.create cname in
  let signal_of = Hashtbl.create 32 in
  (* Inputs first: their buffer ids become the referencable signals. *)
  List.iter
    (function
      | L_input nms ->
        List.iter
          (fun nm -> Hashtbl.replace signal_of nm (Circuit.Builder.add_input b nm))
          nms
      | _ -> ())
    lines;
  (* Declare all gates so feedback references resolve. *)
  let gate_defs =
    List.filter_map
      (function
        | L_gate (nm, fn, ins) -> Some (nm, `Fixed fn, ins)
        | L_sop (nm, ins, cubes) -> Some (nm, `Sop cubes, ins)
        | _ -> None)
      lines
  in
  List.iter
    (fun (nm, _, _) ->
      if Hashtbl.mem signal_of nm then fail "duplicate signal %S" nm;
      Hashtbl.replace signal_of nm (Circuit.Builder.declare_gate b ~name:nm))
    gate_defs;
  let resolve nm =
    match Hashtbl.find_opt signal_of nm with
    | Some id -> id
    | None -> fail "unknown signal %S" nm
  in
  List.iter
    (fun (nm, kind, ins) ->
      let fanin = List.map resolve ins in
      let func =
        match kind with
        | `Fixed fn -> (
          match Gatefunc.of_name fn with
          | Some f -> f
          | None -> fail "gate %S: unknown function %S" nm fn)
        | `Sop cubes ->
          let n = List.length ins in
          let parse_cube c =
            if String.length c <> n then
              fail "sop %S: cube %S has width %d, expected %d" nm c
                (String.length c) n;
            try Cube.of_string c
            with Invalid_argument m -> fail "sop %S: %s" nm m
          in
          Gatefunc.Sop (Cover.make ~n (List.map parse_cube cubes))
      in
      Circuit.Builder.define_gate b (resolve nm) func fanin)
    gate_defs;
  List.iter
    (function
      | L_output nms ->
        List.iter (fun nm -> Circuit.Builder.mark_output b (resolve nm)) nms
      | _ -> ())
    lines;
  let circuit =
    try Circuit.Builder.finalize b
    with Invalid_argument m -> fail "%s" m
  in
  (* Initial state, if present. *)
  let assigns =
    List.concat_map (function L_initial a -> a | _ -> []) lines
  in
  if assigns = [] then circuit
  else begin
    let st = Array.make (Circuit.n_nodes circuit) false in
    let assigned = Array.make (Circuit.n_nodes circuit) false in
    List.iter
      (fun (nm, v) ->
        match Circuit.find_node circuit nm with
        | None -> fail "initial: unknown signal %S" nm
        | Some id ->
          st.(id) <- v;
          assigned.(id) <- true;
          (* Input names also set the environment node. *)
          (match Circuit.find_node circuit (nm ^ "$env") with
          | Some env ->
            st.(env) <- v;
            assigned.(env) <- true
          | None -> ()))
      assigns;
    Array.iteri
      (fun i a ->
        if not a then
          fail "initial: signal %S not assigned" (Circuit.node_name circuit i))
      assigned;
    try Circuit.with_initial circuit st
    with Invalid_argument m -> fail "%s" m
  end

(* ------------------------------------------------------------------ *)
(* Lint: collect every semantic problem, with line numbers             *)
(* ------------------------------------------------------------------ *)

type diag = {
  line : int;  (* 1-based; 0 for file-level problems *)
  msg : string;
}

(* Unlike [parse_string], which fails on the first problem (its job is
   to refuse bad input), the lint walks the whole file and reports
   every diagnostic it can find in one run: duplicate net names,
   dangling fanin references, arity mismatches, malformed directives,
   bad initial assignments.  It never raises and never builds. *)
let lint_string text =
  let diags = ref [] in
  let emit line fmt =
    Printf.ksprintf (fun msg -> diags := { line; msg } :: !diags) fmt
  in
  let lines =
    List.mapi (fun i raw -> (i + 1, tokenize raw))
      (String.split_on_char '\n' text)
  in
  (* Pass 1: declarations.  [decl : name -> (line, what)] doubles as
     the symbol table for the reference checks of pass 2. *)
  let decl = Hashtbl.create 32 in
  let declare line nm what =
    match Hashtbl.find_opt decl nm with
    | Some (l0, what0) ->
      emit line "duplicate net %S: already declared as %s on line %d" nm what0
        l0
    | None -> Hashtbl.add decl nm (line, what)
  in
  let circuit_line = ref None in
  List.iter
    (fun (line, toks) ->
      match toks with
      | [] -> ()
      | "circuit" :: rest -> (
        (match rest with
        | [ _ ] -> ()
        | _ -> emit line "'circuit' expects exactly one name");
        match !circuit_line with
        | None -> circuit_line := Some line
        | Some l0 ->
          emit line "duplicate 'circuit' directive (first on line %d)" l0)
      | [ "input" ] -> emit line "'input' expects at least one name"
      | "input" :: nms -> List.iter (fun nm -> declare line nm "an input") nms
      | "gate" :: nm :: _ :: _ | "celem" :: nm :: _ :: _ ->
        declare line nm "a gate"
      | [ "gate" ] | [ "gate"; _ ] ->
        emit line "'gate' expects a name, a function and fanins"
      | [ "celem" ] | [ "celem"; _ ] ->
        emit line "'celem' expects a name and fanins"
      | "sop" :: nm :: "(" :: _ -> declare line nm "a gate"
      | "sop" :: _ ->
        emit line "'sop' expects a name and a parenthesised fanin list"
      | "output" :: _ | "initial" :: _ | [ "end" ] -> ()
      | tok :: _ -> emit line "unrecognised directive %S" tok)
    lines;
  if !circuit_line = None then emit 0 "missing 'circuit' directive";
  (* Pass 2: references and shapes. *)
  let check_ref line what nm =
    if not (Hashtbl.mem decl nm) then
      emit line "%s: unknown signal %S (dangling reference)" what nm
  in
  let initial_line = ref None in
  let assigned = Hashtbl.create 32 in
  List.iter
    (fun (line, toks) ->
      match toks with
      | "gate" :: nm :: fn :: ins -> (
        List.iter (check_ref line ("gate " ^ nm)) ins;
        match Gatefunc.of_name (String.uppercase_ascii fn) with
        | None -> emit line "gate %S: unknown function %S" nm fn
        | Some f ->
          if not (Gatefunc.arity_ok f (List.length ins)) then
            emit line "gate %S: function %s does not take %d fanin(s)" nm
              (Gatefunc.name f) (List.length ins))
      | "celem" :: nm :: ins when ins <> [] ->
        List.iter (check_ref line ("celem " ^ nm)) ins;
        if not (Gatefunc.arity_ok Gatefunc.Celem (List.length ins)) then
          emit line "celem %S: %d fanin(s) not accepted" nm (List.length ins)
      | "sop" :: nm :: "(" :: rest -> (
        let rec split_ins acc = function
          | ")" :: cubes -> Some (List.rev acc, cubes)
          | x :: rest -> split_ins (x :: acc) rest
          | [] -> None
        in
        match split_ins [] rest with
        | None -> emit line "sop %S: missing ')'" nm
        | Some (_, []) -> emit line "sop %S: no cubes" nm
        | Some (ins, cubes) ->
          List.iter (check_ref line ("sop " ^ nm)) ins;
          let n = List.length ins in
          List.iter
            (fun c ->
              if String.length c <> n then
                emit line "sop %S: cube %S has width %d, expected %d" nm c
                  (String.length c) n
              else
                match Cube.of_string c with
                | _ -> ()
                | exception Invalid_argument m -> emit line "sop %S: %s" nm m)
            cubes)
      | "output" :: nms -> (
        match nms with
        | [] -> emit line "'output' expects at least one name"
        | nms -> List.iter (check_ref line "output") nms)
      | "initial" :: toks ->
        if !initial_line = None then initial_line := Some line;
        List.iter
          (fun tok ->
            match String.split_on_char '=' tok with
            | [ nm; ("0" | "1") ] -> (
              check_ref line "initial" nm;
              match Hashtbl.find_opt assigned nm with
              | Some l0 ->
                emit line "initial: %S assigned twice (first on line %d)" nm
                  l0
              | None -> Hashtbl.add assigned nm line)
            | _ -> emit line "initial: bad assignment %S (want name=0|1)" tok)
          toks
      | _ -> ())
    lines;
  (* A partial initial state is an error: the builder requires every
     declared net assigned once any 'initial' line appears. *)
  (match !initial_line with
  | None -> ()
  | Some iline ->
    Hashtbl.iter
      (fun nm _ ->
        if not (Hashtbl.mem assigned nm) then
          emit iline "initial: signal %S not assigned" nm)
      decl);
  List.stable_sort
    (fun a b -> compare (a.line, a.msg) (b.line, b.msg))
    !diags

let parse_string text =
  let lines = String.split_on_char '\n' text in
  try
    let parsed = List.filteri (fun _ _ -> true) lines in
    let ast =
      List.concat
        (List.mapi
           (fun i raw ->
             match parse_line (i + 1) raw with Some l -> [ l ] | None -> [])
           parsed)
    in
    Ok (build ast)
  with
  | Parse_error m -> Error m
  | Invalid_argument m -> Error m

let to_string c =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "circuit %s\n" (Circuit.name c);
  let input_nms = Circuit.input_names c in
  if Array.length input_nms > 0 then
    pr "input %s\n" (String.concat " " (Array.to_list input_nms));
  let buffer_ids =
    Array.to_list (Array.mapi (fun k _ -> Circuit.buffer_of_input c k) (Circuit.inputs c))
  in
  Array.iter
    (fun gid ->
      if not (List.mem gid buffer_ids) then begin
        let nm = Circuit.node_name c gid in
        let ins =
          Circuit.fanins c gid |> Array.to_list
          |> List.map (Circuit.node_name c)
        in
        match Circuit.func c gid with
        | Gatefunc.Sop cover ->
          pr "sop %s ( %s ) %s\n" nm (String.concat " " ins)
            (String.concat " "
               (List.map Cube.to_string (Cover.cubes cover)))
        | f -> pr "gate %s %s %s\n" nm (Gatefunc.name f) (String.concat " " ins)
      end)
    (Circuit.gates c);
  if Array.length (Circuit.outputs c) > 0 then
    pr "output %s\n"
      (String.concat " "
         (Array.to_list (Array.map (Circuit.node_name c) (Circuit.outputs c))));
  (match Circuit.initial c with
  | None -> ()
  | Some st ->
    let parts = ref [] in
    Array.iter
      (fun gid ->
        let nm = Circuit.node_name c gid in
        parts := Printf.sprintf "%s=%d" nm (if st.(gid) then 1 else 0) :: !parts)
      (Circuit.gates c);
    pr "initial %s\n" (String.concat " " (List.rev !parts)));
  pr "end\n";
  Buffer.contents buf
