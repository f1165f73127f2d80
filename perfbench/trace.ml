(* Spans recorded from outside the program: every call the benchmark
   makes into a layer's public functions is wrapped in [span], which
   records name, start, end, parent and the group (one netlist or one
   request).  Spans are kept in memory and written once, at the end,
   as Chrome trace-event JSON (Perfetto opens it).  With recording
   off, [span] is a plain call, so the untraced run pays one branch. *)

type span = {
  sid : int;
  name : string;
  group : int;
  parent : int;  (** [sid] of the enclosing span, [-1] at top level *)
  t0 : float;
  mutable t1 : float;
}

let on = ref false
let spans : span list ref = ref []
let next = ref 0
let stack : span list ref = ref []
let current_group = ref 0

let now = Unix.gettimeofday

let span name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p.sid | [] -> -1 in
    let s =
      { sid = !next; name; group = !current_group; parent; t0 = now (); t1 = 0. }
    in
    incr next;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

(* A new group (netlist, request) gets a fresh id shared by its spans. *)
let group name f =
  if not !on then f ()
  else begin
    let outer = !current_group in
    current_group := !next;
    Fun.protect ~finally:(fun () -> current_group := outer) (fun () -> span name f)
  end

(* The name of the top-level span a span descends from. *)
let root_name () =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.sid s) !spans;
  let rec root s =
    match Hashtbl.find_opt by_id s.parent with Some p -> root p | None -> s.name
  in
  root

(* Self time per span name, over the spans under top-level spans named
   [root]: a span's duration minus the part of it that its children
   cover (children never overlap: one thread). *)
let self_times ~root =
  let root_of = root_name () in
  let mine = List.filter (fun s -> root_of s = root) !spans in
  let child_time = Hashtbl.create 64 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter (fun s -> if s.parent >= 0 then add child_time s.parent (s.t1 -. s.t0)) mine;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      add self s.name
        (s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child_time s.sid)))
    mine;
  self

(* Durations of every span with this name, in seconds. *)
let durations name =
  List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) !spans

let self_time tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)

(* Chrome trace-event JSON: one complete ("X") event per span, times
   in microseconds from the first span; [tid] is the group, so each
   netlist or request gets its own track. *)
let write_chrome path =
  let all = List.rev !spans in
  let origin = List.fold_left (fun m s -> min m s.t0) infinity all in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        s.name s.group
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.sid s.parent)
    all;
  output_string oc "\n]}\n"

(* A leaf span whose name is known only once the call has returned. *)
let record name t0 t1 =
  if !on then begin
    let parent = match !stack with p :: _ -> p.sid | [] -> -1 in
    spans := { sid = !next; name; group = !current_group; parent; t0; t1 } :: !spans;
    incr next
  end
