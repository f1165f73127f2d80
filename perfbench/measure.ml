(* Timing, statistics and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* Linear interpolation between closest ranks (Python's
   statistics.quantiles "inclusive" method). *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let h = p *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* How many samples lie beyond the [p] quantile: a percentile is
   reported only with at least ten. *)
let samples_beyond xs p = float_of_int (List.length xs) *. (1. -. p)

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  scan ()

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

(* JSON has no infinity: a latency sample of a failed request is
   infinite (it misses every limit), and a percentile landing on one is
   printed as the largest finite double. *)
let json_float v =
  if Float.is_nan v then failwith "metric is NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if v = infinity then "1.7976931348623157e308"
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_float x.value) x.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)

(* What one run of a workload hands back to the printer. *)
type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** gate failures: the run is not correct *)
  end_to_end : (string * float) list;
  layers : (string * float) list;
}

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* Per-layer self times of the traced passes (mean per pass), the
   set-up's synthesis spans, the tracing overhead, and the share of
   traced pass time that layer spans cover. *)
let traced_layers ~traced ~untraced_pass_s =
  let passes = float_of_int (List.length traced) in
  let pass_time = List.fold_left ( +. ) 0. traced in
  let self = Trace.self_times ~root:"pass" in
  let structural = [ "pass"; "netlist"; "request" ] in
  let uncovered =
    List.fold_left (fun acc n -> acc +. Trace.self_time self n) 0. structural
  in
  let layers =
    Hashtbl.fold
      (fun name t acc ->
        if List.mem name structural then acc else (name ^ "_s", t /. passes) :: acc)
      self []
  in
  ("stg.synth_s",
   Trace.self_time (Trace.self_times ~root:"stg.synth") "stg.synth" /. passes)
  :: ("trace.overhead_s", median traced -. untraced_pass_s)
  :: ("trace.coverage_pct", 100. *. (1. -. (uncovered /. pass_time)))
  :: layers

(* Sum values of equal names. *)
let merge lists =
  let tbl = Hashtbl.create 64 in
  List.iter (List.iter (fun (k, v) -> add tbl k v)) lists;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(* Timed passes until [seconds] of pass time and at least three passes
   (two with [trace], which alternates untraced and traced passes).
   [pass] returns its own duration; the heap is compacted before each
   so every pass starts from the same state. *)
let passes ~seconds ~trace pass =
  let rec go spent n =
    if spent < seconds || n < (if trace then 2 else 3) then begin
      let tracing = trace && n mod 2 = 1 in
      Gc.compact ();
      Trace.on := tracing;
      let dt = Fun.protect ~finally:(fun () -> Trace.on := false) (fun () -> pass ~tracing) in
      Printf.eprintf "pass %d%s: %.3f s\n%!" n (if tracing then " (traced)" else "") dt;
      go (spent +. dt) (n + 1)
    end
  in
  go 0. 0

(* Set-up time, sampled: one sample is the mean of ten back-to-back
   set-ups, so a set-up of a millisecond is not timed alone; three
   samples are taken per call, and callers sample before every pass, so
   the samples span the run.  The counts are fixed, not timed, so the
   heap's history, and with it the peak RSS, repeats at one seed. *)
let sample_setup f =
  let reps = 10 in
  let one () =
    let t0 = now () in
    for _ = 2 to reps do
      ignore (f ())
    done;
    let v = f () in
    ((now () -. t0) /. float_of_int reps, v)
  in
  let samples = List.init 3 (fun _ -> one ()) in
  (List.map fst samples, snd (List.hd samples))
