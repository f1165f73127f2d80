type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  (* The current region's body: workers run [body wid] to completion.
     Guarded by [mutex]; a new region bumps [generation] so parked
     workers can tell fresh work from the region they just finished. *)
  mutable body : (int -> unit) option;
  mutable generation : int;
  mutable running : int;  (* spawned workers still inside the region *)
  mutable stopped : bool;
  mutable domains : unit Domain.t array;
}

let jobs t = t.jobs

let worker_loop t wid =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while (not t.stopped) && t.generation = !seen do
      Condition.wait t.work_ready t.mutex
    done;
    if t.stopped then Mutex.unlock t.mutex
    else begin
      seen := t.generation;
      let body = Option.get t.body in
      Mutex.unlock t.mutex;
      (* [map] catches per-item exceptions itself; this is only a
         backstop so a buggy region can never wedge the pool. *)
      (try body wid with _ -> ());
      Mutex.lock t.mutex;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let create ~jobs =
  let jobs = max 1 (min 128 jobs) in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      body = None;
      generation = 0;
      running = 0;
      stopped = false;
      domains = [||];
    }
  in
  t.domains <-
    Array.init (jobs - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

(* Run [body wid] on every worker (the caller is worker 0) and return
   once all workers have finished.  Regions never overlap: the previous
   region's join completes before the next broadcast. *)
let run_region t body =
  if t.jobs = 1 then body 0
  else begin
    Mutex.lock t.mutex;
    t.body <- Some body;
    t.generation <- t.generation + 1;
    t.running <- t.jobs - 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    (try body 0 with _ -> ());
    Mutex.lock t.mutex;
    while t.running > 0 do
      Condition.wait t.work_done t.mutex
    done;
    t.body <- None;
    Mutex.unlock t.mutex
  end

let map t f arr =
  let n = Array.length arr in
  (* [pool.worker] injection site: every item execution may be poisoned
     by the fault-injection harness.  The exception rides the normal
     funnel (min-index wins), which is exactly the invariant under
     test: a poisoned worker surfaces deterministically and never
     wedges the pool. *)
  let f wid x =
    Satg_inject.Inject.fail "pool.worker";
    f wid x
  in
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 then Array.map (fun x -> f 0 x) arr
  else begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    (* Lowest failing index wins, mirroring a sequential loop. *)
    let failure = Atomic.make None in
    let record_failure i e =
      let rec go () =
        let cur = Atomic.get failure in
        match cur with
        | Some (j, _) when j <= i -> ()
        | _ -> if not (Atomic.compare_and_set failure cur (Some (i, e))) then go ()
      in
      go ()
    in
    let body wid =
      let rec grab () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          (match f wid arr.(i) with
          | r -> results.(i) <- Some r
          | exception e -> record_failure i e);
          grab ()
        end
      in
      grab ()
    in
    run_region t body;
    (match Atomic.get failure with Some (_, e) -> raise e | None -> ());
    Array.map (function Some r -> r | None -> assert false) results
  end

let shutdown t =
  if not t.stopped then begin
    Mutex.lock t.mutex;
    t.stopped <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end

let with_pool ?pool ~jobs f =
  match pool with
  | Some t -> f t
  | None ->
    let t = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
