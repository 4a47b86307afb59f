(* The discrete-event scheduler.

   Simulated threads are OCaml 5 effect-handler coroutines. Each thread has a
   local virtual clock; CPU work advances the clock without yielding, and at
   *checkpoints* (data structure operation boundaries and every virtual lock
   acquisition) the thread yields, letting the scheduler resume whichever
   thread has the smallest clock. This min-clock discipline guarantees that
   lock acquisitions happen in (near) global virtual-time order, which is
   what makes lock queueing — and therefore the remote-batch-free problem —
   come out of the model rather than being scripted in.

   Determinism: for fixed seeds and parameters the simulation is exactly
   reproducible, because ties are broken by insertion sequence. *)

type hooks = {
  mutable on_reclaim_event : start:int -> stop:int -> count:int -> unit;
      (* a batch of objects was freed (paper: a "reclamation event") *)
  mutable on_epoch_advance : time:int -> epoch:int -> unit;
  mutable on_free_call : start:int -> stop:int -> unit;
      (* one allocator [free] call completed *)
  mutable on_epoch_garbage : epoch:int -> count:int -> unit;
      (* unreclaimed objects held by this thread when it entered [epoch] *)
}

let no_hooks () =
  {
    on_reclaim_event = (fun ~start:_ ~stop:_ ~count:_ -> ());
    on_epoch_advance = (fun ~time:_ ~epoch:_ -> ());
    on_free_call = (fun ~start:_ ~stop:_ -> ());
    on_epoch_garbage = (fun ~epoch:_ ~count:_ -> ());
  }

(* Event-queue payload. A thread parks its pending effect continuation in
   its own [pending] cell and is enqueued as its pre-allocated [Resume]
   task, so the checkpoint -> push cycle of the hot loop allocates
   nothing; one-off thunks (thread entry bodies) use [Run]. *)
type task = Run of (unit -> unit) | Resume of thread

and thread = {
  tid : int;
  socket : int;
  core : int;
  cpu_factor : float;  (* >1 when sharing a physical core (SMT) *)
  rng : Rng.t;
  metrics : Metrics.t;
  sched : t;
  hooks : hooks;
  mutable clock : int;
  mutable in_free : bool;  (* inside an allocator free call *)
  mutable in_flush : bool;  (* inside a cache flush *)
  mutable atomic_depth : int;  (* > 0 suppresses checkpoints (see [atomically]) *)
  mutable next_preempt : int;  (* next involuntary context switch (oversubscription) *)
  mutable pending : (unit, unit) Effect.Deep.continuation option;
      (* parked continuation: the thread is either enqueued or suspended *)
  mutable suspended : bool;  (* blocked on [suspend], waiting for [ready] *)
  mutable resume_task : task;  (* this thread's [Resume], allocated once *)
  mutable alive : bool;  (* false between [retire] and the next respawn *)
  mutable spawn_pending : bool;  (* a [respawn] event is enqueued but not yet run *)
  mutable teardown : (thread -> unit) list;
      (* teardown hooks, run by [retire] in registration order; persistent
         across retire/respawn cycles *)
}

and t = {
  queue : task Wheel.t;  (* the one event queue, keyed (clock, seq) *)
  mutable seq : int;
  cost : Cost_model.t;
  topology : Topology.t;
  n_threads : int;
  mutable threads : thread array;
  mutable stopped : bool;  (* set by [stop]: drains without resuming *)
  mutable hard_deadline : int;  (* [run_until] cutoff, virtual ns (max_int = none) *)
  oversub : float;  (* software threads per logical CPU; > 1 = oversubscribed *)
  quantum : int;  (* scheduling timeslice under oversubscription, virtual ns *)
  mutable controller : (thread -> int) option;
      (* schedule controller (model checking): consulted at every
         checkpoint, returns extra stall ns injected before the yield *)
  mutable tracer : Tracer.t;
      (* event recorder; [Tracer.disabled] (a branch-only no-op) by default *)
}

(* Constant constructors: performing one allocates no payload. The
   handler [spawn] installs already knows the thread it runs. *)
type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Suspend : unit Effect.t

let quantum_ns = 1_000_000  (* 1 virtual ms, a Linux-like timeslice *)

(* Queue-empty sentinel for [Wheel.pop_le_default]: never executed,
   recognised by physical equality in the dispatch loops. *)
let dummy_task : task = Run ignore

(* The one sentinel check both dispatch loops ([run] and [run_until]) go
   through, so they cannot drift on how "queue empty" is recognised. *)
let[@inline] is_live t = t != dummy_task

let create ?(cost = Cost_model.default) ~topology ~n_threads ~seed () =
  if n_threads <= 0 then invalid_arg "Sched.create: n_threads must be positive";
  let sched =
    {
      queue = Wheel.create ~dummy:dummy_task ();
      seq = 0;
      cost;
      topology;
      n_threads;
      threads = [||];
      stopped = false;
      hard_deadline = max_int;
      oversub = Topology.oversubscription topology ~n:n_threads;
      quantum = quantum_ns;
      controller = None;
      tracer = Tracer.disabled;
    }
  in
  let root_rng = Rng.create seed in
  let mk tid =
    let th =
      {
        tid;
        socket = Topology.socket_of_thread topology tid;
        core = Topology.core_of_thread topology tid;
        cpu_factor =
          (if Topology.shares_core topology ~n:n_threads tid then cost.Cost_model.smt_factor
           else 1.0);
        rng = Rng.split root_rng;
        metrics = Metrics.create ();
        sched;
        hooks = no_hooks ();
        clock = 0;
        in_free = false;
        in_flush = false;
        atomic_depth = 0;
        next_preempt = quantum_ns + (tid * quantum_ns / n_threads);
        pending = None;
        suspended = false;
        resume_task = Run ignore;
        alive = true;
        spawn_pending = false;
        teardown = [];
      }
    in
    th.resume_task <- Resume th;
    th
  in
  sched.threads <- Array.init n_threads mk;
  sched

let threads t = t.threads
let thread t i = t.threads.(i)
let cost t = t.cost
let topology t = t.topology
let n_threads t = t.n_threads

let set_tracer t tr =
  t.tracer <- tr;
  Tracer.attach tr ~n_threads:t.n_threads

let tracer t = t.tracer

let enqueue sched ~key task =
  sched.seq <- sched.seq + 1;
  Wheel.push sched.queue ~key ~seq:sched.seq task

(* Advance [th]'s clock by [ns] of *CPU work*, scaled by the SMT factor and
   attributed to [bucket]. Does not yield. *)
let work ?(scaled = true) th bucket ns =
  if ns < 0 then invalid_arg "Sched.work: negative cost";
  (* [cpu_factor = 1.0] (every thread on an unshared core) makes the
     scaling the identity — [int_of_float (float_of_int ns +. 0.5) = ns]
     for [ns >= 0] — so skip the float round-trip on this hot path. *)
  let ns =
    if scaled && th.cpu_factor <> 1.0 then
      int_of_float ((float_of_int ns *. th.cpu_factor) +. 0.5)
    else ns
  in
  th.clock <- th.clock + ns;
  Metrics.add th.metrics ~in_free:th.in_free ~in_flush:th.in_flush bucket ns

(* Charge [count] objects that each cost [per] ns of CPU work. The SMT
   scaling is applied to [per] once and the rounded result multiplied by
   [count], so the charge is bit-identical to a [count]-iteration loop of
   [work th bucket per] — every object in a run pays the same rounded
   constant — while touching the clock and metrics once. This is what makes
   flush/refill virtual-time charging O(runs) instead of O(objects). *)
let work_n ?(scaled = true) th bucket ~per ~count =
  if per < 0 then invalid_arg "Sched.work_n: negative cost";
  if count < 0 then invalid_arg "Sched.work_n: negative count";
  if count > 0 then begin
    let per =
      if scaled && th.cpu_factor <> 1.0 then
        int_of_float ((float_of_int per *. th.cpu_factor) +. 0.5)
      else per
    in
    let ns = count * per in
    th.clock <- th.clock + ns;
    Metrics.add th.metrics ~in_free:th.in_free ~in_flush:th.in_flush bucket ns
  end

(* Advance the clock by waiting time (not CPU work: no SMT scaling). *)
let wait th bucket ns =
  if ns < 0 then invalid_arg "Sched.wait: negative duration";
  if ns > 0 then begin
    th.clock <- th.clock + ns;
    Metrics.add th.metrics ~in_free:th.in_free ~in_flush:th.in_flush bucket ns
  end

let now th = th.clock

(* Under oversubscription a thread that has used up its timeslice loses the
   CPU to the other software threads sharing its logical processor: it goes
   idle for (k-1) timeslices. This is what makes thread counts beyond the
   machine so hostile to EBR — a preempted thread cannot announce, so the
   epoch stalls (the paper's 240-thread runs). *)
let maybe_preempt th =
  if th.sched.oversub > 1.0 && th.clock >= th.next_preempt then begin
    let away =
      int_of_float ((th.sched.oversub -. 1.0) *. float_of_int th.sched.quantum)
    in
    let t0 = th.clock in
    wait th Metrics.Idle away;
    th.next_preempt <- th.clock + th.sched.quantum;
    let tr = th.sched.tracer in
    if Tracer.enabled tr then begin
      Tracer.span tr Tracer.Preempt ~tid:th.tid ~ts:t0 ~dur:(th.clock - t0) ~a:0 ~b:0;
      Tracer.advance_run tr ~tid:th.tid ~now:th.clock
    end
  end

(* Yield to the scheduler; resumes when this thread is again minimal.
   Suppressed inside [atomically] sections. *)
let checkpoint th =
  if th.atomic_depth = 0 then begin
    let sched = th.sched in
    (* Both calls are self-guarded no-ops in the common case (tracing off,
       not oversubscribed); the guards here just skip the calls on the
       per-event hot path. *)
    if Tracer.enabled sched.tracer then Tracer.run_span sched.tracer ~tid:th.tid ~now:th.clock;
    if sched.oversub > 1.0 then maybe_preempt th;
    (match sched.controller with
    | None -> ()
    | Some f ->
        (* A schedule controller perturbs the interleaving by stalling the
           yielding thread: its heap key moves into the future, so another
           thread runs first. The stall is charged as idle (descheduled)
           time, exactly like an involuntary preemption. *)
        let d = f th in
        if d > 0 then begin
          let t0 = th.clock in
          wait th Metrics.Idle d;
          let tr = th.sched.tracer in
          if Tracer.enabled tr then begin
            Tracer.span tr Tracer.Stall ~tid:th.tid ~ts:t0 ~dur:(th.clock - t0) ~a:0 ~b:0;
            Tracer.advance_run tr ~tid:th.tid ~now:th.clock
          end
        end);
    (* Elide the yield when this thread would only pop itself right back:
       no other event is due at or before our clock. (A re-enqueued task
       gets a fresh, maximal seq, so any existing event with key <= clock
       pops first — if none exists the round trip is pure overhead.)
       [Wheel.has_le] may answer a conservative [true], which just performs
       the yield we would have performed anyway; schedules and digests are
       bit-identical either way. The yield must still happen when stopping
       or past the hard deadline so the dispatch loop can drop this
       continuation. *)
    if
      sched.stopped
      || th.clock > sched.hard_deadline
      || Wheel.has_le sched.queue ~bound:th.clock
    then begin
      th.metrics.Metrics.yields <- th.metrics.Metrics.yields + 1;
      if Tracer.enabled sched.tracer then
        Tracer.instant sched.tracer Tracer.Yield ~tid:th.tid ~ts:th.clock ~a:1 ~b:0;
      Effect.perform Yield
    end
    else begin
      th.metrics.Metrics.elided_yields <- th.metrics.Metrics.elided_yields + 1;
      if Tracer.enabled sched.tracer then
        Tracer.instant sched.tracer Tracer.Yield ~tid:th.tid ~ts:th.clock ~a:0 ~b:0
    end
  end

let set_controller sched f = sched.controller <- f

(* Run [f] as an atomic block: no other simulated thread is interleaved
   (checkpoints are suppressed), modelling a linearizable data structure
   operation. Virtual-time costs still accrue; lock contention inside the
   block degrades to release-time ([available_at]) serialization, and a
   lock another thread holds across a yield cannot be waited for: the
   [suspend] fails. *)
let atomically th f =
  th.atomic_depth <- th.atomic_depth + 1;
  match f () with
  | v ->
      th.atomic_depth <- th.atomic_depth - 1;
      v
  | exception e ->
      th.atomic_depth <- th.atomic_depth - 1;
      raise e

(* Explicit bracket form of [atomically] for per-operation hot loops,
   where the thunk would be a fresh closure per call. The caller owns
   exception safety: an escaping exception between enter and exit leaves
   checkpoints suppressed for the thread. *)
let[@inline] atomic_enter th = th.atomic_depth <- th.atomic_depth + 1
let[@inline] atomic_exit th = th.atomic_depth <- th.atomic_depth - 1

(* Block until another thread calls [ready]. Suspending inside an atomic
   section would let other threads run in the middle of a linearizable
   operation (which may hold, say, a descent path through a tree that
   they then change), so it fails loudly instead. *)
let suspend th =
  if th.atomic_depth > 0 then
    failwith
      (Printf.sprintf
         "Sched.suspend: thread %d would block inside an atomic section (depth %d); \
          atomic blocks must not wait on another thread"
         th.tid th.atomic_depth);
  Effect.perform Suspend

let ready th =
  if not th.suspended then invalid_arg "Sched.ready: thread is not suspended";
  th.suspended <- false;
  enqueue th.sched ~key:th.clock th.resume_task

(* The two park closures are built once per spawn, not once per effect:
   the handler returns the same [Some] for every yield of the thread. *)
let spawn sched th body =
  let park_yield =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        if not th.sched.stopped then begin
          th.pending <- Some k;
          enqueue th.sched ~key:th.clock th.resume_task
        end)
  in
  let park_suspend =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        if not th.sched.stopped then begin
          th.pending <- Some k;
          th.suspended <- true
        end)
  in
  let handled () =
    Effect.Deep.match_with body th
      {
        Effect.Deep.retc = (fun () -> ());
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) :
               ((a, unit) Effect.Deep.continuation -> unit) option ->
            match eff with Yield -> park_yield | Suspend -> park_suspend | _ -> None);
      }
  in
  enqueue sched ~key:th.clock (Run handled)

(* -- thread lifecycle (churn) -------------------------------------------- *)

let on_teardown th f = th.teardown <- f :: th.teardown

(* Retire thread [tid]: mark it dead, then run its teardown hook chain in
   registration order. [alive] flips *before* the hooks so that protocol
   code consulted during teardown (token passing, epoch scans, orphan
   adoption) already sees the thread as departed — otherwise a concurrent
   participant could hand the token to a half-dead thread and stall the
   ring. Teardown hooks run on the calling coroutine and may charge
   virtual time (and even suspend on bin locks), so retirement is
   cooperative: the runner calls this from the retiring thread's own body
   at an operation boundary. The guards below are the churn analogue of
   [Sched.wait]'s negative-duration check: a bogus retire must fail loudly
   instead of corrupting the event queue with a dead thread's resume. *)
let retire sched ~tid =
  if tid < 0 || tid >= sched.n_threads then
    failwith
      (Printf.sprintf "Sched.retire: unknown tid %d (threads are 0..%d)" tid
         (sched.n_threads - 1));
  let th = sched.threads.(tid) in
  if not th.alive then failwith (Printf.sprintf "Sched.retire: thread %d is already retired" tid);
  th.alive <- false;
  th.metrics.Metrics.thread_retires <- th.metrics.Metrics.thread_retires + 1;
  if Tracer.enabled sched.tracer then
    Tracer.instant sched.tracer Tracer.Thread_retire ~tid ~ts:th.clock ~a:0 ~b:0;
  List.iter (fun f -> f th) (List.rev th.teardown)

(* Re-spawn a retired thread at virtual time [at] (>= its clock). The
   downtime is charged as idle immediately — the thread's clock equals
   [at] when the spawn event pops, and dispatch order stays a pure
   function of (key, seq), so respawns are deterministic. [spawn_pending]
   guards against enqueuing two coroutines for one thread. *)
let respawn sched ~tid ~at body =
  if tid < 0 || tid >= sched.n_threads then
    failwith
      (Printf.sprintf "Sched.respawn: unknown tid %d (threads are 0..%d)" tid
         (sched.n_threads - 1));
  let th = sched.threads.(tid) in
  if th.alive then failwith (Printf.sprintf "Sched.respawn: thread %d is still alive" tid);
  if th.spawn_pending then
    failwith (Printf.sprintf "Sched.respawn: thread %d already has a respawn scheduled" tid);
  if at < th.clock then
    failwith
      (Printf.sprintf "Sched.respawn: thread %d spawn time %d is before its clock %d" tid at
         th.clock);
  th.spawn_pending <- true;
  wait th Metrics.Idle (at - th.clock);
  spawn sched th (fun th ->
      th.spawn_pending <- false;
      th.alive <- true;
      th.metrics.Metrics.thread_spawns <- th.metrics.Metrics.thread_spawns + 1;
      if Tracer.enabled sched.tracer then begin
        (* The downtime was descheduled, not Run: skip the Run cursor. *)
        Tracer.advance_run sched.tracer ~tid ~now:th.clock;
        Tracer.instant sched.tracer Tracer.Thread_spawn ~tid ~ts:th.clock ~a:0 ~b:0
      end;
      body th)

let exec = function
  | Run f -> f ()
  | Resume th -> (
      match th.pending with
      | Some k ->
          th.pending <- None;
          Effect.Deep.continue k ()
      | None -> assert false)

(* Run until no runnable thread remains. Threads still suspended on a lock
   when the queue drains are abandoned (their continuations are dropped),
   which models the end of a timed trial. The sentinel compare (instead of
   an option) keeps the dispatch loop allocation-free per event. *)
let run sched =
  let q = sched.queue in
  let rec loop () =
    let t = Wheel.pop_le_default q ~bound:max_int in
    if is_live t then begin
      exec t;
      loop ()
    end
  in
  loop ()

let set_hard_deadline sched ns = sched.hard_deadline <- ns

(* Run until no runnable thread remains or virtual time would pass the hard
   deadline: at that point remaining continuations are abandoned, modelling
   the end of a wall-clock-limited trial even if some thread is stuck in an
   enormous batch free. The deadline is a plain field read per event (set
   mid-run via [set_hard_deadline]) and the queue is touched once per event
   ([pop_le_default]), keeping the dispatch loop allocation- and
   indirection-free. *)
let run_until sched =
  let q = sched.queue in
  let rec loop () =
    let t = Wheel.pop_le_default q ~bound:sched.hard_deadline in
    if is_live t then begin
      exec t;
      loop ()
    end
    else if not (Wheel.is_empty q) then sched.stopped <- true
  in
  loop ()

let stop sched = sched.stopped <- true
