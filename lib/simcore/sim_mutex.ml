(* Virtual-time mutex with FIFO queueing and a NUMA transfer penalty.

   This is the component that turns "many threads flush their caches at
   once" into multi-millisecond free calls: waiting time accumulates in the
   [Lock] metrics bucket exactly like perf's je_malloc_mutex_lock_slow
   samples. Two contention mechanisms are modelled:

   - [available_at]: the lock may have been released at a virtual time in
     the acquirer's future (the holder ran its critical section without
     yielding); the acquirer spins until then.
   - a waiter queue: if the lock is held when an acquirer arrives, it
     suspends and is handed the lock FIFO at release time. *)

type t = {
  name : string;
  mutable locked : bool;
  mutable available_at : int;  (* virtual time of the last release *)
  mutable holder_socket : int;  (* socket of the last holder, -1 initially *)
  waiters : Sched.thread Queue.t;
  mutable contended_acquires : int;
  mutable acquires : int;
  mutable acquired_at : int;  (* virtual time of the last acquisition *)
}

let create ?(name = "mutex") () =
  {
    name;
    locked = false;
    available_at = 0;
    holder_socket = -1;
    waiters = Queue.create ();
    contended_acquires = 0;
    acquires = 0;
    acquired_at = 0;
  }

let transfer_cost (cost : Cost_model.t) m (th : Sched.thread) =
  if m.holder_socket >= 0 && m.holder_socket <> th.Sched.socket then
    cost.Cost_model.lock_acquire + cost.Cost_model.lock_remote_extra
  else cost.Cost_model.lock_acquire

let wake_cost (cost : Cost_model.t) m (th : Sched.thread) =
  if m.holder_socket >= 0 && m.holder_socket <> th.Sched.socket then
    cost.Cost_model.lock_wake_remote
  else cost.Cost_model.lock_wake_local

(* Acquire [m]. Yields first so acquisitions happen in global virtual-time
   order; all waiting time is charged to the [Lock] bucket. When tracing is
   enabled the charges are mirrored as events — [Lock_wait] carries exactly
   the waiting ns charged, [Lock_acquire] exactly the wake+transfer overhead
   — so the profiler can rebuild [lock_ns] bit-exactly from the trace. *)
let lock m (th : Sched.thread) =
  Sched.checkpoint th;
  let cost = Sched.cost th.Sched.sched in
  m.acquires <- m.acquires + 1;
  let tr = Sched.tracer th.Sched.sched in
  if m.locked then begin
    m.contended_acquires <- m.contended_acquires + 1;
    Queue.push th m.waiters;
    Sched.suspend th;
    (* Resumed by [unlock] at the release time: we slept, so we pay the
       futex wake latency before proceeding — and because our own release
       time moves back accordingly, sleepers queued behind us see it too:
       the convoy the paper observed. *)
    let wk = wake_cost cost m th in
    let tc = transfer_cost cost m th in
    Sched.work ~scaled:false th Metrics.Lock wk;
    Sched.work ~scaled:false th Metrics.Lock tc;
    m.holder_socket <- th.Sched.socket;
    if Tracer.enabled tr then
      Tracer.instant tr Tracer.Lock_acquire ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:(wk + tc)
        ~b:(Tracer.intern tr m.name)
  end
  else begin
    let wait = m.available_at - Sched.now th in
    let wk =
      if wait > 0 then begin
        m.contended_acquires <- m.contended_acquires + 1;
        Sched.wait th Metrics.Lock wait;
        (* Short waits are absorbed by spinning; waits past the spin budget
           mean we slept and must be woken. *)
        if wait > cost.Cost_model.lock_spin_ns then begin
          let wk = wake_cost cost m th in
          Sched.work ~scaled:false th Metrics.Lock wk;
          wk
        end
        else 0
      end
      else 0
    in
    let tc = transfer_cost cost m th in
    Sched.work ~scaled:false th Metrics.Lock tc;
    m.locked <- true;
    m.holder_socket <- th.Sched.socket;
    if Tracer.enabled tr then begin
      let id = Tracer.intern tr m.name in
      if wait > 0 then
        Tracer.instant tr Tracer.Lock_wait ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:wait ~b:id;
      Tracer.instant tr Tracer.Lock_acquire ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:(wk + tc)
        ~b:id
    end
  end;
  m.acquired_at <- Sched.now th

let unlock m (th : Sched.thread) =
  if not m.locked then invalid_arg "Sim_mutex.unlock: not locked";
  let release_time = Sched.now th in
  let tr = Sched.tracer th.Sched.sched in
  if Tracer.enabled tr then
    Tracer.span tr Tracer.Lock_hold ~tid:th.Sched.tid ~ts:m.acquired_at
      ~dur:(release_time - m.acquired_at) ~a:0 ~b:(Tracer.intern tr m.name);
  m.available_at <- release_time;
  match Queue.take_opt m.waiters with
  | None -> m.locked <- false
  | Some w ->
      (* FIFO handoff: the waiter's clock jumps to the release time and the
         jump is charged as lock waiting. The [Lock_wait] event is emitted
         here, by the releaser, so the charge is in the trace even if the
         waiter is abandoned at trial end before it resumes. *)
      let wait = release_time - Sched.now w in
      if wait > 0 then begin
        Sched.wait w Metrics.Lock wait;
        if Tracer.enabled tr then
          Tracer.instant tr Tracer.Lock_wait ~tid:w.Sched.tid ~ts:(Sched.now w) ~a:wait
            ~b:(Tracer.intern tr m.name)
      end;
      Sched.ready w

let with_lock m th f =
  lock m th;
  match f () with
  | v ->
      unlock m th;
      v
  | exception e ->
      unlock m th;
      raise e

let contention_ratio m =
  if m.acquires = 0 then 0.
  else float_of_int m.contended_acquires /. float_of_int m.acquires
