(* Hazard-pointer SMR (Michael) — the genuine non-epoch reclaimer in the
   zoo, registered as "hazard".

   Real HP publishes the address of every node a thread is about to read
   into a per-thread hazard slot; a scan frees exactly the retired objects
   held in no published slot. An operation-granularity simulation cannot
   observe which node a thread holds (see the note in [Safety]), so this
   variant models protection at the finest granularity the simulator can
   observe: an operation protects everything it could have read since it
   began, and the protection expires when the thread *begins its next
   operation* — the earliest point the simulator can observe that its slots
   were re-published. Concretely each thread's slot set is summarized by
   the virtual time its current-or-latest operation began ([op_start];
   [max_int] until a thread's first op), and a scan may free a retired
   object iff its retire time is at or before every *other* thread's op
   begin time — exactly the grace-period rule [Safety] checks, so the
   validator is a genuine oracle for this reclaimer.

   What makes this HP and not another epoch scheme is the reclamation
   structure, which is exactly what the paper's batch-free question is
   about:
   - retires go to a per-thread retire list tagged with their retire time;
     there is no global epoch, no token, and no limbo-bag rotation;
   - when the list reaches [scan_threshold] the thread scans all published
     slots (paying [slots_per_thread * n] slot reads) and makes a
     *per-object* decision for each entry — survivors stay on the list,
     the rest go to the free policy (immediately under [Batch], trickled
     under [Amortized k]);
   - a stalled thread pins only objects retired after its operation began;
     it can never stall a global epoch because there is none.

   The protect/validate loop is charged, not simulated: publication of a
   hazard pointer per visited node is [per_node_ns] (contention-scaled by
   the runtime), and a protect loop re-runs — an extra publication plus
   re-read — whenever another thread retired something since this
   thread's previous operation, the observable proxy for "the pointer
   changed under us". Retries land in the [hp_protect_retries]
   counter and as [Hp_protect] trace instants; scans in [hp_scans] and
   [Hp_scan] spans; the retire-list high-water mark in [max_retired]. *)

open Simcore

let slots_per_thread = 3

type thread_state = {
  mutable rl_handle : Vec.t;  (* retired handles, in retire order *)
  mutable rl_time : Vec.t;  (* parallel vector of retire times *)
  mutable keep_handle : Vec.t;  (* scan scratch: surviving entries *)
  mutable keep_time : Vec.t;
  scratch : Vec.t;  (* scan scratch: reclaimable handles for dispose *)
  mutable seen_retires : int;  (* global retire count at last protect *)
}

type t = {
  ctx : Smr_intf.ctx;
  scan_threshold : int;
  protect_retry_ns : int;  (* re-publish + re-read on a failed validate *)
  clear_slots_ns : int;  (* clearing the slots at op end *)
  op_start : int array;  (* per thread, latest op begin; max_int = never began *)
  mutable total_retires : int;  (* global, drives the retry model *)
  states : thread_state array;
}

(* Earliest op-begin among every thread except [tid]: the oldest operation
   whose slots a scan must respect. A thread between operations still
   blocks at its last op-begin time — only beginning a new op (or never
   having begun one, [max_int]) proves its slots are clear at op
   granularity. *)
let min_other_op_start t ~tid =
  let m = ref max_int in
  for j = 0 to Array.length t.op_start - 1 do
    if j <> tid && t.op_start.(j) < !m then m := t.op_start.(j)
  done;
  !m

let begin_op t (th : Sched.thread) =
  let tid = th.Sched.tid in
  t.op_start.(tid) <- Sched.now th;
  Free_policy.tick t.ctx.Smr_intf.policy th;
  let st = t.states.(tid) in
  (* Protect/validate loop for the operation's entry pointer: one retry —
     an extra contention-scaled publication — whenever anything was retired
     since this thread last protected. *)
  if st.seen_retires <> t.total_retires then begin
    st.seen_retires <- t.total_retires;
    Contention.announce t.ctx th t.protect_retry_ns;
    th.Sched.metrics.Metrics.hp_protect_retries <-
      th.Sched.metrics.Metrics.hp_protect_retries + 1;
    let tr = Sched.tracer th.Sched.sched in
    if Tracer.enabled tr then
      Tracer.instant tr Tracer.Hp_protect ~tid ~ts:(Sched.now th) ~a:1 ~b:0
  end

let retire t (th : Sched.thread) h =
  let st = t.states.(th.Sched.tid) in
  Smr_intf.note_retire t.ctx th h;
  Vec.push st.rl_handle h;
  Vec.push st.rl_time (Sched.now th);
  t.total_retires <- t.total_retires + 1;
  let len = Vec.length st.rl_handle in
  if len > th.Sched.metrics.Metrics.max_retired then
    th.Sched.metrics.Metrics.max_retired <- len

(* One scan: read every published slot, then decide each retired entry
   individually. Counted as a reclamation pass in [epochs] like the
   buffered family, so the trial's passes column stays comparable. *)
let scan t (th : Sched.thread) st =
  let tid = th.Sched.tid in
  let n = Sched.n_threads t.ctx.Smr_intf.sched in
  let cost = Sched.cost t.ctx.Smr_intf.sched in
  let entering = Vec.length st.rl_handle in
  let t0 = Sched.now th in
  Sched.work_n th Metrics.Smr ~per:cost.Cost_model.read_slot ~count:(slots_per_thread * n);
  let limit = min_other_op_start t ~tid in
  for i = 0 to entering - 1 do
    let h = Vec.unsafe_get st.rl_handle i in
    let at = Vec.unsafe_get st.rl_time i in
    if at <= limit then Vec.push st.scratch h
    else begin
      Vec.push st.keep_handle h;
      Vec.push st.keep_time at
    end
  done;
  let freed = Vec.length st.scratch in
  (* Survivors become the new retire list; the drained pair is reused as
     next scan's scratch. *)
  let rh = st.rl_handle and rt = st.rl_time in
  Vec.clear rh;
  Vec.clear rt;
  st.rl_handle <- st.keep_handle;
  st.rl_time <- st.keep_time;
  st.keep_handle <- rh;
  st.keep_time <- rt;
  th.Sched.metrics.Metrics.hp_scans <- th.Sched.metrics.Metrics.hp_scans + 1;
  let epoch = th.Sched.metrics.Metrics.epochs + 1 in
  Smr_intf.epoch_advance th ~epoch;
  Smr_intf.epoch_garbage th ~epoch ~held:entering;
  Free_policy.dispose t.ctx.Smr_intf.policy th st.scratch;
  let tr = Sched.tracer th.Sched.sched in
  if Tracer.enabled tr then
    Tracer.span tr Tracer.Hp_scan ~tid ~ts:t0 ~dur:(Sched.now th - t0) ~a:freed ~b:entering

(* The scan runs at operation end, outside the data structure op (retire is
   called mid-update); the scanning thread's own operation never blocks its
   own scan ([min_other_op_start] excludes it). [op_start] is deliberately
   NOT reset here: at op granularity a thread's protection only provably
   ends when it begins its next operation. *)
let end_op t (th : Sched.thread) =
  let tid = th.Sched.tid in
  let st = t.states.(tid) in
  if Vec.length st.rl_handle >= t.scan_threshold then scan t th st;
  Contention.charge th t.clear_slots_ns

(* Deregistration: release the dying thread's hazard slots — resetting
   [op_start] to [max_int] (never began), so [min_other_op_start] stops
   treating its last operation as forever in flight — and hand its retire
   list to the next live thread (orphan adoption, scanned at the adopter's
   next threshold scan, retire times preserved). With no live successor the
   list stays parked under the dead tid, still counted by [total_garbage]. *)
let on_thread_exit t (th : Sched.thread) =
  let tid = th.Sched.tid in
  let st = t.states.(tid) in
  t.op_start.(tid) <- max_int;
  Contention.charge th t.clear_slots_ns;
  let next_live = Smr_intf.next_live t.ctx tid in
  if next_live >= 0 && Vec.length st.rl_handle > 0 then begin
    let dst = t.states.(next_live) in
    Sched.work th Metrics.Smr t.ctx.Smr_intf.policy.Free_policy.splice_cost;
    Vec.append dst.rl_handle st.rl_handle;
    Vec.append dst.rl_time st.rl_time;
    Vec.clear st.rl_handle;
    Vec.clear st.rl_time
  end

let make ~scan_threshold (ctx : Smr_intf.ctx) =
  let n = Sched.n_threads ctx.Smr_intf.sched in
  let t =
    {
      ctx;
      scan_threshold;
      protect_retry_ns = 75;
      clear_slots_ns = 10;
      op_start = Array.make n max_int;
      total_retires = 0;
      states =
        Array.init n (fun _ ->
            {
              rl_handle = Vec.create ();
              rl_time = Vec.create ();
              keep_handle = Vec.create ();
              keep_time = Vec.create ();
              scratch = Vec.create ();
              seen_retires = 0;
            });
    }
  in
  {
    Smr_intf.name = "hazard";
    begin_op = begin_op t;
    end_op = end_op t;
    retire = retire t;
    on_thread_exit = on_thread_exit t;
    per_node_ns = 75;  (* hazard publication + fence per visited node *)
    (* Frees satisfy the grace-period rule by construction (an object is
       freed only when no other in-flight op predates its retirement), so
       the validator is a genuine oracle for this reclaimer. *)
    uses_grace_periods = true;
    total_garbage = Smr_intf.total_garbage ctx (fun tid -> Vec.length t.states.(tid).rl_handle);
  }
