(* The "none" reclaimer: leak everything. Often (incorrectly, as the paper
   shows) described as an upper bound on reclamation performance. Retired
   objects are counted but never freed, so the allocator can never recycle
   them and every allocation is eventually fresh memory. *)

open Simcore

(* Every reclaimer emits a [Retire] instant beside [metrics.retires]. *)
let trace_retire (th : Sched.thread) h =
  let tr = Sched.tracer th.Sched.sched in
  if Tracer.enabled tr then
    Tracer.instant tr Tracer.Retire ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:h ~b:0

let make (ctx : Smr_intf.ctx) =
  let n = Sched.n_threads ctx.Smr_intf.sched in
  let leaked = Array.make n 0 in
  {
    Smr_intf.name = "none";
    begin_op = (fun _ -> ());
    end_op = (fun _ -> ());
    retire =
      (fun th h ->
        leaked.(th.Sched.tid) <- leaked.(th.Sched.tid) + 1;
        th.Sched.metrics.Metrics.retires <- th.Sched.metrics.Metrics.retires + 1;
        trace_retire th h);
    (* Leaked objects stay leaked; nothing to hand off on thread exit. *)
    on_thread_exit = (fun _ -> ());
    per_node_ns = 0;
    uses_grace_periods = false;
    garbage_of = (fun tid -> leaked.(tid));
    total_garbage = (fun () -> Array.fold_left ( + ) 0 leaked);
  }

(* A deliberately unsafe reclaimer that frees at retire time, with no grace
   period. Exists so the test suite can demonstrate that the safety
   validator catches real violations. *)
let unsafe_immediate (ctx : Smr_intf.ctx) =
  {
    Smr_intf.name = "unsafe-immediate";
    begin_op = (fun _ -> ());
    end_op = (fun _ -> ());
    retire =
      (fun th h ->
        (match ctx.Smr_intf.safety with
        | Some s -> Safety.note_retire s ~handle:h ~time:(Sched.now th)
        | None -> ());
        th.Sched.metrics.Metrics.retires <- th.Sched.metrics.Metrics.retires + 1;
        trace_retire th h;
        Free_policy.free_one ctx.Smr_intf.policy th h);
    (* Everything was freed at retire; nothing outstanding at thread exit. *)
    on_thread_exit = (fun _ -> ());
    per_node_ns = 0;
    uses_grace_periods = true;
    garbage_of = (fun _ -> 0);
    total_garbage = (fun () -> 0);
  }
