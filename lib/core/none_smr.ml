(* The "none" reclaimer: leak everything. Often (incorrectly, as the paper
   shows) described as an upper bound on reclamation performance. Retired
   objects are counted but never freed, so the allocator can never recycle
   them and every allocation is eventually fresh memory. *)

open Simcore

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
        Smr_intf.count_retire th h);
    (* Leaked objects stay leaked; nothing to hand off on thread exit. *)
    on_thread_exit = (fun _ -> ());
    per_node_ns = 0;
    uses_grace_periods = false;
    total_garbage = Smr_intf.total_garbage ctx (Array.get leaked);
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
        Smr_intf.count_retire th h;
        Free_policy.free_one ctx.Smr_intf.policy th h);
    (* Everything was freed at retire; nothing outstanding at thread exit. *)
    on_thread_exit = (fun _ -> ());
    per_node_ns = 0;
    uses_grace_periods = true;
    total_garbage = (fun () -> 0);
  }
