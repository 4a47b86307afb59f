(* The reclaimer interface.

   A reclaimer is driven by the experiment runtime:
   - [begin_op] at the start of every data structure operation (epoch
     announcements, token checks, bag rotation, AF draining);
   - [end_op] at the end (quiescence announcements);
   - [retire] whenever the data structure unlinks a node;
   - [on_thread_exit] when a participant retires from the population
     (deregistration: token handoff, hazard-slot release, bag adoption);
   - [per_node_ns] is the protection cost the reclaimer imposes on every
     node the operation traverses (hazard pointer publication etc.), before
     contention scaling — the runtime charges it because only the data
     structure knows how many nodes an operation visited.

   Below the types is the bookkeeping every reclaimer shares. Schemes
   differ only in how they detect a grace period (Brown's record-manager
   split), so each fact they report — a retire, an epoch, the garbage an
   epoch holds — has one emission site here, and the metrics counter, the
   trace and the hooks cannot drift apart. *)

open Simcore

type t = {
  name : string;
  begin_op : Sched.thread -> unit;
  end_op : Sched.thread -> unit;
  retire : Sched.thread -> int -> unit;
  on_thread_exit : Sched.thread -> unit;
      (* deregister a retiring participant so the survivors never wait on it *)
  per_node_ns : int;
  uses_grace_periods : bool;
      (* true for epoch-style schemes whose safety the validator can check *)
  total_garbage : unit -> int;
}

(* Everything a reclaimer implementation needs. *)
type ctx = {
  sched : Sched.t;
  alloc : Alloc.Alloc_intf.t;
  policy : Free_policy.t;
  safety : Safety.t option;
}

let[@inline] count_retire (th : Sched.thread) h =
  th.Sched.metrics.Metrics.retires <- th.Sched.metrics.Metrics.retires + 1;
  let tr = Sched.tracer th.Sched.sched in
  if Tracer.enabled tr then
    Tracer.instant tr Tracer.Retire ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:h ~b:0

let[@inline] note_retire ctx (th : Sched.thread) h =
  Sched.work th Metrics.Smr (Sched.cost ctx.sched).Cost_model.retire;
  (match ctx.safety with
  | Some s -> Safety.note_retire s ~handle:h ~time:(Sched.now th)
  | None -> ());
  count_retire th h

let epoch_advance (th : Sched.thread) ~epoch =
  th.Sched.metrics.Metrics.epochs <- th.Sched.metrics.Metrics.epochs + 1;
  (let tr = Sched.tracer th.Sched.sched in
   if Tracer.enabled tr then
     Tracer.instant tr Tracer.Epoch_advance ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:epoch ~b:0);
  th.Sched.hooks.Sched.on_epoch_advance ~time:(Sched.now th) ~epoch

let epoch_garbage (th : Sched.thread) ~epoch ~held =
  (let tr = Sched.tracer th.Sched.sched in
   if Tracer.enabled tr then
     Tracer.instant tr Tracer.Epoch_garbage ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:held
       ~b:epoch);
  th.Sched.hooks.Sched.on_epoch_garbage ~epoch ~count:held

let next_live ctx tid =
  let n = Sched.n_threads ctx.sched in
  let rec go k remaining =
    if remaining = 0 then -1
    else
      let next = (k + 1) mod n in
      if (Sched.thread ctx.sched next).Sched.alive then next else go next (remaining - 1)
  in
  go tid (n - 1)

let total_garbage ctx held_by () =
  let sum = ref 0 in
  for tid = 0 to Sched.n_threads ctx.sched - 1 do
    sum := !sum + held_by tid + Free_policy.pending ctx.policy tid
  done;
  !sum

type generations = { mutable cur : Vec.t; mutable prev : Vec.t }

let generations () = { cur = Vec.create (); prev = Vec.create () }
let held g = Vec.length g.cur + Vec.length g.prev

let rotate g =
  let stash = g.prev in
  g.prev <- g.cur;
  g.cur <- stash;
  stash

(* Both generations go into the successor's *current* one: they restart
   the two-pass wait from scratch, which is conservative but safe for
   every two-generation scheme. With no live successor they stay parked
   under the dead tid, still counted by [total_garbage]. *)
let hand_off ctx (th : Sched.thread) states =
  let g = states.(th.Sched.tid) in
  let next = next_live ctx th.Sched.tid in
  if next >= 0 && held g > 0 then begin
    let dst = states.(next) in
    Sched.work th Metrics.Smr ctx.policy.Free_policy.splice_cost;
    Vec.append dst.cur g.cur;
    Vec.append dst.cur g.prev;
    Vec.clear g.cur;
    Vec.clear g.prev
  end
