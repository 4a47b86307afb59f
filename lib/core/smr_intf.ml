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
     structure knows how many nodes an operation visited. *)

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
  garbage_of : int -> int;  (* unreclaimed objects held for thread [tid] *)
  total_garbage : unit -> int;
}

(* Everything a reclaimer implementation needs. *)
type ctx = {
  sched : Sched.t;
  alloc : Alloc.Alloc_intf.t;
  policy : Free_policy.t;
  safety : Safety.t option;
}

let n_threads ctx = Sched.n_threads ctx.sched
