(** The reclaimer interface.

    A reclaimer is driven by the experiment runtime: [begin_op]/[end_op]
    around every data-structure operation, [retire] whenever a node is
    unlinked, [on_thread_exit] when a participant leaves the population
    (thread churn). [per_node_ns] is the protection cost imposed on every node an
    operation traverses (hazard-pointer publication etc.); the runtime
    charges it — contention-scaled — because only the data structure knows
    how many nodes were visited. *)

open Simcore

type t = {
  name : string;
  begin_op : Sched.thread -> unit;
  end_op : Sched.thread -> unit;
  retire : Sched.thread -> int -> unit;
  on_thread_exit : Sched.thread -> unit;
      (** deregister a retiring participant: hand off the token, release
          hazard slots, adopt limbo bags — whatever the scheme needs so the
          survivors never wait on a dead thread *)
  per_node_ns : int;
  uses_grace_periods : bool;
      (** true for schemes whose safety the grace-period validator checks *)
  garbage_of : int -> int;  (** unreclaimed objects held for a thread *)
  total_garbage : unit -> int;
}

(** Everything a reclaimer implementation needs. *)
type ctx = {
  sched : Sched.t;
  alloc : Alloc.Alloc_intf.t;
  policy : Free_policy.t;
  safety : Safety.t option;
}

val n_threads : ctx -> int
