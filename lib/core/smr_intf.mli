(** The reclaimer interface.

    A reclaimer is driven by the experiment runtime: [begin_op]/[end_op]
    around every data-structure operation, [retire] whenever a node is
    unlinked, [on_thread_exit] when a participant leaves the population
    (thread churn). [per_node_ns] is the protection cost imposed on every node an
    operation traverses (hazard-pointer publication etc.); the runtime
    charges it — contention-scaled — because only the data structure knows
    how many nodes were visited.

    The functions after the types are the bookkeeping every reclaimer
    shares, so each reported fact has one emission site. *)

open Simcore

type t = {
  name : string;  (** the registry base name, in either free policy (no [_af]) *)
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
  total_garbage : unit -> int;
      (** retired or safe-but-unfreed objects, over every thread *)
}

(** Everything a reclaimer implementation needs. *)
type ctx = {
  sched : Sched.t;
  alloc : Alloc.Alloc_intf.t;
  policy : Free_policy.t;
  safety : Safety.t option;
}

val count_retire : Sched.thread -> int -> unit
(** Count a retire in [metrics.retires] and trace it as a [Retire]
    instant. *)

val note_retire : ctx -> Sched.thread -> int -> unit
(** A reclaimer's retire: charge [Cost_model.retire], tell the validator,
    then {!count_retire}. *)

val epoch_advance : Sched.thread -> epoch:int -> unit
(** Count an epoch (or reclamation pass) in [metrics.epochs], trace it as
    an [Epoch_advance] instant and report it to [on_epoch_advance]. *)

val epoch_garbage : Sched.thread -> epoch:int -> held:int -> unit
(** Report [held] objects awaiting their grace period at [epoch]: an
    [Epoch_garbage] instant and [on_epoch_garbage]. *)

val next_live : ctx -> int -> int
(** The next live thread after a tid on the ring; [-1] if none. *)

val total_garbage : ctx -> (int -> int) -> unit -> int
(** [total_garbage ctx held_by] sums, over every thread, the objects the
    reclaimer holds for it plus the free policy's pending ones. *)

(** A per-thread two-generation limbo bag: a pass frees [prev], whose
    objects have waited a full pass interval. *)
type generations = { mutable cur : Vec.t; mutable prev : Vec.t }

val generations : unit -> generations
val held : generations -> int

val rotate : generations -> Vec.t
(** Open a new generation: [cur] becomes [prev] and the old [prev],
    returned for the caller to dispose, becomes [cur]. *)

val hand_off : ctx -> Sched.thread -> generations array -> unit
(** Deregistration: move the leaving thread's generations into the next
    live thread's [cur], paying the policy's splice cost. *)
