(** Grace-period safety validator.

    In C/C++ an SMR bug is a segfault; here it is a checkable invariant:
    an object retired at time [r] may only be freed once every other thread
    has begun a new operation after [r] (the correctness argument of paper
    §4). Violations are recorded, not raised, so a trial completes and
    reports all of them.

    The validator applies to grace-period reclaimers (epoch- and
    token-based); pointer-based schemes are safe by an argument invisible
    at operation granularity (see {!Smr_intf.t.uses_grace_periods}). *)

type violation = {
  handle : int;
  retired_at : int;
  freed_at : int;
  blocking_thread : int;  (** thread whose op began before the retire *)
}

type t

val create : n:int -> t
(** A validator for threads [0, n). *)

val note_op_begin : t -> tid:int -> time:int -> unit
(** Record that thread [tid]'s current operation began at [time]. *)

val note_quiescent : t -> tid:int -> unit
(** Thread [tid] left the workload loop and can never hold a reference. *)

val note_retire : t -> handle:int -> time:int -> unit

val check_free : t -> tid:int -> handle:int -> time:int -> unit
(** Validate that freeing [handle] now respects the grace period. *)

val violations : t -> violation list
val violation_count : t -> int

val checked_frees : t -> int
(** Number of frees that went through the validator. *)

val pp_violation : Format.formatter -> violation -> unit
