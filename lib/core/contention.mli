(** Scaling of shared-announcement costs with thread count.

    Hazard pointers and eras are written on the hot path and read by every
    reclamation scan: their cache lines are true-shared, so publication cost
    grows with the number of participating threads. This is why
    heavily-synchronizing reclaimers (hazard, he, wfe) stop scaling in the
    paper's Figure 11a. Plain epoch announcements are charged unscaled. *)

val coefficient : float

val factor : n:int -> float
(** [1 + coefficient * (n - 1)]. *)

val scaled : n:int -> int -> int
(** A base cost multiplied by {!factor}. *)

val announce : Smr_intf.ctx -> Simcore.Sched.thread -> int -> unit
(** Charge a contention-scaled announcement write to the SMR bucket. *)

val charge : Simcore.Sched.thread -> int -> unit
(** Charge an unscaled cost to the SMR bucket. *)
