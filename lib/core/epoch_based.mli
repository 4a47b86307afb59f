(** Epoch based reclamation with rotating limbo bags: DEBRA and QSBR.

    A global epoch, a single-writer multi-reader announcement array, and
    three limbo bags per thread. A thread announces the epoch at operation
    start; every [check_every] operations it reads one other thread's
    announcement round-robin, and the first thread to observe everyone in
    the current epoch advances it (restarting its scan whenever the epoch
    moves under it). Entering epoch [e] disposes bags tagged [<= e-3]: the
    third epoch absorbs announcement skew, exactly like DEBRA's three-bag
    rotation. *)

val make :
  name:string -> check_every:int -> announce_every_op:bool -> Smr_intf.ctx -> Smr_intf.t

val debra : check_every:int -> Smr_intf.ctx -> Smr_intf.t
(** DEBRA: announce only on epoch change; scan one slot every
    [check_every] operations. *)

val qsbr : Smr_intf.ctx -> Smr_intf.t
(** Quiescent-state based reclamation: announce quiescence and check a slot
    on every operation. *)
