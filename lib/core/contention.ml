(* Scaling of shared-announcement costs with thread count.

   Announcement arrays (epoch slots, hazard pointers, eras) are true-shared
   cache lines: every reclaimer scan pulls them into remote caches, so every
   publication invalidates up to n copies. We model the cost of writing (or
   remotely reading) such a slot as a base cost multiplied by a factor that
   grows linearly with the number of participating threads, saturating the
   observed behaviour that heavily-synchronizing reclaimers (hazard, he, wfe)
   stop scaling: their per-operation cost grows with n, so their aggregate
   throughput flattens (paper Fig 11a). *)

let coefficient = 1. /. 12.

let factor ~n = 1. +. (coefficient *. float_of_int (max 0 (n - 1)))

let scaled ~n ns = int_of_float ((float_of_int ns *. factor ~n) +. 0.5)

(* Charge a contention-scaled announcement write. Used by reclaimers whose
   announcement slots are on the read path of every scan (hazard pointers,
   eras); plain epoch announcements are single-writer slots read rarely and
   are charged unscaled via [charge]. *)
let announce (ctx : Smr_intf.ctx) (th : Simcore.Sched.thread) ns =
  let n = Simcore.Sched.n_threads ctx.sched in
  Simcore.Sched.work th Simcore.Metrics.Smr (scaled ~n ns)

(* Charge an unscaled cost to the SMR bucket. *)
let charge (th : Simcore.Sched.thread) ns = Simcore.Sched.work th Simcore.Metrics.Smr ns
