(* Grace-period safety validator.

   In C/C++ an SMR bug is a segfault; here it is a checkable invariant. For
   reclaimers that rely on grace periods (every epoch-based scheme), an
   object retired at time [r] may only be freed once every *other* thread
   has begun a new operation after [r] — the correctness argument of the
   paper's Section 4. The validator records each thread's latest
   operation-begin time and each handle's retire time, and flags any free
   that violates the rule.

   Pointer-based reclaimers (hazard pointers/eras) are safe by a different
   argument that an operation-granularity simulation cannot observe, so the
   validator is only attached to grace-period reclaimers (see
   [Smr_intf.uses_grace_periods]).

   Cost: O(1) per free, amortized. [floor] is a lower bound on every
   recorded op-begin time [>= 0]. A free whose object was retired at or
   before [floor] cannot be blocked by any thread, so it returns without
   scanning. Only [note_op_begin] can lower an op-begin time (a respawned
   thread goes from quiescent, [max_int], back to its clock), and it
   lowers [floor] with it; every other update raises a value, which keeps
   [floor] a valid bound. When a retire time exceeds [floor], [floor] is
   recomputed in one pass, and only a free still above the fresh bound
   runs the per-thread scan — the same scan, in the same order, as
   without the bound, so the violation list is unchanged. A free thus
   costs O(n) only when [floor] is stale or its object was retired after
   the oldest running operation began, which a correct reclaimer rarely
   does. *)

type violation = { handle : int; retired_at : int; freed_at : int; blocking_thread : int }

type t = {
  n : int;
  op_begin : int array;  (* per thread: virtual time its current op began *)
  mutable floor : int;  (* <= every [op_begin.(j) >= 0]; max_int when none *)
  mutable retire_time : int array;  (* dense by handle; -1 = never retired *)
  mutable violations : violation list;
  mutable checked_frees : int;
}

let create ~n =
  {
    n;
    op_begin = Array.make n (-1);
    floor = max_int;
    retire_time = Array.make 1024 (-1);
    violations = [];
    checked_frees = 0;
  }

let note_op_begin t ~tid ~time =
  t.op_begin.(tid) <- time;
  if time < t.floor then t.floor <- time

(* A thread that has left the workload loop is permanently quiescent: it can
   never again hold a reference, so it must not block frees. *)
let note_quiescent t ~tid = t.op_begin.(tid) <- max_int

let ensure t h =
  if h >= Array.length t.retire_time then begin
    let cap = ref (Array.length t.retire_time) in
    while !cap <= h do
      cap := !cap * 2
    done;
    let a = Array.make !cap (-1) in
    Array.blit t.retire_time 0 a 0 (Array.length t.retire_time);
    t.retire_time <- a
  end

let note_retire t ~handle ~time =
  ensure t handle;
  t.retire_time.(handle) <- time

(* Tighten [floor] to the exact minimum op-begin time [>= 0] and return it. *)
let recompute_floor t =
  let m = ref max_int in
  for j = 0 to t.n - 1 do
    let b = t.op_begin.(j) in
    if b >= 0 && b < !m then m := b
  done;
  t.floor <- !m;
  !m

(* Check that freeing [handle] now (by [tid] at [time]) respects the grace
   period. Records a violation instead of raising so a trial can complete
   and report all of them. *)
let check_free t ~tid ~handle ~time =
  t.checked_frees <- t.checked_frees + 1;
  if handle < Array.length t.retire_time then begin
    let retired_at = t.retire_time.(handle) in
    if retired_at >= 0 && retired_at > t.floor && retired_at > recompute_floor t then
      for j = 0 to t.n - 1 do
        if
          j <> tid
          && t.op_begin.(j) >= 0
          && t.op_begin.(j) < retired_at
          && t.op_begin.(j) <> max_int
        then
          t.violations <-
            { handle; retired_at; freed_at = time; blocking_thread = j } :: t.violations
      done
  end

let violations t = List.rev t.violations
let violation_count t = List.length t.violations
let checked_frees t = t.checked_frees

let pp_violation ppf v =
  Format.fprintf ppf
    "object #%d retired at %dns, freed at %dns while thread %d's op began earlier"
    v.handle v.retired_at v.freed_at v.blocking_thread
