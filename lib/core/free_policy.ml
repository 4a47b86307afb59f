(* Free policies: eager batch free vs the paper's amortized free (AF).

   Once an SMR algorithm has identified a batch of objects as safe, the
   policy decides when they are actually handed to the allocator:

   - [Batch]: free the whole batch immediately (the traditional approach —
     the anti-pattern the paper diagnoses);
   - [Amortized k]: splice the batch onto a thread-local *freeable* list and
     free [k] objects per data structure operation ([tick]).

   The paper tunes k to the allocation rate of the data structure (§7);
   k = 1 suits the ABtree, which frees about one object per operation. *)

open Simcore

type mode = Batch | Amortized of int

let mode_name = function Batch -> "batch" | Amortized _ -> "amortized"

type t = {
  mode : mode;
  alloc : Alloc.Alloc_intf.t;
  safety : Safety.t option;
  freeable : Vec.t array;  (* per thread: safe-to-free, not yet freed *)
  splice_cost : int;  (* fixed cost of splicing a batch onto the list *)
}

let create ?safety ~mode ~alloc ~n () =
  {
    mode;
    alloc;
    safety;
    freeable = Array.init n (fun _ -> Vec.create ());
    splice_cost = 50;
  }

(* Free a single object through the safety validator. *)
let free_one t (th : Sched.thread) h =
  (match t.safety with
  | Some s -> Safety.check_free s ~tid:th.Sched.tid ~handle:h ~time:(Sched.now th)
  | None -> ());
  t.alloc.Alloc.Alloc_intf.free th h

(* Report a batch of [count] frees that began at [start] and ends now. *)
let reclaimed (th : Sched.thread) ~start ~count =
  let stop = Sched.now th in
  (let tr = Sched.tracer th.Sched.sched in
   if Tracer.enabled tr then
     Tracer.span tr Tracer.Reclaim ~tid:th.Sched.tid ~ts:start ~dur:(stop - start) ~a:count
       ~b:0);
  th.Sched.hooks.Sched.on_reclaim_event ~start ~stop ~count

(* Hand over a batch that the SMR has proven safe. Consumes [bag]. *)
let dispose t (th : Sched.thread) bag =
  let count = Vec.length bag in
  if count > 0 then begin
    match t.mode with
    | Batch ->
        let start = Sched.now th in
        Vec.iter (fun h -> free_one t th h) bag;
        Vec.clear bag;
        reclaimed th ~start ~count
    | Amortized _ ->
        Sched.work th Metrics.Smr t.splice_cost;
        Vec.append t.freeable.(th.Sched.tid) bag;
        Vec.clear bag;
        let tr = Sched.tracer th.Sched.sched in
        if Tracer.enabled tr then
          Tracer.instant tr Tracer.Splice ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:count ~b:0
  end

(* Objects identified as safe but not yet freed, per thread. *)
let pending t tid = Vec.length t.freeable.(tid)

(* Free the [n] newest objects of [th]'s freeable list as one [Af_drain]
   span: the per-op AF drain and the thread-exit backlog alike. *)
let drain t (th : Sched.thread) n =
  if n > 0 then begin
    let fl = t.freeable.(th.Sched.tid) in
    let t0 = Sched.now th in
    for _ = 1 to n do
      free_one t th (Vec.pop fl)
    done;
    let tr = Sched.tracer th.Sched.sched in
    if Tracer.enabled tr then
      Tracer.span tr Tracer.Af_drain ~tid:th.Sched.tid ~ts:t0 ~dur:(Sched.now th - t0) ~a:n ~b:0
  end

(* Called once per data structure operation: under AF, gradually drain the
   freeable list. *)
let tick t (th : Sched.thread) =
  match t.mode with
  | Batch -> ()
  | Amortized k -> drain t th (Int.min k (pending t th.Sched.tid))

(* Thread teardown: a retiring thread's freeable backlog is already proven
   safe, so it all goes to the allocator now — there will be no more ticks
   to drain it. Returns the number of objects freed. *)
let drain_all t (th : Sched.thread) =
  let n = pending t th.Sched.tid in
  drain t th n;
  n

let total_pending t = Array.fold_left (fun acc v -> acc + Vec.length v) 0 t.freeable
