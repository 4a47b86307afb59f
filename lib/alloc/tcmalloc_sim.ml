(* Model of TCmalloc's small-object path.

   Unlike JEmalloc's per-owner arena bins, TCmalloc has one *central free
   list* per size class, shared by every thread and protected by a lock
   (Appendix B). A tcache overflow moves a batch of objects to the central
   list under that lock; a tcache miss refills from it under the same lock.
   Because the lock is global per class, remote batch frees contend even
   harder than in JEmalloc — which is why the paper measures TC batch
   (25.7M ops/s) below JE batch (43.4M ops/s) at 192 threads. *)

open Simcore

type central = { lock : Sim_mutex.t; freelist : Vec.t }

(* Central free-list transfers are linked-list splices: a fixed cost plus a
   small per-object term, far cheaper per object than JEmalloc's
   grouped-bin bookkeeping. TCmalloc's weakness is that the lock is global
   per size class, so at high thread counts every flush and refill in the
   system serializes on it. *)
let splice_fixed = 300
let splice_per_object = 8

(* TCmalloc's per-class caches and central transfer batches are sized by
   bytes (64 KiB per transfer), so for small objects both are several times
   larger than JEmalloc's: fewer but bigger central-list trips. *)
let cache_scale = 4
let transfer_scale = 4

type t = {
  cost : Cost_model.t;
  config : Alloc_intf.config;
  table : Obj_table.t;
  central : central array;  (* per size class *)
  tcache : Vec.t array array;  (* thread -> size class *)
  flush_keep : int;
}

let create ?(config = Alloc_intf.default_config) sched =
  let n = Sched.n_threads sched in
  let config =
    {
      config with
      Alloc_intf.tcache_cap = cache_scale * config.Alloc_intf.tcache_cap;
      refill_batch = transfer_scale * config.Alloc_intf.refill_batch;
    }
  in
  {
    cost = Sched.cost sched;
    config;
    table = Obj_table.create ();
    central =
      Array.init Size_class.count (fun c ->
          { lock = Sim_mutex.create ~name:(lazy (Printf.sprintf "tc-central-%d" c)) (); freelist = Vec.create () });
    tcache = Array.init n (fun _ -> Array.init Size_class.count (fun _ -> Vec.create ()));
    flush_keep = Int.max 1 (int_of_float (float_of_int config.tcache_cap *. (1. -. config.flush_fraction)));
  }

let flush_down t (th : Sched.thread) cls ~keep =
  let tc = t.tcache.(th.Sched.tid).(cls) in
  let n_flush = Vec.length tc - keep in
  if n_flush > 0 then begin
    let tr = Sched.tracer th.Sched.sched in
    let t0 = Sched.now th in
    th.Sched.in_flush <- true;
    Alloc_intf.overflow th ~objects:n_flush ~cls;
    Tracer.flush_begin tr ~tid:th.Sched.tid ~ts:t0 ~a:n_flush;
    let central = t.central.(cls) in
    Sim_mutex.lock central.lock th;
    Sched.work th Metrics.Flush (splice_fixed + (n_flush * splice_per_object));
    (* Splice the evicted prefix straight from the tcache: no intermediate
       batch array. Only this thread touches its own tcache, so the prefix
       is stable across the lock wait. *)
    for i = 0 to n_flush - 1 do
      Vec.push central.freelist (Vec.get tc i)
    done;
    Vec.drop_front tc n_flush;
    Alloc_intf.remote_free th ~objects:n_flush ~home:cls;
    Sim_mutex.unlock central.lock th;
    th.Sched.in_flush <- false;
    Tracer.flush_end tr ~tid:th.Sched.tid ~ts:(Sched.now th)
  end

let flush t th cls = flush_down t th cls ~keep:t.flush_keep

(* Thread death: TCmalloc returns the dying thread's entire cache to the
   central free lists — one splice per non-empty class, each under the
   class's global lock. Cheap per object, but at high thread counts the
   central locks make even teardown a contention event. *)
let raw_thread_exit t (th : Sched.thread) =
  let moved = ref 0 in
  for cls = 0 to Size_class.count - 1 do
    let n = Vec.length t.tcache.(th.Sched.tid).(cls) in
    if n > 0 then begin
      moved := !moved + n;
      flush_down t th cls ~keep:0
    end
  done;
  !moved

let raw_free t (th : Sched.thread) h =
  let cls = Obj_table.size_class t.table h in
  let tc = t.tcache.(th.Sched.tid).(cls) in
  Sched.work th Metrics.Alloc t.cost.Cost_model.cache_push;
  Vec.push tc h;
  if Vec.length tc > t.config.tcache_cap then flush t th cls

let refill t (th : Sched.thread) cls =
  let tc = t.tcache.(th.Sched.tid).(cls) in
  let central = t.central.(cls) in
  let tr = Sched.tracer th.Sched.sched in
  let t0 = Sched.now th in
  Sim_mutex.lock central.lock th;
  let from_central = Int.min t.config.refill_batch (Vec.length central.freelist) in
  Sched.work th Metrics.Alloc (splice_fixed + (from_central * splice_per_object));
  for _ = 1 to from_central do
    Vec.push tc (Vec.pop central.freelist)
  done;
  (* Fresh memory only when the central list is exhausted: TCmalloc takes
     whatever the central list has before touching the page heap. *)
  let missing = if from_central > 0 then 0 else t.config.refill_batch in
  if missing > 0 then begin
    Sched.work th Metrics.Alloc (missing * splice_per_object);
    for _ = 1 to missing do
      Vec.push tc (Obj_table.fresh t.table ~size_class:cls ~home:cls)
    done
  end;
  Sim_mutex.unlock central.lock th;
  (* Page faults and first touches happen lazily, outside the central
     lock: only the free-list splice is under it. *)
  if missing > 0 then begin
    let size = Size_class.bytes cls in
    let per_page = Int.max 1 (t.config.page_bytes / size) in
    let pages = (missing + per_page - 1) / per_page in
    Sched.work th Metrics.Alloc (pages * t.cost.Cost_model.fresh_page);
    Sched.work th Metrics.Alloc (missing * t.cost.Cost_model.fresh_object_touch)
  end;
  if Tracer.enabled tr then
    Tracer.span tr Tracer.Refill ~tid:th.Sched.tid ~ts:t0 ~dur:(Sched.now th - t0)
      ~a:(from_central + missing) ~b:cls

let raw_malloc t (th : Sched.thread) size =
  let cls = Size_class.of_size size in
  let tc = t.tcache.(th.Sched.tid).(cls) in
  if Vec.is_empty tc then refill t th cls;
  Sched.work th Metrics.Alloc t.cost.Cost_model.cache_pop;
  Vec.pop tc

let cached_objects t () =
  let total = ref 0 in
  Array.iter (fun per_class -> Array.iter (fun tc -> total := !total + Vec.length tc) per_class) t.tcache;
  Array.iter (fun c -> total := !total + Vec.length c.freelist) t.central;
  !total

let make ?config sched =
  let t = create ?config sched in
  Alloc_intf.instrument ~name:"tcmalloc" ~table:t.table
    ~raw_malloc:(raw_malloc t) ~raw_free:(raw_free t)
    ~raw_thread_exit:(raw_thread_exit t)
    ~cached_objects:(cached_objects t) ()
