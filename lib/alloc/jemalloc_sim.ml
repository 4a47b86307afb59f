(* Model of JEmalloc 5.x's small-object path.

   Structure (paper §3.2 and Appendix B):
   - per-thread caches (tcaches), one per size class, with a fill threshold;
   - 4xT arenas; each thread is bound to one arena; each (arena, size class)
     pair is a *bin* protected by a mutex;
   - [free] pushes into the tcache; when the tcache overflows, approximately
     3/4 of it is flushed: the flushed objects are returned to the bins of
     the arenas that own them — remote bins for objects allocated by other
     threads — holding each bin's lock while iterating;
   - [malloc] pops from the tcache; on a miss it refills from the thread's
     own arena bin, allocating fresh pages when the bin is empty.

   The remote-batch-free problem is emergent: an EBR batch free overflows
   the tcache repeatedly, each flush visits bins of many owner threads, and
   with many threads flushing concurrently the bin mutexes queue up, so a
   single [free] call can take virtual milliseconds. *)

open Simcore

type bin = { lock : Sim_mutex.t; freelist : Vec.t }

type t = {
  sched : Sched.t;
  cost : Cost_model.t;
  config : Alloc_intf.config;
  table : Obj_table.t;
  narenas : int;
  bins : bin array array;  (* arena -> size class -> bin *)
  tcache : Vec.t array array;  (* thread -> size class -> handles *)
  flush_keep : int;  (* objects kept in the tcache after a flush *)
  groupers : Alloc_intf.Grouper.t array;
      (* per-thread reusable flush-batch scratch: a flush yields at each
         bin lock, so concurrent flushes must not share scratch buffers *)
}

let bin_id _t ~arena ~cls = (arena * Size_class.count) + cls
let arena_of_bin _t home = home / Size_class.count

(* Thread-to-arena binding: with 4xT arenas every thread gets its own arena
   (as in JEmalloc, where arenas are assigned round-robin and collisions are
   rare at these arena counts). *)
let arena_of_thread _t tid = tid

let create ?(config = Alloc_intf.default_config) sched =
  let n = Sched.n_threads sched in
  let narenas = 4 * n in
  let mk_bin a c =
    {
      lock = Sim_mutex.create ~name:(lazy (Printf.sprintf "je-bin-%d-%d" a c)) ();
      freelist = Vec.create ();
    }
  in
  let t =
    {
      sched;
      cost = Sched.cost sched;
      config;
      table = Obj_table.create ();
      narenas;
      bins = Array.init narenas (fun a -> Array.init Size_class.count (mk_bin a));
      tcache = Array.init n (fun _ -> Array.init Size_class.count (fun _ -> Vec.create ()));
      flush_keep = max 1 (int_of_float (float_of_int config.tcache_cap *. (1. -. config.flush_fraction)));
      groupers = Array.init n (fun _ -> Alloc_intf.Grouper.create ());
    }
  in
  t

(* Return flushed objects to their owner bins, grouped so each bin is locked
   once per flush. All work in here is accounted inclusively as flush (and
   free) time; lock waiting additionally lands in the lock bucket — the
   virtual analogue of je_tcache_bin_flush_small / je_malloc_mutex_lock_slow. *)
let flush_down t (th : Sched.thread) cls ~keep =
  let tc = t.tcache.(th.Sched.tid).(cls) in
  let n_flush = Vec.length tc - keep in
  if n_flush > 0 then begin
    let tr = Sched.tracer th.Sched.sched in
    let t0 = Sched.now th in
    th.Sched.in_flush <- true;
    th.Sched.metrics.Metrics.flushes <- th.Sched.metrics.Metrics.flushes + 1;
    if Tracer.enabled tr then begin
      Tracer.instant tr Tracer.Overflow ~tid:th.Sched.tid ~ts:t0 ~a:n_flush ~b:cls;
      Tracer.flush_begin tr ~tid:th.Sched.tid ~ts:t0 ~a:n_flush
    end;
    let g = t.groupers.(th.Sched.tid) in
    Alloc_intf.Grouper.group g t.table tc ~len:n_flush;
    Vec.drop_front tc n_flush;
    let my_arena = arena_of_thread t th.Sched.tid in
    (* JEmalloc's je_tcache_bin_flush_small visits one destination bin at a
       time and, while holding that bin's lock, iterates over the whole
       remaining buffer to pick out the objects belonging to it. The work
       under each lock is therefore proportional to the *entire* batch, not
       just that bin's share — the quadratic behaviour that turns a large
       batch free into a milliseconds-long call once bins are contended.
       (The quadratic cost is charged in virtual time; the host-time loop
       below is linear and allocation-free.) *)
    let remaining = ref n_flush in
    let i = ref 0 in
    while !i < n_flush do
      let home = Alloc_intf.Grouper.home_at g !i in
      let start = !i in
      incr i;
      while !i < n_flush && Alloc_intf.Grouper.home_at g !i = home do
        incr i
      done;
      let len = !i - start in
      let arena = arena_of_bin t home in
      let bin = t.bins.(arena).(cls) in
      Sim_mutex.lock bin.lock th;
      Sched.work th Metrics.Flush (!remaining * t.cost.Cost_model.flush_scan_per_object);
      Sched.work_n th Metrics.Flush ~per:t.cost.Cost_model.flush_per_object ~count:len;
      for j = start to start + len - 1 do
        Vec.push bin.freelist (Alloc_intf.Grouper.handle g j)
      done;
      if arena <> my_arena then begin
        th.Sched.metrics.Metrics.remote_frees <- th.Sched.metrics.Metrics.remote_frees + len;
        if Tracer.enabled tr then
          Tracer.instant tr Tracer.Remote_free ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:len
            ~b:home
      end;
      Sim_mutex.unlock bin.lock th;
      remaining := !remaining - len
    done;
    th.Sched.in_flush <- false;
    Tracer.flush_end tr ~tid:th.Sched.tid ~ts:(Sched.now th)
  end

let flush t th cls = flush_down t th cls ~keep:t.flush_keep

(* Thread-death tcache flush: when a thread retires, jemalloc's
   tcache_destroy returns *everything* in every cache bin to the owner
   bins — the overflow path with nothing kept back. This is the canonical
   remote-batch-free burst: one dying thread grabs many remote bin locks
   back to back, under the same quadratic scan cost as any other flush. *)
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

(* Refill the tcache from the thread's own arena bin, creating fresh memory
   if the bin cannot satisfy the batch. Returns with a non-empty tcache. *)
let refill t (th : Sched.thread) cls =
  let tid = th.Sched.tid in
  let tc = t.tcache.(tid).(cls) in
  let arena = arena_of_thread t tid in
  let bin = t.bins.(arena).(cls) in
  let tr = Sched.tracer th.Sched.sched in
  let t0 = Sched.now th in
  Sim_mutex.lock bin.lock th;
  let from_bin = min t.config.refill_batch (Vec.length bin.freelist) in
  Sched.work_n th Metrics.Alloc ~per:t.cost.Cost_model.refill_per_object ~count:from_bin;
  for _ = 1 to from_bin do
    Vec.push tc (Vec.pop bin.freelist)
  done;
  (* Fresh pages only when the bin had nothing to offer. *)
  let missing = if from_bin > 0 then 0 else t.config.refill_batch in
  if missing > 0 then begin
    (* Bump-allocate fresh objects into the cache; page faults and first
       touches are charged after release, where they really occur. *)
    let home = bin_id t ~arena ~cls in
    Sched.work_n th Metrics.Alloc ~per:t.cost.Cost_model.refill_per_object ~count:missing;
    for _ = 1 to missing do
      Vec.push tc (Obj_table.fresh t.table ~size_class:cls ~home)
    done
  end;
  Sim_mutex.unlock bin.lock th;
  if missing > 0 then begin
    let size = Size_class.bytes cls in
    let per_page = max 1 (t.config.page_bytes / size) in
    let pages = (missing + per_page - 1) / per_page in
    Sched.work th Metrics.Alloc (pages * t.cost.Cost_model.fresh_page);
    Sched.work th Metrics.Alloc (missing * t.cost.Cost_model.fresh_object_touch)
  end;
  if Tracer.enabled tr then
    Tracer.span tr Tracer.Refill ~tid ~ts:t0 ~dur:(Sched.now th - t0) ~a:(from_bin + missing)
      ~b:cls

let raw_malloc t (th : Sched.thread) size =
  let cls = Size_class.of_size size in
  let tc = t.tcache.(th.Sched.tid).(cls) in
  if Vec.is_empty tc then refill t th cls;
  Sched.work th Metrics.Alloc t.cost.Cost_model.cache_pop;
  Vec.pop tc

let cached_objects t () =
  let total = ref 0 in
  Array.iter (fun per_class -> Array.iter (fun tc -> total := !total + Vec.length tc) per_class) t.tcache;
  Array.iter
    (fun per_class -> Array.iter (fun bin -> total := !total + Vec.length bin.freelist) per_class)
    t.bins;
  !total

let make ?config sched =
  let t = create ?config sched in
  Alloc_intf.instrument ~name:"jemalloc" ~table:t.table
    ~raw_malloc:(raw_malloc t) ~raw_free:(raw_free t)
    ~raw_thread_exit:(raw_thread_exit t)
    ~cached_objects:(cached_objects t) ()
