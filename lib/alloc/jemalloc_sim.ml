(* Model of JEmalloc 5.x's small-object path (paper §3.2 and Appendix B).

   - per-thread caches (tcaches), one per size class, with a fill threshold;
   - one arena per thread; each (arena, size class) pair is a *bin*
     protected by a mutex;
   - [malloc] pops from the tcache; on a miss it refills from the thread's
     own arena bin, allocating fresh pages when the bin is empty;
   - [free] pushes into the tcache; what an overflow does is the flush
     policy. [Stock] flushes approximately 3/4 of the tcache: the flushed
     objects are returned to the bins of the arenas that own them — remote
     bins for objects allocated by other threads — holding each bin's lock
     while iterating. [Batch_aware], the paper's footnote-3 future work,
     evicts at most [chunk] objects into a per-thread pending buffer, which
     every free drains to the bins a chunk at a time and refills reuse
     first, so no single free call degenerates into a multi-millisecond
     flush.

   The remote-batch-free problem is emergent: an EBR batch free overflows
   the tcache repeatedly, each stock flush visits bins of many owner
   threads, and with many threads flushing concurrently the bin mutexes
   queue up, so a single [free] call can take virtual milliseconds. The
   batch-aware policy spreads remote-bin lock acquisitions out in time: it
   amortizes the flush the way AF amortizes the dispose, so even
   batch-freeing reclaimers behave (the ablation bench compares the two).
   [make] picks each policy's [free] and thread-exit teardown once; the
   shared [refill] reads the policy only to try the pending buffer first. *)

open Simcore

type policy = Stock | Batch_aware

type bin = { lock : Sim_mutex.t; freelist : Vec.t }

type t = {
  policy : policy;
  cost : Cost_model.t;
  config : Alloc_intf.config;
  table : Obj_table.t;
  bins : bin array array;  (* arena -> size class -> bin *)
  tcache : Vec.t array array;  (* thread -> size class -> handles *)
  pending : Vec.t array array;
      (* thread -> size class: batch-aware evictions; none under [Stock] *)
  flush_keep : int;  (* objects a stock flush keeps in the tcache *)
  groupers : Alloc_intf.Grouper.t array;
      (* per-thread reusable return-batch scratch: a return yields at each
         bin lock, so concurrent returns must not share scratch buffers *)
}

(* Objects a batch-aware overflow evicts, and a drain returns, at a time. *)
let chunk = 8

let bin_id ~arena ~cls = (arena * Size_class.count) + cls
let arena_of_bin home = home / Size_class.count

(* Thread-to-arena binding: every thread gets its own arena (JEmalloc
   assigns its 4xCPU arenas round-robin, so threads rarely share one), and
   only those arenas are built. *)
let arena_of_thread tid = tid

let create policy ?(config = Alloc_intf.default_config) sched =
  let n = Sched.n_threads sched in
  let mk_bin a c =
    let name =
      match policy with
      | Stock -> lazy (Printf.sprintf "je-bin-%d-%d" a c)
      | Batch_aware -> lazy (Printf.sprintf "jeba-bin-%d-%d" a c)
    in
    { lock = Sim_mutex.create ~name (); freelist = Vec.create () }
  in
  let per_thread () =
    Array.init n (fun _ -> Array.init Size_class.count (fun _ -> Vec.create ()))
  in
  {
    policy;
    cost = Sched.cost sched;
    config;
    table = Obj_table.create ();
    bins = Array.init n (fun a -> Array.init Size_class.count (mk_bin a));
    tcache = per_thread ();
    pending = (match policy with Stock -> [||] | Batch_aware -> per_thread ());
    flush_keep =
      Int.max 1 (int_of_float (float_of_int config.tcache_cap *. (1. -. config.flush_fraction)));
    groupers = Array.init n (fun _ -> Alloc_intf.Grouper.create ());
  }

(* Return the first [n] objects of [src] to their owner bins, grouped so
   each bin is locked once. All work in here is accounted inclusively as
   flush (and free) time; lock waiting additionally lands in the lock
   bucket — the virtual analogue of je_tcache_bin_flush_small /
   je_malloc_mutex_lock_slow. [scan] is the per-object cost of the scan
   below: [flush_scan_per_object] for a stock flush, 0 for a batch-aware
   drain, whose chunk touches few bins and holds each lock briefly. *)
let return_to_bins t (th : Sched.thread) cls src n ~scan =
  let tr = Sched.tracer th.Sched.sched in
  th.Sched.in_flush <- true;
  Tracer.flush_begin tr ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:n;
  let g = t.groupers.(th.Sched.tid) in
  Alloc_intf.Grouper.group g t.table src ~len:n;
  Vec.drop_front src n;
  let my_arena = arena_of_thread th.Sched.tid in
  (* JEmalloc's je_tcache_bin_flush_small visits one destination bin at a
     time and, while holding that bin's lock, iterates over the whole
     remaining buffer to pick out the objects belonging to it. The work
     under each lock is therefore proportional to the *entire* batch, not
     just that bin's share — the quadratic behaviour that turns a large
     batch free into a milliseconds-long call once bins are contended.
     (The quadratic cost is charged in virtual time; the host-time loop
     below is linear and allocation-free.) *)
  let remaining = ref n in
  let i = ref 0 in
  while !i < n do
    let home = Alloc_intf.Grouper.home_at g !i in
    let start = !i in
    incr i;
    while !i < n && Alloc_intf.Grouper.home_at g !i = home do
      incr i
    done;
    let len = !i - start in
    let arena = arena_of_bin home in
    let bin = t.bins.(arena).(cls) in
    Sim_mutex.lock bin.lock th;
    Sched.work th Metrics.Flush (!remaining * scan);
    Sched.work_n th Metrics.Flush ~per:t.cost.Cost_model.flush_per_object ~count:len;
    for j = start to start + len - 1 do
      Vec.push bin.freelist (Alloc_intf.Grouper.handle g j)
    done;
    if arena <> my_arena then Alloc_intf.remote_free th ~objects:len ~home;
    Sim_mutex.unlock bin.lock th;
    remaining := !remaining - len
  done;
  th.Sched.in_flush <- false;
  Tracer.flush_end tr ~tid:th.Sched.tid ~ts:(Sched.now th)

(* A stock flush returns all but [keep] tcache objects to their bins; each
   one, a thread-exit flush too, counts in [flushes] and emits [Overflow]. *)
let flush_down t (th : Sched.thread) cls ~keep =
  let tc = t.tcache.(th.Sched.tid).(cls) in
  let n = Vec.length tc - keep in
  if n > 0 then begin
    Alloc_intf.overflow th ~objects:n ~cls;
    return_to_bins t th cls tc n ~scan:t.cost.Cost_model.flush_scan_per_object
  end

(* A batch-aware drain: return up to [chunk] pending objects to their bins. *)
let drain t (th : Sched.thread) cls =
  let pending = t.pending.(th.Sched.tid).(cls) in
  if not (Vec.is_empty pending) then
    return_to_bins t th cls pending (Int.min chunk (Vec.length pending)) ~scan:0

(* Move the [n] oldest tcache objects to the pending buffer: cheap local
   work, half a cache push each. *)
let spill t (th : Sched.thread) cls n =
  let tc = t.tcache.(th.Sched.tid).(cls) in
  let pending = t.pending.(th.Sched.tid).(cls) in
  Sched.work_n th Metrics.Alloc ~per:(t.cost.Cost_model.cache_push / 2) ~count:n;
  for i = 0 to n - 1 do
    Vec.push pending (Vec.get tc i)
  done;
  Vec.drop_front tc n

(* Push a freed object onto its tcache; returns the tcache's new length. *)
let cache t (th : Sched.thread) cls h =
  let tc = t.tcache.(th.Sched.tid).(cls) in
  Sched.work th Metrics.Alloc t.cost.Cost_model.cache_push;
  Vec.push tc h;
  Vec.length tc

let stock_free t (th : Sched.thread) h =
  let cls = Obj_table.size_class t.table h in
  if cache t th cls h > t.config.tcache_cap then flush_down t th cls ~keep:t.flush_keep

(* Incremental eviction: an overflow moves one chunk to the pending buffer
   and every free drains one. [Overflow] sits here, at the [flushes] counter,
   *outside* the [in_flush] drain: this policy has no synchronous flush. *)
let batch_aware_free t (th : Sched.thread) h =
  let cls = Obj_table.size_class t.table h in
  let len = cache t th cls h in
  if len > t.config.tcache_cap then begin
    let n = Int.min chunk len in
    Alloc_intf.overflow th ~objects:n ~cls;
    spill t th cls n
  end;
  drain t th cls

(* Thread-death tcache flush: when a thread retires, jemalloc's
   tcache_destroy returns *everything* in every cache bin to the owner
   bins — the overflow path with nothing kept back. This is the canonical
   remote-batch-free burst: one dying thread grabs many remote bin locks
   back to back, under the same quadratic scan cost as any other flush. *)
let stock_thread_exit t (th : Sched.thread) =
  let moved = ref 0 in
  for cls = 0 to Size_class.count - 1 do
    moved := !moved + Vec.length t.tcache.(th.Sched.tid).(cls);
    flush_down t th cls ~keep:0
  done;
  !moved

(* Batch-aware thread death: the tcaches spill into the pending buffer,
   which is then drained to the bins a chunk at a time until empty. Same
   total work as a flush, many short lock holds instead of one long burst. *)
let batch_aware_thread_exit t (th : Sched.thread) =
  let moved = ref 0 in
  for cls = 0 to Size_class.count - 1 do
    let pending = t.pending.(th.Sched.tid).(cls) in
    spill t th cls (Vec.length t.tcache.(th.Sched.tid).(cls));
    moved := !moved + Vec.length pending;
    while not (Vec.is_empty pending) do
      drain t th cls
    done
  done;
  !moved

(* Refill the empty tcache: under [Batch_aware] from the pending buffer
   first (local and lock-free), then from the thread's own arena bin, then
   from fresh memory. Returns with a non-empty tcache. *)
let refill t (th : Sched.thread) cls =
  let tid = th.Sched.tid in
  let tc = t.tcache.(tid).(cls) in
  let t0 = Sched.now th in
  (match t.policy with
  | Stock -> ()
  | Batch_aware ->
      let pending = t.pending.(tid).(cls) in
      let from_pending = Int.min t.config.refill_batch (Vec.length pending) in
      Sched.work_n th Metrics.Alloc ~per:t.cost.Cost_model.cache_pop ~count:from_pending;
      for _ = 1 to from_pending do
        Vec.push tc (Vec.pop pending)
      done);
  if Vec.is_empty tc then begin
    let arena = arena_of_thread tid in
    let bin = t.bins.(arena).(cls) in
    Sim_mutex.lock bin.lock th;
    let from_bin = Int.min t.config.refill_batch (Vec.length bin.freelist) in
    Sched.work_n th Metrics.Alloc ~per:t.cost.Cost_model.refill_per_object ~count:from_bin;
    for _ = 1 to from_bin do
      Vec.push tc (Vec.pop bin.freelist)
    done;
    (* Fresh pages only when the bin had nothing to offer. *)
    let missing = if from_bin > 0 then 0 else t.config.refill_batch in
    if missing > 0 then begin
      (* Bump-allocate fresh objects into the cache; page faults and first
         touches are charged after release, where they really occur. *)
      let home = bin_id ~arena ~cls in
      Sched.work_n th Metrics.Alloc ~per:t.cost.Cost_model.refill_per_object ~count:missing;
      for _ = 1 to missing do
        Vec.push tc (Obj_table.fresh t.table ~size_class:cls ~home)
      done
    end;
    Sim_mutex.unlock bin.lock th;
    if missing > 0 then begin
      let size = Size_class.bytes cls in
      let per_page = Int.max 1 (t.config.page_bytes / size) in
      let pages = (missing + per_page - 1) / per_page in
      Sched.work th Metrics.Alloc (pages * t.cost.Cost_model.fresh_page);
      Sched.work th Metrics.Alloc (missing * t.cost.Cost_model.fresh_object_touch)
    end
  end;
  Tracer.span (Sched.tracer th.Sched.sched) Tracer.Refill ~tid ~ts:t0 ~dur:(Sched.now th - t0)
    ~a:(Vec.length tc) ~b:cls

let raw_malloc t (th : Sched.thread) size =
  let cls = Size_class.of_size size in
  let tc = t.tcache.(th.Sched.tid).(cls) in
  if Vec.is_empty tc then refill t th cls;
  Sched.work th Metrics.Alloc t.cost.Cost_model.cache_pop;
  Vec.pop tc

let cached_objects t () =
  let vecs = Array.fold_left (Array.fold_left (fun n v -> n + Vec.length v)) in
  let bins = Array.fold_left (Array.fold_left (fun n bin -> n + Vec.length bin.freelist)) in
  vecs 0 t.tcache + vecs 0 t.pending + bins 0 t.bins

let make policy ?config sched =
  let t = create policy ?config sched in
  let name, raw_free, raw_thread_exit =
    match policy with
    | Stock -> ("jemalloc", stock_free, stock_thread_exit)
    | Batch_aware -> ("jemalloc-batch-aware", batch_aware_free, batch_aware_thread_exit)
  in
  Alloc_intf.instrument ~name ~table:t.table ~raw_malloc:(raw_malloc t) ~raw_free:(raw_free t)
    ~raw_thread_exit:(raw_thread_exit t) ~cached_objects:(cached_objects t) ()
