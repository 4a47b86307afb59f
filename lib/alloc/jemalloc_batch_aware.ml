(* The paper's footnote-3 future work, implemented: a JEmalloc variant that
   is sensitive to batch frees from the reclamation layer.

   Standard JEmalloc flushes ~3/4 of the thread cache the moment it
   overflows, synchronously, inside the offending [free] call. This variant
   makes two changes:

   - an overflowing free evicts only a small chunk ([chunk] objects), so no
     single free call degenerates into a multi-millisecond flush;
   - eviction prefers objects owned by the *local* arena first and defers
     remote returns into a pending buffer drained a chunk at a time by
     subsequent frees, spreading remote-bin lock acquisitions out in time.

   In effect the allocator amortizes the flush the way AF amortizes the
   dispose — so even batch-freeing reclaimers behave. The ablation bench
   compares it against stock JEmalloc under both policies. *)

open Simcore

type bin = { lock : Sim_mutex.t; freelist : Vec.t }

type t = {
  cost : Cost_model.t;
  config : Alloc_intf.config;
  table : Obj_table.t;
  narenas : int;
  bins : bin array array;  (* arena -> size class -> bin *)
  tcache : Vec.t array array;  (* thread -> size class *)
  pending : Vec.t array array;  (* thread -> size class: deferred evictions *)
  chunk : int;  (* objects returned per incremental drain *)
  groupers : Alloc_intf.Grouper.t array;
      (* per-thread reusable drain-batch scratch: a drain yields at each
         bin lock, so concurrent drains must not share scratch buffers *)
}

let arena_of_thread _t tid = tid
let bin_id ~arena ~cls = (arena * Size_class.count) + cls
let arena_of_bin home = home / Size_class.count

let create ?(config = Alloc_intf.default_config) sched =
  let n = Sched.n_threads sched in
  let narenas = 4 * n in
  let mk_bin a c =
    {
      lock = Sim_mutex.create ~name:(lazy (Printf.sprintf "jeba-bin-%d-%d" a c)) ();
      freelist = Vec.create ();
    }
  in
  {
    cost = Sched.cost sched;
    config;
    table = Obj_table.create ();
    narenas;
    bins = Array.init narenas (fun a -> Array.init Size_class.count (mk_bin a));
    tcache = Array.init n (fun _ -> Array.init Size_class.count (fun _ -> Vec.create ()));
    pending = Array.init n (fun _ -> Array.init Size_class.count (fun _ -> Vec.create ()));
    chunk = 8;
    groupers = Array.init n (fun _ -> Alloc_intf.Grouper.create ());
  }

(* Return up to [chunk] deferred objects to their owner bins. Unlike the
   stock flush, each drain touches few bins and holds each lock briefly. *)
let drain_pending t (th : Sched.thread) cls =
  let pending = t.pending.(th.Sched.tid).(cls) in
  if not (Vec.is_empty pending) then begin
    let tr = Sched.tracer th.Sched.sched in
    let t0 = Sched.now th in
    th.Sched.in_flush <- true;
    let n_drain = min t.chunk (Vec.length pending) in
    Tracer.flush_begin tr ~tid:th.Sched.tid ~ts:t0 ~a:n_drain;
    let g = t.groupers.(th.Sched.tid) in
    Alloc_intf.Grouper.group g t.table pending ~len:n_drain;
    Vec.drop_front pending n_drain;
    let my_arena = arena_of_thread t th.Sched.tid in
    let i = ref 0 in
    while !i < n_drain do
      let home = Alloc_intf.Grouper.home_at g !i in
      let start = !i in
      incr i;
      while !i < n_drain && Alloc_intf.Grouper.home_at g !i = home do
        incr i
      done;
      let len = !i - start in
      let arena = arena_of_bin home in
      let bin = t.bins.(arena).(cls) in
      Sim_mutex.lock bin.lock th;
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
      Sim_mutex.unlock bin.lock th
    done;
    th.Sched.in_flush <- false;
    Tracer.flush_end tr ~tid:th.Sched.tid ~ts:(Sched.now th)
  end

(* Thread death: everything the dying thread still holds must leave — but
   this variant keeps its character and returns it chunk-wise rather than
   in one monolithic flush: tcaches spill into the pending buffer, which
   is then drained to the bins a chunk at a time until empty. Same total
   work, many short lock holds instead of one long burst. *)
let raw_thread_exit t (th : Sched.thread) =
  let tid = th.Sched.tid in
  let moved = ref 0 in
  for cls = 0 to Size_class.count - 1 do
    let tc = t.tcache.(tid).(cls) in
    let pending = t.pending.(tid).(cls) in
    let n = Vec.length tc in
    if n > 0 then begin
      Sched.work_n th Metrics.Alloc ~per:(t.cost.Cost_model.cache_push / 2) ~count:n;
      for i = 0 to n - 1 do
        Vec.push pending (Vec.get tc i)
      done;
      Vec.drop_front tc n
    end;
    moved := !moved + Vec.length pending;
    while not (Vec.is_empty pending) do
      drain_pending t th cls
    done
  done;
  !moved

let raw_free t (th : Sched.thread) h =
  let tid = th.Sched.tid in
  let cls = Obj_table.size_class t.table h in
  let tc = t.tcache.(tid).(cls) in
  Sched.work th Metrics.Alloc t.cost.Cost_model.cache_push;
  Vec.push tc h;
  if Vec.length tc > t.config.tcache_cap then begin
    (* Incremental eviction: move one chunk to the pending buffer (cheap
       local work), then drain one chunk to the bins. The [Overflow] instant
       sits here, at the [flushes] counter, *outside* the [in_flush] drain
       below — this variant overflows without a synchronous flush. *)
    th.Sched.metrics.Metrics.flushes <- th.Sched.metrics.Metrics.flushes + 1;
    let n_evict = min t.chunk (Vec.length tc) in
    (let tr = Sched.tracer th.Sched.sched in
     if Tracer.enabled tr then
       Tracer.instant tr Tracer.Overflow ~tid ~ts:(Sched.now th) ~a:n_evict ~b:cls);
    Sched.work_n th Metrics.Alloc ~per:(t.cost.Cost_model.cache_push / 2) ~count:n_evict;
    let pending = t.pending.(tid).(cls) in
    for i = 0 to n_evict - 1 do
      Vec.push pending (Vec.get tc i)
    done;
    Vec.drop_front tc n_evict
  end;
  drain_pending t th cls

let refill t (th : Sched.thread) cls =
  let tid = th.Sched.tid in
  let tc = t.tcache.(tid).(cls) in
  let tr = Sched.tracer th.Sched.sched in
  let t0 = Sched.now th in
  (* Reuse deferred evictions first: they are local and lock-free. *)
  let pending = t.pending.(tid).(cls) in
  let from_pending = min t.config.refill_batch (Vec.length pending) in
  Sched.work_n th Metrics.Alloc ~per:t.cost.Cost_model.cache_pop ~count:from_pending;
  for _ = 1 to from_pending do
    Vec.push tc (Vec.pop pending)
  done;
  if Vec.is_empty tc then begin
    let arena = arena_of_thread t tid in
    let bin = t.bins.(arena).(cls) in
    Sim_mutex.lock bin.lock th;
    let from_bin = min t.config.refill_batch (Vec.length bin.freelist) in
    Sched.work_n th Metrics.Alloc ~per:t.cost.Cost_model.refill_per_object ~count:from_bin;
    for _ = 1 to from_bin do
      Vec.push tc (Vec.pop bin.freelist)
    done;
    if from_bin = 0 then begin
      let missing = t.config.refill_batch in
      let home = bin_id ~arena ~cls in
      Sched.work_n th Metrics.Alloc ~per:t.cost.Cost_model.refill_per_object ~count:missing;
      for _ = 1 to missing do
        Vec.push tc (Obj_table.fresh t.table ~size_class:cls ~home)
      done
    end;
    Sim_mutex.unlock bin.lock th;
    (* Page faults and first touches happen at use, outside the lock. *)
    if from_bin = 0 then begin
      let size = Size_class.bytes cls in
      let per_page = max 1 (t.config.page_bytes / size) in
      let missing = t.config.refill_batch in
      let pages = (missing + per_page - 1) / per_page in
      Sched.work th Metrics.Alloc (pages * t.cost.Cost_model.fresh_page);
      Sched.work th Metrics.Alloc (missing * t.cost.Cost_model.fresh_object_touch)
    end
  end;
  if Tracer.enabled tr then
    Tracer.span tr Tracer.Refill ~tid ~ts:t0 ~dur:(Sched.now th - t0)
      ~a:(Vec.length tc) ~b:cls

let raw_malloc t (th : Sched.thread) size =
  let cls = Size_class.of_size size in
  let tc = t.tcache.(th.Sched.tid).(cls) in
  if Vec.is_empty tc then refill t th cls;
  Sched.work th Metrics.Alloc t.cost.Cost_model.cache_pop;
  Vec.pop tc

let cached_objects t () =
  let total = ref 0 in
  let add_all per_thread =
    Array.iter (fun per_class -> Array.iter (fun v -> total := !total + Vec.length v) per_class) per_thread
  in
  add_all t.tcache;
  add_all t.pending;
  Array.iter
    (fun per_class -> Array.iter (fun bin -> total := !total + Vec.length bin.freelist) per_class)
    t.bins;
  !total

let make ?config sched =
  let t = create ?config sched in
  Alloc_intf.instrument ~name:"jemalloc-batch-aware" ~table:t.table
    ~raw_malloc:(raw_malloc t) ~raw_free:(raw_free t)
    ~raw_thread_exit:(raw_thread_exit t)
    ~cached_objects:(cached_objects t) ()
