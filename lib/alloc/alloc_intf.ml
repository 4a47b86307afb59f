(* Common interface implemented by every allocator model.

   An allocator hands out integer object handles. [malloc] and [free] run in
   the context of a simulated thread: they advance its virtual clock, take
   virtual locks, and update its metrics. The [free] entry point is
   instrumented so that the latency of each individual free call — the
   paper's central observable — is recorded in the calling thread's
   histogram and reported to its timeline hooks. *)

open Simcore

type config = {
  tcache_cap : int;  (* thread cache capacity per size class *)
  flush_fraction : float;  (* fraction of the cache evicted on overflow *)
  refill_batch : int;  (* objects moved per cache refill *)
  page_bytes : int;  (* granularity of fresh memory from the OS *)
}

(* The thread-cache capacity matches JEmalloc's cache for the ABtree's
   240-byte size class (cache bins shrink as object size grows); the flush
   fraction is the "approximately 3/4" of paper §3.2. *)
let default_config =
  { tcache_cap = 48; flush_fraction = 0.75; refill_batch = 32; page_bytes = 4096 }

type t = {
  name : string;
  table : Obj_table.t;
  malloc : Sched.thread -> int -> int;  (* size in bytes -> handle *)
  free : Sched.thread -> int -> unit;
  (* Objects currently sitting in caches/bins, available for reuse. *)
  cached_objects : unit -> int;
  (* Cache teardown when a simulated thread retires mid-trial (churn):
     jemalloc's thread-death tcache flush, tcmalloc's central-list return.
     Runs on the dying thread's coroutine from the runner's teardown
     chain. *)
  thread_exit : Sched.thread -> unit;
}

(* Build the public [t] from an allocator's raw entry points, adding the
   instrumentation shared by all models:
   - [malloc] marks the handle live and counts the allocation;
   - [free] marks it dead, sets the [in_free] flag for inclusive time
     accounting, times the call and reports it;
   - [thread_exit] (raw hook returns objects moved out of the dying
     thread's caches; default: nothing cached per-thread) counts the
     moved objects into [teardown_frees] and traces the pass as a
     [Teardown_flush] span, which is what lets the profiler cross-check
     churn metrics against the trace bit-exactly. *)
let instrument ~name ~table ~raw_malloc ~raw_free ?(raw_thread_exit = fun _ -> 0)
    ~cached_objects () =
  let malloc (th : Sched.thread) size =
    let h = raw_malloc th size in
    Obj_table.mark_live table h;
    th.Sched.metrics.Metrics.allocs <- th.Sched.metrics.Metrics.allocs + 1;
    h
  in
  let free (th : Sched.thread) h =
    Obj_table.mark_dead table h;
    let start = Sched.now th in
    th.Sched.in_free <- true;
    Tracer.free_begin (Sched.tracer th.Sched.sched) ~tid:th.Sched.tid ~ts:start;
    (try raw_free th h
     with e ->
       th.Sched.in_free <- false;
       raise e);
    th.Sched.in_free <- false;
    let stop = Sched.now th in
    Tracer.free_end (Sched.tracer th.Sched.sched) ~tid:th.Sched.tid ~ts:stop;
    Histogram.add th.Sched.metrics.Metrics.free_call_hist (stop - start);
    th.Sched.metrics.Metrics.frees <- th.Sched.metrics.Metrics.frees + 1;
    th.Sched.hooks.Sched.on_free_call ~start ~stop
  in
  let thread_exit (th : Sched.thread) =
    let start = Sched.now th in
    th.Sched.in_flush <- true;
    let moved =
      try raw_thread_exit th
      with e ->
        th.Sched.in_flush <- false;
        raise e
    in
    th.Sched.in_flush <- false;
    let stop = Sched.now th in
    th.Sched.metrics.Metrics.teardown_frees <- th.Sched.metrics.Metrics.teardown_frees + moved;
    Tracer.span
      (Sched.tracer th.Sched.sched)
      Tracer.Teardown_flush ~tid:th.Sched.tid ~ts:start ~dur:(stop - start) ~a:moved ~b:0
  in
  { name; table; malloc; free; cached_objects; thread_exit }

(* The two allocator facts every model reports, each written at one site:
   the counter and its trace instant together. [overflow] is one cache
   overflow of [objects] in size class [cls] (the [flushes] counter);
   [remote_free] returns [objects] to a remote owner [home] (the
   [remote_frees] counter). *)
let[@inline] overflow (th : Sched.thread) ~objects ~cls =
  th.Sched.metrics.Metrics.flushes <- th.Sched.metrics.Metrics.flushes + 1;
  let tr = Sched.tracer th.Sched.sched in
  if Tracer.enabled tr then
    Tracer.instant tr Tracer.Overflow ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:objects ~b:cls

let[@inline] remote_free (th : Sched.thread) ~objects ~home =
  th.Sched.metrics.Metrics.remote_frees <- th.Sched.metrics.Metrics.remote_frees + objects;
  let tr = Sched.tracer th.Sched.sched in
  if Tracer.enabled tr then
    Tracer.instant tr Tracer.Remote_free ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:objects
      ~b:home

(* Flush-batch grouping: sort a batch of handles by their home bin (stable
   on insertion order), so flushes visit each bin once and the simulation is
   deterministic.

   This sits on the hottest host-time path of the whole simulator — one call
   per cache flush, millions per sweep — so it allocates nothing on the
   OCaml heap: each allocator owns one [Grouper.t] whose scratch arrays are
   reused across flushes (growing geometrically, like a Vec). Each handle is
   keyed as the int-packed [(home lsl shift) lor index]; because every key
   is distinct, an unstable in-place sort of the keys yields exactly the
   (home asc, insertion order asc) order the old tuple sort produced, and
   runs fall out as [(home, start, len)] slices over the sorted scratch. *)
module Grouper = struct
  type t = {
    mutable keys : int array;  (* packed (home lsl shift) lor index *)
    mutable stage : int array;  (* the batch's handles, insertion order *)
    mutable sorted : int array;  (* handles in (home, insertion) order *)
    mutable homes : int array;  (* home of [sorted.(i)] *)
    mutable n : int;
  }

  let create () =
    { keys = Array.make 64 0; stage = Array.make 64 0; sorted = Array.make 64 0;
      homes = Array.make 64 0; n = 0 }

  let ensure t n =
    if n > Array.length t.keys then begin
      let cap = ref (Array.length t.keys) in
      while !cap < n do
        cap := !cap * 2
      done;
      t.keys <- Array.make !cap 0;
      t.stage <- Array.make !cap 0;
      t.sorted <- Array.make !cap 0;
      t.homes <- Array.make !cap 0
    end

  (* In-place heapsort of [a.(0 .. n-1)]: O(n log n) int comparisons, no
     allocation, and — the keys being distinct — a deterministic total
     order. Stdlib's [Array.sort] would sort the scratch tail too. Unsafe
     accesses are in range by the heap shape: every index is in
     [0, last] ⊆ [0, n-1]. [sift] lives outside [sort_prefix] so it is a
     plain function, not a per-call closure over [a]. *)
  let sift (a : int array) root last =
    let r = ref root in
    let continue_ = ref true in
    while !continue_ do
      let child = (2 * !r) + 1 in
      if child > last then continue_ := false
      else begin
        let child =
          if child < last && Array.unsafe_get a child < Array.unsafe_get a (child + 1) then
            child + 1
          else child
        in
        let rv = Array.unsafe_get a !r and cv = Array.unsafe_get a child in
        if rv < cv then begin
          Array.unsafe_set a !r cv;
          Array.unsafe_set a child rv;
          r := child
        end
        else continue_ := false
      end
    done

  let sort_prefix a n =
    for i = (n / 2) - 1 downto 0 do
      sift a i (n - 1)
    done;
    for last = n - 1 downto 1 do
      let tmp = Array.unsafe_get a 0 in
      Array.unsafe_set a 0 (Array.unsafe_get a last);
      Array.unsafe_set a last tmp;
      sift a 0 (last - 1)
    done

  (* Group the first [len] handles of [v] by home. After the call the
     grouped order is exposed via [handle]/[home_at]; the caller typically
     follows with [Vec.drop_front v len]. *)
  let group t table v ~len =
    if len < 0 || len > Vec.length v then invalid_arg "Grouper.group: bad length";
    ensure t len;
    t.n <- len;
    if len > 0 then begin
      let shift = ref 0 in
      while 1 lsl !shift < len do
        incr shift
      done;
      let shift = !shift in
      (* Unsafe scratch accesses: [ensure] guaranteed capacity >= len, and
         every index below is < len. *)
      let max_home = ref 0 in
      let stage = t.stage and keys = t.keys in
      for i = 0 to len - 1 do
        let h = Vec.unsafe_get v i in
        let home = Obj_table.home table h in
        if home > !max_home then max_home := home;
        Array.unsafe_set stage i h;
        Array.unsafe_set keys i ((home lsl shift) lor i)
      done;
      if !max_home > max_int lsr shift then
        invalid_arg "Grouper.group: home too large to pack";
      sort_prefix keys len;
      let mask = (1 lsl shift) - 1 in
      let homes = t.homes and sorted = t.sorted in
      for i = 0 to len - 1 do
        let key = Array.unsafe_get keys i in
        Array.unsafe_set homes i (key lsr shift);
        Array.unsafe_set sorted i (Array.unsafe_get stage (key land mask))
      done
    end

  let length t = t.n

  let handle t i =
    if i < 0 || i >= t.n then invalid_arg "Grouper.handle: out of bounds";
    t.sorted.(i)

  let home_at t i =
    if i < 0 || i >= t.n then invalid_arg "Grouper.home_at: out of bounds";
    t.homes.(i)

  (* Convenience iteration over the [(home, start, len)] runs. Hot flush
     paths iterate with [home_at]/[handle] directly instead, so they do not
     even allocate the closure. *)
  let iter_runs t f =
    let i = ref 0 in
    while !i < t.n do
      let home = t.homes.(!i) in
      let start = !i in
      incr i;
      while !i < t.n && t.homes.(!i) = home do
        incr i
      done;
      f ~home ~start ~len:(!i - start)
    done
end
