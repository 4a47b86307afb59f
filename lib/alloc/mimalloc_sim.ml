(* Model of MImalloc's free-list-sharded design.

   MImalloc has no per-thread cache to overflow: free lists live at *page*
   granularity (64 KiB pages). A thread frees its own objects to the page's
   local free list without synchronization; a remote free is a single atomic
   push onto the owning page's cross-thread list, contending only with
   simultaneous frees to the *same page*. Allocation pops the page's
   allocation list, swapping in the local list or collecting the
   cross-thread list when empty.

   Because remote frees are individually cheap and shard across thousands of
   pages, batch frees do not create a contention storm — this is how
   MImalloc "sidesteps the problem altogether" (paper §3.3, Table 3), and
   why amortized freeing does not help it. *)

open Simcore

type page = {
  id : int;
  owner : int;  (* thread id *)
  cls : int;
  lock : Sim_mutex.t;  (* models the CAS on the cross-thread list *)
  xfree : Vec.t;  (* cross-thread free list *)
  mutable flagged : bool;  (* queued for collection by the owner *)
}

type per_thread_class = {
  alloc_list : Vec.t;  (* allocation free list *)
  local_free : Vec.t;  (* local free list, swapped in when alloc_list drains *)
  pending : Vec.t;  (* ids of owned pages with a non-empty xfree list *)
}

type t = {
  cost : Cost_model.t;
  config : Alloc_intf.config;
  table : Obj_table.t;
  mutable pages : page array;
  mutable n_pages : int;
  slots : per_thread_class array array;  (* thread -> size class *)
  page_bytes : int;
}

let mi_page_bytes = 65536

let create ?(config = Alloc_intf.default_config) sched =
  let n = Sched.n_threads sched in
  {
    cost = Sched.cost sched;
    config;
    table = Obj_table.create ();
    pages = [||];
    n_pages = 0;
    slots =
      Array.init n (fun _ ->
          Array.init Size_class.count (fun _ ->
              { alloc_list = Vec.create (); local_free = Vec.create (); pending = Vec.create () }));
    page_bytes = mi_page_bytes;
  }

let new_page t (th : Sched.thread) cls =
  let id = t.n_pages in
  let p =
    {
      id;
      owner = th.Sched.tid;
      cls;
      lock = Sim_mutex.create ~name:(lazy (Printf.sprintf "mi-page-%d" id)) ();
      xfree = Vec.create ();
      flagged = false;
    }
  in
  if t.n_pages = Array.length t.pages then begin
    let cap = max 64 (2 * Array.length t.pages) in
    let pages = Array.make cap p in
    Array.blit t.pages 0 pages 0 t.n_pages;
    t.pages <- pages
  end;
  t.pages.(t.n_pages) <- p;
  t.n_pages <- t.n_pages + 1;
  p

let page_of t h = t.pages.(Obj_table.home t.table h)

let raw_free t (th : Sched.thread) h =
  let p = page_of t h in
  if p.owner = th.Sched.tid then begin
    (* Local free: push onto the page's local list — no synchronization. *)
    Sched.work th Metrics.Alloc t.cost.Cost_model.cache_push;
    Vec.push t.slots.(th.Sched.tid).(p.cls).local_free h
  end
  else begin
    (* Remote free: one atomic push on the owning page's cross-thread list.
       Contention arises only if another thread frees to the same page at
       the same virtual time. Note no [in_flush] period and no [Flush] trace
       span: MImalloc never flushes, so its profile has flush_ns = 0 even
       though the push is charged to the Flush *bucket* (which only feeds
       the total). *)
    Sim_mutex.lock p.lock th;
    Sched.work th Metrics.Flush t.cost.Cost_model.cache_push;
    Vec.push p.xfree h;
    if not p.flagged then begin
      p.flagged <- true;
      Vec.push t.slots.(p.owner).(p.cls).pending p.id
    end;
    Sim_mutex.unlock p.lock th;
    th.Sched.metrics.Metrics.remote_frees <- th.Sched.metrics.Metrics.remote_frees + 1;
    let tr = Sched.tracer th.Sched.sched in
    if Tracer.enabled tr then
      Tracer.instant tr Tracer.Remote_free ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:1 ~b:p.id
  end

(* Collect cross-thread free lists of owned pages flagged as non-empty. *)
let collect t (th : Sched.thread) cls =
  let slot = t.slots.(th.Sched.tid).(cls) in
  let tr = Sched.tracer th.Sched.sched in
  let t0 = Sched.now th in
  let before = Vec.length slot.alloc_list in
  while Vec.length slot.alloc_list = 0 && Vec.length slot.pending > 0 do
    let pid = Vec.pop slot.pending in
    let p = t.pages.(pid) in
    Sim_mutex.lock p.lock th;
    Sched.work th Metrics.Alloc (t.cost.Cost_model.refill_per_object * max 1 (Vec.length p.xfree / 8));
    Vec.append slot.alloc_list p.xfree;
    Vec.clear p.xfree;
    p.flagged <- false;
    Sim_mutex.unlock p.lock th
  done;
  let collected = Vec.length slot.alloc_list - before in
  if Tracer.enabled tr && collected > 0 then
    Tracer.span tr Tracer.Refill ~tid:th.Sched.tid ~ts:t0 ~dur:(Sched.now th - t0) ~a:collected
      ~b:cls

let raw_malloc t (th : Sched.thread) size =
  let cls = Size_class.of_size size in
  let slot = t.slots.(th.Sched.tid).(cls) in
  if Vec.is_empty slot.alloc_list then begin
    (* Swap in the local free list. *)
    Vec.append slot.alloc_list slot.local_free;
    Vec.clear slot.local_free
  end;
  if Vec.is_empty slot.alloc_list then collect t th cls;
  if Vec.is_empty slot.alloc_list then begin
    (* Fresh 64 KiB page, carved into objects of this class. *)
    let p = new_page t th cls in
    let bytes = Size_class.bytes cls in
    let capacity = max 1 (t.page_bytes / bytes) in
    Sched.work th Metrics.Alloc
      (((t.page_bytes / t.config.page_bytes) * t.cost.Cost_model.fresh_page)
      + (capacity * t.cost.Cost_model.fresh_object_touch));
    for _ = 1 to capacity do
      Vec.push slot.alloc_list (Obj_table.fresh t.table ~size_class:cls ~home:p.id)
    done
  end;
  Sched.work th Metrics.Alloc t.cost.Cost_model.cache_pop;
  Vec.pop slot.alloc_list

let cached_objects t () =
  let total = ref 0 in
  Array.iter
    (fun per_class ->
      Array.iter
        (fun slot -> total := !total + Vec.length slot.alloc_list + Vec.length slot.local_free)
        per_class)
    t.slots;
  for i = 0 to t.n_pages - 1 do
    total := !total + Vec.length t.pages.(i).xfree
  done;
  !total

let make ?config sched =
  let t = create ?config sched in
  (* Thread death in mimalloc abandons the heap's pages in place — objects
     stay on their page free lists and are adopted lazily by whoever
     allocates from the page next. No flush burst, no locks: the default
     no-op teardown (0 objects moved) is the honest model, and the
     experimental contrast to jemalloc's death flush. *)
  Alloc_intf.instrument ~name:"mimalloc" ~table:t.table
    ~raw_malloc:(raw_malloc t) ~raw_free:(raw_free t)
    ~cached_objects:(cached_objects t) ()
