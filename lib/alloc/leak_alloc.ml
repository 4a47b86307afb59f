(* Degenerate allocator: every allocation is fresh memory, frees only mark
   the object dead (nothing is recycled). Used as a baseline in tests and to
   isolate data structure costs from allocator effects. *)

open Simcore

type t = { cost : Cost_model.t; config : Alloc_intf.config; table : Obj_table.t }

let create ?(config = Alloc_intf.default_config) sched =
  { cost = Sched.cost sched; config; table = Obj_table.create () }

let raw_malloc t (th : Sched.thread) size =
  let cls = Size_class.of_size size in
  let bytes = Size_class.bytes cls in
  (* Amortized page-fault cost for never-touched memory. *)
  let per_page = Int.max 1 (t.config.page_bytes / bytes) in
  Sched.work th Metrics.Alloc
    (t.cost.Cost_model.refill_per_object + t.cost.Cost_model.fresh_object_touch
    + (t.cost.Cost_model.fresh_page / per_page));
  Obj_table.fresh t.table ~size_class:cls ~home:0

let raw_free _t (th : Sched.thread) _h =
  Sched.work th Metrics.Alloc 1

let make ?config sched =
  let t = create ?config sched in
  (* No per-thread caches: thread exit tears down nothing (the default). *)
  Alloc_intf.instrument ~name:"leak" ~table:t.table
    ~raw_malloc:(raw_malloc t) ~raw_free:(raw_free t)
    ~cached_objects:(fun () -> 0) ()
