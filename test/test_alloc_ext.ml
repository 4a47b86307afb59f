(* The allocator extensions: batch-aware JEmalloc (paper footnote 3) and
   object pooling (footnote 4). *)

open Simcore

let test_batch_aware_small_flushes () =
  Helpers.in_sim (fun sched th ->
      let config = { Alloc.Alloc_intf.default_config with Alloc.Alloc_intf.tcache_cap = 8 } in
      let a = Alloc.Jemalloc_sim.make Batch_aware ~config sched in
      (* Free a big batch: stock JEmalloc would flush 3/4 of the cache per
         overflow; the batch-aware variant evicts small chunks, so the
         worst single free call stays short. *)
      let hs = List.init 256 (fun _ -> a.Alloc.Alloc_intf.malloc th 240) in
      List.iter (a.Alloc.Alloc_intf.free th) hs;
      let worst = Histogram.max_value th.Sched.metrics.Metrics.free_call_hist in
      Alcotest.(check bool) "no multi-microsecond free call" true (worst < 10_000);
      Alcotest.(check int) "all objects recycled somewhere" 256
        (a.Alloc.Alloc_intf.cached_objects ()))

let test_batch_aware_recycles () =
  Helpers.in_sim (fun sched th ->
      let a = Alloc.Jemalloc_sim.make Batch_aware sched in
      let hs = List.init 128 (fun _ -> a.Alloc.Alloc_intf.malloc th 240) in
      List.iter (a.Alloc.Alloc_intf.free th) hs;
      let mapped = Alloc.Obj_table.mapped_bytes a.Alloc.Alloc_intf.table in
      let hs' = List.init 128 (fun _ -> a.Alloc.Alloc_intf.malloc th 240) in
      ignore hs';
      Alcotest.(check int) "no fresh memory on reuse" mapped
        (Alloc.Obj_table.mapped_bytes a.Alloc.Alloc_intf.table))

let test_pool_hit () =
  Helpers.in_sim (fun sched th ->
      let base = Alloc.Jemalloc_sim.make Stock sched in
      let a, pool = Alloc.Pooled.wrap ~n:(Sched.n_threads sched) base in
      let h = a.Alloc.Alloc_intf.malloc th 64 in
      a.Alloc.Alloc_intf.free th h;
      Alcotest.(check int) "parked in the pool" 1 (Alloc.Pooled.pooled_objects pool);
      let h' = a.Alloc.Alloc_intf.malloc th 64 in
      Alcotest.(check int) "pool returns the same object" h h';
      Alcotest.(check int) "pool drained" 0 (Alloc.Pooled.pooled_objects pool))

let test_pool_bypasses_allocator () =
  Helpers.in_sim (fun sched th ->
      let base = Alloc.Jemalloc_sim.make Stock sched in
      let a, _pool = Alloc.Pooled.wrap ~n:(Sched.n_threads sched) base in
      let hs = List.init 100 (fun _ -> a.Alloc.Alloc_intf.malloc th 240) in
      List.iter (a.Alloc.Alloc_intf.free th) hs;
      (* Re-allocate through the pool: the base allocator must see nothing —
         in particular no flushes. *)
      let flushes_before = th.Sched.metrics.Metrics.flushes in
      let hs' = List.init 100 (fun _ -> a.Alloc.Alloc_intf.malloc th 240) in
      ignore hs';
      Alcotest.(check int) "no flush activity via the pool" flushes_before
        th.Sched.metrics.Metrics.flushes)

let test_pool_live_accounting () =
  Helpers.in_sim (fun sched th ->
      let base = Alloc.Jemalloc_sim.make Stock sched in
      let a, _ = Alloc.Pooled.wrap ~n:(Sched.n_threads sched) base in
      let h = a.Alloc.Alloc_intf.malloc th 64 in
      Alcotest.(check bool) "live after pooled malloc" true
        (Alloc.Obj_table.is_live a.Alloc.Alloc_intf.table h);
      a.Alloc.Alloc_intf.free th h;
      Alcotest.(check bool) "dead after pooled free" false
        (Alloc.Obj_table.is_live a.Alloc.Alloc_intf.table h);
      (* Double free through the pool is still detected. *)
      Alcotest.(check bool) "double free detected" true
        (try
           a.Alloc.Alloc_intf.free th h;
           false
         with Invalid_argument _ -> true))

let test_registry_variants () =
  Helpers.in_sim (fun sched th ->
      List.iter
        (fun name ->
          let a = Alloc.Registry.make name sched in
          let h = a.Alloc.Alloc_intf.malloc th 64 in
          a.Alloc.Alloc_intf.free th h)
        [ "jemalloc-ba"; "jemalloc-pool" ])

let suite =
  ( "alloc_ext",
    [
      Helpers.quick "batch_aware_small_flushes" test_batch_aware_small_flushes;
      Helpers.quick "batch_aware_recycles" test_batch_aware_recycles;
      Helpers.quick "pool_hit" test_pool_hit;
      Helpers.quick "pool_bypasses_allocator" test_pool_bypasses_allocator;
      Helpers.quick "pool_live_accounting" test_pool_live_accounting;
      Helpers.quick "registry_variants" test_registry_variants;
    ] )
