open Simcore

let test_size_classes () =
  Alcotest.(check int) "exact boundary" 0 (Alloc.Size_class.of_size 16);
  Alcotest.(check int) "round up" 1 (Alloc.Size_class.of_size 17);
  Alcotest.(check int) "240 rounds to 256-class" 256
    (Alloc.Size_class.bytes (Alloc.Size_class.of_size 240));
  Alcotest.check_raises "zero size" (Invalid_argument "Size_class.of_size: non-positive size")
    (fun () -> ignore (Alloc.Size_class.of_size 0));
  Alcotest.(check bool) "oversize rejected" true
    (try
       ignore (Alloc.Size_class.of_size 100_000);
       false
     with Invalid_argument _ -> true)

let test_obj_table_lifecycle () =
  let t = Alloc.Obj_table.create () in
  let h = Alloc.Obj_table.fresh t ~size_class:3 ~home:7 in
  Alcotest.(check bool) "fresh is dead" false (Alloc.Obj_table.is_live t h);
  Alcotest.(check int) "size class stored" 3 (Alloc.Obj_table.size_class t h);
  Alcotest.(check int) "home stored" 7 (Alloc.Obj_table.home t h);
  Alloc.Obj_table.mark_live t h;
  Alcotest.(check bool) "live" true (Alloc.Obj_table.is_live t h);
  Alcotest.(check int) "live bytes" 64 (Alloc.Obj_table.live_bytes t);
  Alloc.Obj_table.mark_dead t h;
  Alcotest.(check int) "live bytes back to zero" 0 (Alloc.Obj_table.live_bytes t);
  Alcotest.(check int) "mapped is monotone" 64 (Alloc.Obj_table.mapped_bytes t)

let test_obj_table_double_free () =
  let t = Alloc.Obj_table.create () in
  let h = Alloc.Obj_table.fresh t ~size_class:0 ~home:0 in
  Alloc.Obj_table.mark_live t h;
  Alloc.Obj_table.mark_dead t h;
  Alcotest.(check bool) "double free detected" true
    (try
       Alloc.Obj_table.mark_dead t h;
       false
     with Invalid_argument _ -> true);
  Alloc.Obj_table.mark_live t h;
  Alcotest.(check bool) "double alloc detected" true
    (try
       Alloc.Obj_table.mark_live t h;
       false
     with Invalid_argument _ -> true)

let test_obj_table_peak () =
  let t = Alloc.Obj_table.create () in
  let hs = List.init 10 (fun _ -> Alloc.Obj_table.fresh t ~size_class:0 ~home:0) in
  List.iter (Alloc.Obj_table.mark_live t) hs;
  let peak = Alloc.Obj_table.peak_live_bytes t in
  List.iter (Alloc.Obj_table.mark_dead t) hs;
  Alcotest.(check int) "peak survives frees" peak (Alloc.Obj_table.peak_live_bytes t);
  Alcotest.(check int) "peak = 10 x 16B" 160 peak

(* Generic allocator checks run against every model. *)
let alloc_roundtrip name =
  Helpers.quick (name ^ "_roundtrip") (fun () ->
      Helpers.in_sim (fun sched th ->
          let a = Alloc.Registry.make name sched in
          let h1 = a.Alloc.Alloc_intf.malloc th 240 in
          let h2 = a.Alloc.Alloc_intf.malloc th 240 in
          Alcotest.(check bool) "distinct handles" true (h1 <> h2);
          Alcotest.(check int) "two live"
            2
            (Alloc.Obj_table.live_count a.Alloc.Alloc_intf.table);
          a.Alloc.Alloc_intf.free th h1;
          Alcotest.(check int) "one live"
            1
            (Alloc.Obj_table.live_count a.Alloc.Alloc_intf.table);
          Alcotest.(check int) "metrics count"
            2 th.Sched.metrics.Metrics.allocs;
          Alcotest.(check int) "free counted" 1 th.Sched.metrics.Metrics.frees))

let alloc_double_free name =
  Helpers.quick (name ^ "_double_free") (fun () ->
      Helpers.in_sim (fun sched th ->
          let a = Alloc.Registry.make name sched in
          let h = a.Alloc.Alloc_intf.malloc th 64 in
          a.Alloc.Alloc_intf.free th h;
          Alcotest.(check bool) "double free detected" true
            (try
               a.Alloc.Alloc_intf.free th h;
               false
             with Invalid_argument _ -> true)))

let test_jemalloc_recycles () =
  Helpers.in_sim (fun sched th ->
      let a = Alloc.Jemalloc_sim.make Stock sched in
      let h = a.Alloc.Alloc_intf.malloc th 240 in
      a.Alloc.Alloc_intf.free th h;
      let mapped = Alloc.Obj_table.mapped_bytes a.Alloc.Alloc_intf.table in
      (* The freed object sits in the tcache; the next alloc of the same
         class must reuse it rather than map fresh memory. *)
      let h' = a.Alloc.Alloc_intf.malloc th 240 in
      Alcotest.(check int) "tcache hit returns the same object" h h';
      Alcotest.(check int) "no new memory mapped" mapped
        (Alloc.Obj_table.mapped_bytes a.Alloc.Alloc_intf.table))

let test_jemalloc_flush_on_overflow () =
  Helpers.in_sim (fun sched th ->
      let config = { Alloc.Alloc_intf.default_config with Alloc.Alloc_intf.tcache_cap = 8 } in
      let a = Alloc.Jemalloc_sim.make Stock ~config sched in
      let hs = List.init 32 (fun _ -> a.Alloc.Alloc_intf.malloc th 240) in
      List.iter (a.Alloc.Alloc_intf.free th) hs;
      Alcotest.(check bool) "overflow triggered flushes" true
        (th.Sched.metrics.Metrics.flushes > 0);
      (* Everything freed is still available for reuse somewhere. *)
      Alcotest.(check int) "all 32 cached" 32 (a.Alloc.Alloc_intf.cached_objects ()))

let test_jemalloc_remote_free_counted () =
  (* Thread 1 frees objects allocated by thread 0: the flush must return
     them to thread 0's arena and count them as remote. *)
  let sched = Helpers.make_sched ~n:2 () in
  let config = { Alloc.Alloc_intf.default_config with Alloc.Alloc_intf.tcache_cap = 4 } in
  let a = Alloc.Jemalloc_sim.make Stock ~config sched in
  let handles = ref [] in
  let done0 = ref false in
  Sched.spawn sched (Sched.thread sched 0) (fun th ->
      handles := List.init 16 (fun _ -> a.Alloc.Alloc_intf.malloc th 240);
      done0 := true);
  Sched.spawn sched (Sched.thread sched 1) (fun th ->
      while not !done0 do
        Sched.work ~scaled:false th Metrics.Idle 100;
        Sched.checkpoint th
      done;
      List.iter (a.Alloc.Alloc_intf.free th) !handles);
  Sched.run sched;
  let th1 = Sched.thread sched 1 in
  Alcotest.(check bool) "remote frees counted" true
    (th1.Sched.metrics.Metrics.remote_frees > 0)

let test_tcmalloc_central_refill () =
  Helpers.in_sim (fun sched th ->
      let config = { Alloc.Alloc_intf.default_config with Alloc.Alloc_intf.tcache_cap = 4 } in
      let a = Alloc.Tcmalloc_sim.make ~config sched in
      let hs = List.init 64 (fun _ -> a.Alloc.Alloc_intf.malloc th 64) in
      List.iter (a.Alloc.Alloc_intf.free th) hs;
      let mapped = Alloc.Obj_table.mapped_bytes a.Alloc.Alloc_intf.table in
      (* Reallocate: everything must come back from caches, no new memory. *)
      let hs' = List.init 64 (fun _ -> a.Alloc.Alloc_intf.malloc th 64) in
      ignore hs';
      Alcotest.(check int) "fully recycled" mapped
        (Alloc.Obj_table.mapped_bytes a.Alloc.Alloc_intf.table))

let test_mimalloc_local_vs_remote () =
  let sched = Helpers.make_sched ~n:2 () in
  let a = Alloc.Mimalloc_sim.make sched in
  let handles = ref [] in
  let done0 = ref false in
  Sched.spawn sched (Sched.thread sched 0) (fun th ->
      handles := List.init 8 (fun _ -> a.Alloc.Alloc_intf.malloc th 64);
      done0 := true);
  Sched.spawn sched (Sched.thread sched 1) (fun th ->
      while not !done0 do
        Sched.work ~scaled:false th Metrics.Idle 100;
        Sched.checkpoint th
      done;
      (* Remote frees: pushed onto the owning page's cross-thread list. *)
      List.iter (a.Alloc.Alloc_intf.free th) !handles);
  Sched.run sched;
  let th1 = Sched.thread sched 1 in
  Alcotest.(check int) "all 8 were remote frees" 8 th1.Sched.metrics.Metrics.remote_frees;
  Alcotest.(check int) "zero flush events (no thread cache to overflow)" 0
    th1.Sched.metrics.Metrics.flushes

let test_mimalloc_owner_collects () =
  (* After remote frees, the owner's next allocations collect the
     cross-thread list instead of mapping fresh pages. *)
  let sched = Helpers.make_sched ~n:2 () in
  let a = Alloc.Mimalloc_sim.make sched in
  let handles = ref [] in
  let phase = ref 0 in
  Sched.spawn sched (Sched.thread sched 0) (fun th ->
      (* Drain the fresh page first so the alloc list is empty later. *)
      let page = 65536 / 64 in
      handles := List.init page (fun _ -> a.Alloc.Alloc_intf.malloc th 64);
      phase := 1;
      while !phase < 2 do
        Sched.work ~scaled:false th Metrics.Idle 100;
        Sched.checkpoint th
      done;
      let mapped = Alloc.Obj_table.mapped_bytes a.Alloc.Alloc_intf.table in
      let h = a.Alloc.Alloc_intf.malloc th 64 in
      Alcotest.(check bool) "reused a collected object" true (List.mem h !handles);
      Alcotest.(check int) "no fresh mapping" mapped
        (Alloc.Obj_table.mapped_bytes a.Alloc.Alloc_intf.table));
  Sched.spawn sched (Sched.thread sched 1) (fun th ->
      while !phase < 1 do
        Sched.work ~scaled:false th Metrics.Idle 100;
        Sched.checkpoint th
      done;
      List.iter (a.Alloc.Alloc_intf.free th) !handles;
      phase := 2);
  Sched.run sched

let test_leak_never_recycles () =
  Helpers.in_sim (fun sched th ->
      let a = Alloc.Leak_alloc.make sched in
      let h = a.Alloc.Alloc_intf.malloc th 64 in
      a.Alloc.Alloc_intf.free th h;
      let h' = a.Alloc.Alloc_intf.malloc th 64 in
      Alcotest.(check bool) "always fresh" true (h <> h');
      Alcotest.(check int) "mapped grows" 128
        (Alloc.Obj_table.mapped_bytes a.Alloc.Alloc_intf.table))

(* One table gives the registry's names and its unknown-name error, which
   names the culprit and lists every valid name. *)
let test_registry_unknown () =
  Alcotest.(check (list string))
    "names"
    [ "jemalloc"; "jemalloc-ba"; "tcmalloc"; "mimalloc"; "leak"; "jemalloc-pool" ]
    Alloc.Registry.names;
  match Helpers.in_sim (fun sched _th -> Alloc.Registry.make "bogus" sched) with
  | _ -> Alcotest.fail "unknown allocator accepted"
  | exception Invalid_argument msg ->
      List.iter
        (fun name -> Alcotest.(check bool) ("error lists " ^ name) true (Helpers.contains msg name))
        ("bogus" :: Alloc.Registry.names)

let suite =
  ( "alloc",
    [
      Helpers.quick "size_classes" test_size_classes;
      Helpers.quick "obj_table_lifecycle" test_obj_table_lifecycle;
      Helpers.quick "obj_table_double_free" test_obj_table_double_free;
      Helpers.quick "obj_table_peak" test_obj_table_peak;
      alloc_roundtrip "jemalloc";
      alloc_roundtrip "tcmalloc";
      alloc_roundtrip "mimalloc";
      alloc_roundtrip "leak";
      alloc_double_free "jemalloc";
      alloc_double_free "tcmalloc";
      alloc_double_free "mimalloc";
      alloc_double_free "leak";
      Helpers.quick "jemalloc_recycles" test_jemalloc_recycles;
      Helpers.quick "jemalloc_flush_on_overflow" test_jemalloc_flush_on_overflow;
      Helpers.quick "jemalloc_remote_free_counted" test_jemalloc_remote_free_counted;
      Helpers.quick "tcmalloc_central_refill" test_tcmalloc_central_refill;
      Helpers.quick "mimalloc_local_vs_remote" test_mimalloc_local_vs_remote;
      Helpers.quick "mimalloc_owner_collects" test_mimalloc_owner_collects;
      Helpers.quick "leak_never_recycles" test_leak_never_recycles;
      Helpers.quick "registry_unknown" test_registry_unknown;
    ] )
