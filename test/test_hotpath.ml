(* Tests for the zero-allocation flush/refill hot path: the slice-based
   batch grouper and end-to-end digest stability of every allocator model
   across the optimization. *)

open Simcore
module Grouper = Alloc.Alloc_intf.Grouper

(* Build a table + vec of fresh handles with the given home sequence. *)
let make_batch homes =
  let table = Alloc.Obj_table.create () in
  let v = Vec.create () in
  List.iter
    (fun home -> Vec.push v (Alloc.Obj_table.fresh table ~size_class:0 ~home))
    homes;
  (table, v)

let runs_of g =
  let out = ref [] in
  Grouper.iter_runs g (fun ~home ~start ~len -> out := (home, start, len) :: !out);
  List.rev !out

let grouped g =
  List.init (Grouper.length g) (fun i -> (Grouper.home_at g i, Grouper.handle g i))

let test_group_empty () =
  let table, v = make_batch [] in
  let g = Grouper.create () in
  Grouper.group g table v ~len:0;
  Alcotest.(check int) "length" 0 (Grouper.length g);
  Alcotest.(check (list (triple int int int))) "no runs" [] (runs_of g)

let test_group_single_home () =
  let table, v = make_batch [ 7; 7; 7; 7 ] in
  let g = Grouper.create () in
  Grouper.group g table v ~len:4;
  Alcotest.(check (list (triple int int int))) "one run" [ (7, 0, 4) ] (runs_of g);
  Alcotest.(check (list int)) "insertion order kept" (Vec.to_list v)
    (List.map snd (grouped g))

let test_group_all_distinct () =
  let table, v = make_batch [ 3; 1; 2; 0 ] in
  let g = Grouper.create () in
  Grouper.group g table v ~len:4;
  Alcotest.(check (list (triple int int int)))
    "one run per home, home-ascending"
    [ (0, 0, 1); (1, 1, 1); (2, 2, 1); (3, 3, 1) ]
    (runs_of g);
  let by_home home = Alloc.Obj_table.home table (Grouper.handle g home) in
  Alcotest.(check (list int)) "handles follow run homes" [ 0; 1; 2; 3 ]
    (List.init 4 by_home)

let test_group_stable_within_home () =
  let table, v = make_batch [ 2; 1; 2; 1; 2 ] in
  let g = Grouper.create () in
  Grouper.group g table v ~len:5;
  Alcotest.(check (list (triple int int int)))
    "runs" [ (1, 0, 2); (2, 2, 3) ] (runs_of g);
  (* Within each home, handles must appear in insertion order — the stable
     sort the old tuple-array grouping provided. *)
  let expect =
    List.stable_sort
      (fun (a, _) (b, _) -> compare (a : int) b)
      (List.map (fun h -> (Alloc.Obj_table.home table h, h)) (Vec.to_list v))
  in
  Alcotest.(check (list (pair int int))) "stable by insertion" expect (grouped g)

let test_group_prefix_only () =
  let table, v = make_batch [ 5; 4; 5; 4 ] in
  let g = Grouper.create () in
  Grouper.group g table v ~len:2;
  Alcotest.(check (list (triple int int int)))
    "only the prefix is grouped" [ (4, 0, 1); (5, 1, 1) ] (runs_of g);
  Alcotest.(check int) "source vec untouched" 4 (Vec.length v)

let test_group_scratch_reuse () =
  let table, v = make_batch [ 9; 9; 0; 0; 9 ] in
  let g = Grouper.create () in
  Grouper.group g table v ~len:5;
  let table2, v2 = make_batch [ 1; 0 ] in
  Grouper.group g table2 v2 ~len:2;
  Alcotest.(check (list (triple int int int)))
    "smaller second batch sees no stale state"
    [ (0, 0, 1); (1, 1, 1) ]
    (runs_of g)

let test_group_bad_len () =
  let table, v = make_batch [ 1 ] in
  let g = Grouper.create () in
  Alcotest.check_raises "len beyond vec"
    (Invalid_argument "Grouper.group: bad length") (fun () ->
      Grouper.group g table v ~len:2)

let prop_group_matches_stable_sort =
  Helpers.prop "grouping = stable sort by home"
    QCheck.(list (int_bound 31))
    (fun homes ->
      let table, v = make_batch homes in
      let g = Grouper.create () in
      Grouper.group g table v ~len:(Vec.length v);
      let expect =
        List.stable_sort
          (fun (a, _) (b, _) -> compare (a : int) b)
          (List.map (fun h -> (Alloc.Obj_table.home table h, h)) (Vec.to_list v))
      in
      grouped g = expect
      && List.fold_left (fun acc (_, _, len) -> acc + len) 0 (runs_of g)
         = List.length homes)

(* End-to-end guard for the rewrite: seeded trial digests for every
   allocator model, captured on the pre-optimization tree. The hot-path
   changes (slice grouping, drop_front splices, batched work_n charging)
   claim bit-identical virtual-time behaviour; any divergence shows up here
   as a digest mismatch. *)
let expected_digests =
  [
    ("jemalloc", "02a94cde69fd78edd8191df63dd608e0");
    ("jemalloc-ba", "ebc05c33934f036cb46ecdbc59fa059e");
    ("tcmalloc", "0d60921c876dca31acc2f2603d3565b6");
    ("mimalloc", "581ecfa9cb72b5778f9beb191330bc43");
    ("leak", "f9801598a07deaace8a08121da03575d");
    ("jemalloc-pool", "b4ea8801d9dd74e5dfb5ba980aba3966");
  ]

(* The flush+refill hot path with tracing disabled (the default) must not
   touch the minor heap: emission points compile to a branch on the
   never-enabled sentinel. Steady state is established first so allocator
   tables and free lists are at capacity; the measured segment then cycles
   enough objects through a 16-slot tcache to force flushes and refills.
   The only allocation tolerated is the float box of the Gc.minor_words
   probe itself, measured by an empty segment. *)
let test_flush_refill_zero_alloc () =
  let sched = Helpers.make_sched ~n:1 () in
  let config =
    { Alloc.Alloc_intf.default_config with Alloc.Alloc_intf.tcache_cap = 16 }
  in
  let alloc = Alloc.Registry.make ~config "jemalloc" sched in
  let extra_words = ref infinity in
  Sched.spawn sched (Sched.thread sched 0) (fun th ->
      let n = 256 in
      let handles = Array.make n 0 in
      let cycle () =
        for i = 0 to n - 1 do
          handles.(i) <- alloc.Alloc.Alloc_intf.malloc th 240
        done;
        for i = 0 to n - 1 do
          alloc.Alloc.Alloc_intf.free th handles.(i)
        done
      in
      cycle ();
      (* warm: tables, bins and scratch reach steady state *)
      Sched.atomically th (fun () ->
          (* [atomically] suppresses checkpoints, so the measured window
             contains only the allocator's own malloc/flush/refill/free work
             — the scheduler's coroutine yields (one continuation per
             [Effect.perform]) are its machinery, not the allocator path,
             and are excluded by entering the atomic section before the
             first probe read. *)
          let m0 = Gc.minor_words () in
          let m1 = Gc.minor_words () in
          let probe_overhead = m1 -. m0 in
          cycle ();
          let m2 = Gc.minor_words () in
          extra_words := m2 -. m1 -. probe_overhead));
  Sched.run sched;
  Alcotest.(check (float 0.)) "minor words on flush/refill path" 0. !extra_words

(* The event-queue dispatch path — pop the minimum, re-push it ahead, the
   per-yield cycle of the scheduler loop — must not touch the minor heap
   in steady state, under the wheel exactly as under the heap (the PR 4
   zero-allocation discipline extended to the wheel's staging, cascade and
   overflow machinery). Strides follow the cost model's op-scale deltas
   (a few hundred ns), the same regime a trial keeps the wheel in: each
   cycle laps the level-0 ring and crosses level-1 buckets, so cascades
   run during the measured window, while the warm cycles have already
   grown every ring slot the measured cycle can touch. (Entering virgin
   level-2 territory grows that slot's bucket once — first-touch cost,
   not steady state, so the strides here keep the measured cycle out of
   it.) *)
let test_queue_dispatch_zero_alloc () =
  List.iter
    (fun kind ->
      let q = Event_queue.create ~kind ~dummy:(-1) in
      let n = 32 in
      let keys = Array.make n 0 in
      let seq = ref 0 in
      for i = 0 to n - 1 do
        incr seq;
        keys.(i) <- i * 211;
        Event_queue.push q ~key:keys.(i) ~seq:!seq i
      done;
      let cycle () =
        for _ = 1 to 4096 do
          let x = Event_queue.pop_le_default q ~bound:max_int in
          incr seq;
          keys.(x) <- keys.(x) + 211 + (97 * (x land 7));
          Event_queue.push q ~key:keys.(x) ~seq:!seq x
        done
      in
      (* Growth is amortized: bucket arrays at every ring slot (the slots
         hit shift phase as keys advance) must have seen their peak
         occupancy before the measured cycle. *)
      for _ = 1 to 24 do
        cycle ()
      done;
      let m0 = Gc.minor_words () in
      let m1 = Gc.minor_words () in
      let probe_overhead = m1 -. m0 in
      cycle ();
      let m2 = Gc.minor_words () in
      Alcotest.(check (float 0.))
        (Printf.sprintf "minor words on %s dispatch path" (Event_queue.to_string kind))
        0.
        (m2 -. m1 -. probe_overhead))
    [ Event_queue.Heap; Event_queue.Wheel ]

(* The yield round trip (checkpoint, park, dispatch, resume) allocates
   only the runtime's continuation and the [Some] that parks it: the effect
   carries no payload and the handler's park closure is built once per
   spawn. Minor words per performed yield are read over a window that
   opens once all 192 threads are warm and closes when the last one
   finishes. The limit of 8 sits between this design (about 4) and a
   handler that allocates an effect payload and a closure per yield
   (about 13). *)
let test_yield_minor_words () =
  let n = 192 and warm = 300 and measured = 200 in
  let sched = Helpers.make_sched ~n () in
  let total_yields () =
    let y = ref 0 in
    for i = 0 to n - 1 do
      y := !y + (Sched.thread sched i).Sched.metrics.Metrics.yields
    done;
    !y
  in
  let warmed = ref 0 and finished = ref 0 in
  let w0 = ref 0. and y0 = ref 0 and w1 = ref 0. and y1 = ref 0 in
  Array.iter
    (fun th ->
      Sched.spawn sched th (fun th ->
          let step = 400 + (37 * (th.Sched.tid mod 11)) in
          for i = 1 to warm + measured do
            Sched.work ~scaled:false th Metrics.Ds step;
            Sched.checkpoint th;
            if i = warm then begin
              incr warmed;
              if !warmed = n then begin
                y0 := total_yields ();
                w0 := Gc.minor_words ()
              end
            end
          done;
          incr finished;
          if !finished = n then begin
            w1 := Gc.minor_words ();
            y1 := total_yields ()
          end))
    (Sched.threads sched);
  Sched.run sched;
  let yields = !y1 - !y0 in
  Alcotest.(check bool) "the window performs yields" true (yields > 10_000);
  let per_yield = (!w1 -. !w0) /. float_of_int yields in
  if per_yield > 8. then
    Alcotest.failf "%.2f minor words per performed yield at %d threads (limit 8)" per_yield n

let test_digest_stability () =
  let base =
    {
      Runtime.Config.default with
      Runtime.Config.ds = "list";
      smr = "debra";
      threads = 4;
      key_range = 256;
      warmup_ns = 500_000;
      duration_ns = 4_000_000;
      grace_ns = 4_000_000;
      seed = 42;
      trials = 1;
      validate = false;
      alloc_config =
        { Alloc.Alloc_intf.default_config with Alloc.Alloc_intf.tcache_cap = 16 };
    }
  in
  List.iter
    (fun (alloc, expected) ->
      let cfg = { base with Runtime.Config.alloc } in
      let t = Runtime.Runner.run_trial cfg ~seed:cfg.Runtime.Config.seed in
      Alcotest.(check string) alloc expected (Runtime.Trial.digest t);
      (* The same digests must hold with event tracing enabled: recording
         is invisible to virtual time on every allocator model. *)
      let tracer = Tracer.create () in
      let t = Runtime.Runner.run_trial ~tracer cfg ~seed:cfg.Runtime.Config.seed in
      Alcotest.(check string) (alloc ^ " traced") expected (Runtime.Trial.digest t);
      Alcotest.(check bool) (alloc ^ " trace non-empty") true (Tracer.recorded tracer > 0))
    expected_digests

let suite =
  ( "hotpath",
    [
      Helpers.quick "group_empty" test_group_empty;
      Helpers.quick "group_single_home" test_group_single_home;
      Helpers.quick "group_all_distinct" test_group_all_distinct;
      Helpers.quick "group_stable_within_home" test_group_stable_within_home;
      Helpers.quick "group_prefix_only" test_group_prefix_only;
      Helpers.quick "group_scratch_reuse" test_group_scratch_reuse;
      Helpers.quick "group_bad_len" test_group_bad_len;
      prop_group_matches_stable_sort;
      Helpers.quick "flush_refill_zero_alloc" test_flush_refill_zero_alloc;
      Helpers.quick "queue_dispatch_zero_alloc" test_queue_dispatch_zero_alloc;
      Helpers.quick "yield_minor_words" test_yield_minor_words;
      Helpers.quick "digest_stability" test_digest_stability;
    ] )
