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
   as a digest mismatch. Each digest comes with its traced run's performed
   and elided yields (see [check_digest]). *)
let expected_digests =
  [
    ("jemalloc", ("02a94cde69fd78edd8191df63dd608e0", 2316, 390));
    ("jemalloc-ba", ("ebc05c33934f036cb46ecdbc59fa059e", 2332, 384));
    ("tcmalloc", ("0d60921c876dca31acc2f2603d3565b6", 2296, 370));
    ("mimalloc", ("581ecfa9cb72b5778f9beb191330bc43", 2347, 799));
    ("leak", ("f9801598a07deaace8a08121da03575d", 2348, 308));
    ("jemalloc-pool", ("b4ea8801d9dd74e5dfb5ba980aba3966", 2330, 351));
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

(* The event-queue dispatch paths must not touch the minor heap in steady
   state: pop the minimum and re-push it ahead (the cycle perf/ times),
   and the scheduler's own cycle, which reads the root, re-keys it ahead
   and reads the new root. Strides follow the cost model's op-scale
   deltas (a few hundred ns), the regime a trial keeps the queue in. The
   tree grows only when a new slot exceeds its capacity, which the pushes
   before the measured window have already done. *)
let test_queue_dispatch_zero_alloc () =
  let q = Event_queue.create ~kind:Event_queue.Tree ~dummy:(-1) in
  let n = 32 in
  let keys = Array.make n 0 in
  let seq = ref 0 in
  for i = 0 to n - 1 do
    incr seq;
    keys.(i) <- i * 211;
    Event_queue.push q ~key:keys.(i) ~seq:!seq i
  done;
  let advance x =
    incr seq;
    keys.(x) <- keys.(x) + 211 + (97 * (x land 7))
  in
  let pop_push () =
    for _ = 1 to 4096 do
      let x = Event_queue.pop_le_default q ~bound:max_int in
      advance x;
      Event_queue.push q ~key:keys.(x) ~seq:!seq x
    done
  in
  let rekey () =
    let x = ref (Event_queue.peek_le_default q ~bound:max_int) in
    for _ = 1 to 4096 do
      advance !x;
      ignore (Event_queue.rekey q ~key:keys.(!x) ~seq:!seq !x : int);
      x := Event_queue.peek_le_default q ~bound:max_int
    done
  in
  let words cycle =
    cycle ();
    let m0 = Gc.minor_words () in
    let m1 = Gc.minor_words () in
    let probe_overhead = m1 -. m0 in
    cycle ();
    let m2 = Gc.minor_words () in
    m2 -. m1 -. probe_overhead
  in
  Alcotest.(check (float 0.)) "minor words on the pop/push path" 0. (words pop_push);
  Alcotest.(check (float 0.)) "minor words on the re-key path" 0. (words rekey)

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

let digest_base =
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

(* [expected] is the trial digest and the traced run's performed and
   elided yields: its [Yield] instants counted by [a], as perf/ counts
   them. Yield elision does not move virtual time, so the digest alone
   would let a change to the yield decision pass unseen. *)
let check_digest label cfg (digest, yields, elided) =
  let t = Runtime.Runner.run_trial cfg ~seed:cfg.Runtime.Config.seed in
  Alcotest.(check string) label digest (Runtime.Trial.digest t);
  (* The same digest must hold with event tracing enabled: recording is
     invisible to virtual time. *)
  let tracer = Tracer.create () in
  let t = Runtime.Runner.run_trial ~tracer cfg ~seed:cfg.Runtime.Config.seed in
  Alcotest.(check string) (label ^ " traced") digest (Runtime.Trial.digest t);
  Alcotest.(check bool) (label ^ " trace non-empty") true (Tracer.recorded tracer > 0);
  Alcotest.(check int) (label ^ " trace complete") 0 (Tracer.dropped tracer);
  let performed = ref 0 and skipped = ref 0 in
  Tracer.iter tracer (fun e ->
      if e.Tracer.kind = Tracer.Yield then
        if e.Tracer.a = 1 then incr performed else incr skipped);
  Alcotest.(check (pair int int)) (label ^ " yields, elided") (yields, elided)
    (!performed, !skipped)

(* The same trials under a rolling restart: each of the four threads
   retires once inside the window and respawns, so each model's
   thread-exit teardown runs inside the digest: JEmalloc's whole-tcache
   flush (also behind the pool), the batch-aware spill-and-drain and
   TCmalloc's central return. Captured while the batch-aware JEmalloc was
   still a module of its own, to pin the merge of the two models. *)
let churned_digests =
  [
    ("jemalloc", ("23881c3f7c2c0858b062040cd8f5c7c7", 2142, 396));
    ("jemalloc-ba", ("f69c178f008f383aceaec3c109a498ab", 2129, 431));
    ("tcmalloc", ("6f28d32a9542d5f60f971a29102b67f9", 2129, 388));
    ("mimalloc", ("9a449908f487f00f710c91add2342b95", 2178, 745));
    ("leak", ("1e192a7e8f72df90d7770fc8fd62f45c", 2159, 323));
    ("jemalloc-pool", ("52e3238ed41877297add0acbd0a2b19e", 2148, 361));
  ]

let check_alloc_digests ?churn digests () =
  List.iter
    (fun (alloc, expected) ->
      check_digest alloc { digest_base with Runtime.Config.alloc; churn } expected)
    digests

let rolling_restart =
  Runtime.Config.Rolling_restart { first_ns = 500_000; every_ns = 800_000; down_ns = 300_000 }

(* The ABtree's own guard, captured on the copy-on-write tree: short trials
   at n = 8 over 256 keys, where leaves split and merge, under an epoch
   reclaimer, Token-EBR with amortized free and hazard pointers. The
   in-place leaves change the host representation only, so virtual time
   must not move. *)
let abtree_digests =
  [
    ("debra", ("585668aac7add32a8384f6d40201550e", 83_597, 973));
    ("token_af", ("a0ff11bed2633fa2f326180c8254407b", 94_240, 61));
    ("hazard", ("f3a5a84ac6e4da1b4014fe55af62b1fb", 48_920, 295));
  ]

(* The OCC tree's and the skiplist's, captured on the pointer-based
   structures the node arenas replaced, in the same trials. *)
let occtree_digests =
  [
    ("debra", ("834eea5e8e3598a3575d0c2411d07138", 34_733, 313));
    ("token_af", ("8d1ae424e096914fed0b4298799802ce", 34_668, 308));
    ("hazard", ("8a1652008fc01353f22d99b6a462b4d3", 17_033, 638));
  ]

let skiplist_digests =
  [
    ("debra", ("d8b631f76da95719dc7a07b111f6a6a5", 21_254, 214));
    ("token_af", ("bbc22b9b5d86f42e17d86794d2484259", 21_213, 251));
    ("hazard", ("531f1b997f6ebf2bc151cd445e20585f", 10_054, 3));
  ]

let check_ds_digests ds digests () =
  List.iter
    (fun (smr, expected) ->
      check_digest (ds ^ " " ^ smr)
        { digest_base with Runtime.Config.ds; smr; threads = 8; alloc = "jemalloc" }
        expected)
    digests

(* Minor words per call of [f] over [n] calls, net of the probe itself. *)
let minor_words_per ~n f =
  let m0 = Gc.minor_words () in
  let m1 = Gc.minor_words () in
  f ();
  let m2 = Gc.minor_words () in
  (m2 -. m1 -. (m1 -. m0)) /. float_of_int n

(* Operations of structure [ds] at steady state, on a set half full of
   [key_range] keys whose retired nodes are freed at once, against a limit
   in minor words per contains, insert and delete. The ABtree's descent
   allocates nothing and its leaves are updated in place, so [contains]
   allocates only its 3-word [op_result] (the copy-on-write tree allocated
   36, 46 and 44 words per contains, insert and delete over 65,536 keys).
   The OCC tree and the skiplist keep their nodes in an int-array arena,
   so every operation allocates only its result: the pointer-based nodes
   they replaced added 2.4 and 3.1 words per insert (over 65,536 and 4,096
   keys), the inserted node or tower. *)
let check_minor_words ds ~key_range (l_contains, l_insert, l_delete) () =
  let sched = Helpers.make_sched ~n:1 () in
  let alloc = Alloc.Registry.make "jemalloc" sched in
  let ctx =
    { Ds.Ds_intf.alloc; retire = alloc.Alloc.Alloc_intf.free; node_cost = 5 }
  in
  let per_op = ref [] in
  Sched.spawn sched (Sched.thread sched 0) (fun th ->
      let ds = Ds.Ds_registry.make ds ctx th in
      let n = 4_000 in
      let rng = Rng.create 42 in
      while ds.Ds.Ds_intf.size () < key_range / 2 do
        ignore (ds.Ds.Ds_intf.insert th (Rng.int_below rng key_range))
      done;
      (* Fresh uniform keys for each pass, so about half of the updates
         change the set and its occupancy stays near half. *)
      let keys () = Array.init n (fun _ -> Rng.int_below rng key_range) in
      let run op keys () =
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (op th keys.(i)))
        done
      in
      let warm_inserts = keys () in
      let warm_deletes = keys () in
      let lookups = keys () in
      let inserts = keys () in
      let deletes = keys () in
      Sched.atomically th (fun () ->
          (* warm: allocator caches and free lists at steady state *)
          run ds.Ds.Ds_intf.insert warm_inserts ();
          run ds.Ds.Ds_intf.delete warm_deletes ();
          let contains = minor_words_per ~n (run ds.Ds.Ds_intf.contains lookups) in
          let insert = minor_words_per ~n (run ds.Ds.Ds_intf.insert inserts) in
          let delete = minor_words_per ~n (run ds.Ds.Ds_intf.delete deletes) in
          per_op :=
            [ ("contains", l_contains, contains); ("insert", l_insert, insert);
              ("delete", l_delete, delete) ]));
  Sched.run sched;
  Alcotest.(check int) "three probes" 3 (List.length !per_op);
  List.iter
    (fun (op, limit, words) ->
      if words > limit then
        Alcotest.failf "%s %s: %.3f minor words per operation (limit %.0f)" ds op words limit)
    !per_op

(* A draw updates the generator state in place: [int_below] and [bool]
   allocate nothing and [float] at most its boxed result. *)
let test_rng_draw_minor_words () =
  let r = Rng.create 42 and n = 10_000 in
  let acc = ref 0 in
  let int_below = minor_words_per ~n (fun () ->
      for _ = 1 to n do acc := !acc + Rng.int_below r 1000 done)
  in
  let bool = minor_words_per ~n (fun () -> for _ = 1 to n do if Rng.bool r then incr acc done) in
  let float = minor_words_per ~n (fun () ->
      for _ = 1 to n do ignore (Sys.opaque_identity (Rng.float r)) done)
  in
  Alcotest.(check (float 0.)) "int_below minor words per draw" 0. int_below;
  Alcotest.(check (float 0.)) "bool minor words per draw" 0. bool;
  if float > 2. then Alcotest.failf "float: %.2f minor words per draw (limit 2)" float

(* Words [f] allocates on the OCaml heap, minor and direct-major alike.
   [Gc.minor_words] is exact at any point; [Gc.counters]' minor figure is
   not, but its major and promoted words are. *)
let words_allocated f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  let r = f () in
  (r, words () -. w0)

(* A model builds only what a trial can reach: JEmalloc one arena per
   thread, not 4n of which 3n are never touched, and every per-thread,
   per-size-class vector allocates its storage on its first push. Words
   allocated by [make] at n = 192 with 4n arenas and eager vectors:
   jemalloc 541,612, jemalloc-ba 581,933, tcmalloc 43,152, mimalloc
   128,596, leak 2,244, jemalloc-pool 581,991; as built now: 148,320,
   160,993, 13,172, 43,464, 56 and 161,051. Limits sit about 10% above
   the latter. *)
let build_word_limits =
  [
    ("jemalloc", 165_000.);
    ("jemalloc-ba", 178_000.);
    ("tcmalloc", 14_500.);
    ("mimalloc", 48_000.);
    ("leak", 100.);
    ("jemalloc-pool", 178_000.);
  ]

let test_allocator_build_words () =
  Alcotest.(check (list string)) "every registered model has a limit" Alloc.Registry.names
    (List.map fst build_word_limits);
  List.iter
    (fun (name, limit) ->
      let sched = Helpers.make_sched ~n:192 () in
      let _, words = words_allocated (fun () -> Alloc.Registry.make name sched) in
      if words > limit then
        Alcotest.failf "%s: make at n=192 allocated %.0f words (limit %.0f)" name words limit)
    build_word_limits

(* One packed int per handle in one doubling vector: 2.62 words per handle
   over 200,000 handles (two int vectors and a byte string took 5.56). *)
let test_obj_table_words_per_handle () =
  let n = 200_000 in
  let _, words =
    words_allocated (fun () ->
        let t = Alloc.Obj_table.create () in
        for i = 1 to n do
          ignore (Alloc.Obj_table.fresh t ~size_class:(i land 15) ~home:i)
        done;
        t)
  in
  let per = words /. float_of_int n in
  if per > 3. then Alcotest.failf "Obj_table: %.2f words per handle (limit 3)" per

(* The packed table against a two-array reference: random scripts of
   [fresh] (classes 0-15, homes up to 2^40), [mark_live] and [mark_dead]
   on existing handles; after every step each handle's class, home and
   live bit and the byte counters agree. A double allocation or double
   free must raise in the table exactly when the reference says so. *)
type obj_op = Fresh of int * int | Live of int | Dead of int

let pp_obj_op = function
  | Fresh (c, h) -> Printf.sprintf "fresh(%d,%d)" c h
  | Live i -> Printf.sprintf "live %d" i
  | Dead i -> Printf.sprintf "dead %d" i

let obj_script =
  let open QCheck.Gen in
  let op =
    frequency
      [
        ( 3,
          map2
            (fun c h -> Fresh (c, h))
            (int_bound 15)
            (oneof [ int_bound 64; int_bound (1 lsl 40) ]) );
        (3, map (fun i -> Live i) nat);
        (2, map (fun i -> Dead i) nat);
      ]
  in
  QCheck.make ~print:(QCheck.Print.list pp_obj_op) (list_size (int_bound 120) op)

let prop_obj_table_matches_reference =
  Helpers.prop "obj_table matches two-array reference" obj_script (fun script ->
      let t = Alloc.Obj_table.create () in
      let classes = ref [||] and homes = ref [||] and live = ref [||] in
      let live_bytes = ref 0 and peak = ref 0 and mapped = ref 0 in
      let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
      let agrees () =
        let n = Array.length !classes in
        Alloc.Obj_table.count t = n
        && Alloc.Obj_table.live_bytes t = !live_bytes
        && Alloc.Obj_table.peak_live_bytes t = !peak
        && Alloc.Obj_table.mapped_bytes t = !mapped
        && List.for_all
             (fun h ->
               Alloc.Obj_table.size_class t h = !classes.(h)
               && Alloc.Obj_table.home t h = !homes.(h)
               && Alloc.Obj_table.is_live t h = !live.(h))
             (List.init n Fun.id)
        && not (Alloc.Obj_table.is_live t n)
      in
      List.for_all
        (fun op ->
          let n = Array.length !classes in
          let ok =
            match op with
            | Fresh (c, home) ->
                Alloc.Obj_table.fresh t ~size_class:c ~home = n
                && begin
                     classes := Array.append !classes [| c |];
                     homes := Array.append !homes [| home |];
                     live := Array.append !live [| false |];
                     mapped := !mapped + Alloc.Size_class.bytes c;
                     true
                   end
            | Live _ | Dead _ when n = 0 -> true
            | Live i ->
                let h = i mod n in
                let double = !live.(h) in
                if not double then begin
                  !live.(h) <- true;
                  live_bytes := !live_bytes + Alloc.Size_class.bytes !classes.(h);
                  peak := Int.max !peak !live_bytes
                end;
                raises (fun () -> Alloc.Obj_table.mark_live t h) = double
            | Dead i ->
                let h = i mod n in
                let double = not !live.(h) in
                if not double then begin
                  !live.(h) <- false;
                  live_bytes := !live_bytes - Alloc.Size_class.bytes !classes.(h)
                end;
                raises (fun () -> Alloc.Obj_table.mark_dead t h) = double
          in
          ok && agrees ())
        script)

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
      Helpers.quick "digest_stability" (check_alloc_digests expected_digests);
      Helpers.quick "churned_digest_stability"
        (check_alloc_digests ~churn:rolling_restart churned_digests);
      Helpers.quick "abtree_digest_stability" (check_ds_digests "abtree" abtree_digests);
      Helpers.quick "occtree_digest_stability" (check_ds_digests "occtree" occtree_digests);
      Helpers.quick "skiplist_digest_stability" (check_ds_digests "skiplist" skiplist_digests);
      Helpers.quick "abtree_minor_words"
        (check_minor_words "abtree" ~key_range:(1 lsl 16) (3., 6., 6.));
      Helpers.quick "occtree_minor_words"
        (check_minor_words "occtree" ~key_range:(1 lsl 16) (3., 3., 3.));
      Helpers.quick "skiplist_minor_words"
        (check_minor_words "skiplist" ~key_range:(1 lsl 12) (3., 3., 3.));
      Helpers.quick "rng_draw_minor_words" test_rng_draw_minor_words;
      Helpers.quick "allocator_build_words" test_allocator_build_words;
      Helpers.quick "obj_table_words_per_handle" test_obj_table_words_per_handle;
      prop_obj_table_matches_reference;
    ] )
