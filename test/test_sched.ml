open Simcore

let test_work_advances_clock () =
  Helpers.in_sim (fun _sched th ->
      let t0 = Sched.now th in
      Sched.work ~scaled:false th Metrics.Ds 500;
      Alcotest.(check int) "clock advanced" (t0 + 500) (Sched.now th);
      Alcotest.(check int) "attributed" 500 th.Sched.metrics.Metrics.ds_ns)

let test_smt_scaling () =
  (* With 48 threads on the 192t machine every thread shares a core, so
     scaled work is multiplied by the SMT factor (1.4). *)
  let sched = Helpers.make_sched ~n:48 () in
  let th = Sched.thread sched 0 in
  Sched.spawn sched th (fun th -> Sched.work th Metrics.Ds 1000);
  Sched.run sched;
  Alcotest.(check int) "SMT-scaled" 1400 (Sched.now th)

let test_min_clock_interleaving () =
  (* Threads checkpoint after different amounts of work; the scheduler must
     always resume the thread with the smallest clock, so completion times
     interleave deterministically. *)
  let order = ref [] in
  let _sched =
    Helpers.in_sim_all ~n:3 (fun _sched th ->
        let step = (th.Sched.tid + 1) * 100 in
        for _ = 1 to 3 do
          Sched.work ~scaled:false th Metrics.Ds step;
          order := (th.Sched.tid, Sched.now th) :: !order;
          Sched.checkpoint th
        done)
  in
  let events = List.rev !order in
  (* Verify a global invariant: recorded times are produced in an order
     where each event's time is >= all previously *scheduled* times minus
     its own step (i.e., the run is a legal min-clock interleaving). *)
  let sorted = List.stable_sort (fun (_, a) (_, b) -> compare a b) events in
  Alcotest.(check bool) "events appear in near-sorted time order" true
    (List.length events = 9
    && List.for_all2 (fun (_, a) (_, b) -> abs (a - b) <= 300) events sorted)

let test_determinism () =
  let run () =
    let log = ref [] in
    let _s =
      Helpers.in_sim_all ~n:4 ~seed:123 (fun _sched th ->
          for _ = 1 to 5 do
            Sched.work ~scaled:false th Metrics.Ds (1 + Rng.int_below th.Sched.rng 100);
            log := (th.Sched.tid, Sched.now th) :: !log;
            Sched.checkpoint th
          done)
    in
    !log
  in
  Alcotest.(check bool) "identical seed, identical schedule" true (run () = run ())

let test_atomically_suppresses_checkpoints () =
  (* Inside an atomic block other threads must not interleave even across
     checkpoints. Thread 0 sets a flag, checkpoints, clears it; thread 1
     would observe the flag set if it ran in between. *)
  let flag = ref false in
  let observed = ref false in
  let sched = Helpers.make_sched ~n:2 () in
  Sched.spawn sched (Sched.thread sched 0) (fun th ->
      Sched.atomically th (fun () ->
          flag := true;
          Sched.work ~scaled:false th Metrics.Ds 1000;
          Sched.checkpoint th;
          flag := false));
  Sched.spawn sched (Sched.thread sched 1) (fun th ->
      Sched.work ~scaled:false th Metrics.Ds 500;
      Sched.checkpoint th;
      observed := !flag);
  Sched.run sched;
  Alcotest.(check bool) "no interleaving inside atomic block" false !observed

let test_atomically_restores_on_exception () =
  Helpers.in_sim (fun _sched th ->
      (try Sched.atomically th (fun () -> failwith "boom") with Failure _ -> ());
      Alcotest.(check int) "atomic depth restored" 0 th.Sched.atomic_depth)

(* A suspend inside an atomic section would let other threads run in the
   middle of a linearizable operation; it must fail, naming the thread and
   the depth. The realistic path is a contended lock: thread 1 holds [m]
   across a yield, and thread 0 asks for it from an atomic block. *)
let test_suspend_in_atomic_fails () =
  let failure_of f = match f () with () -> "" | exception Failure msg -> msg in
  let sched = Helpers.make_sched ~n:2 () in
  let m = Sim_mutex.create () in
  let via_lock = ref "" and nested = ref "" in
  Sched.spawn sched (Sched.thread sched 0) (fun th ->
      Sched.work ~scaled:false th Metrics.Ds 500;
      Sched.checkpoint th;
      via_lock := failure_of (fun () -> Sched.atomically th (fun () -> Sim_mutex.lock m th));
      nested :=
        failure_of (fun () ->
            Sched.atomically th (fun () -> Sched.atomically th (fun () -> Sched.suspend th)));
      Alcotest.(check int) "atomic depth restored" 0 th.Sched.atomic_depth);
  Sched.spawn sched (Sched.thread sched 1) (fun th ->
      Sim_mutex.lock m th;
      Sched.work ~scaled:false th Metrics.Ds 1000;
      Sched.checkpoint th);
  Sched.run sched;
  Alcotest.(check bool) "contended lock in an atomic block fails, naming the thread" true
    (Helpers.contains !via_lock "thread 0" && Helpers.contains !via_lock "depth 1");
  Alcotest.(check bool) "nested atomic blocks report their depth" true
    (Helpers.contains !nested "thread 0" && Helpers.contains !nested "depth 2")

let test_run_until_cutoff () =
  let sched = Helpers.make_sched ~n:1 () in
  let th = Sched.thread sched 0 in
  let reached = ref 0 in
  Sched.spawn sched th (fun th ->
      for i = 1 to 100 do
        Sched.work ~scaled:false th Metrics.Ds 1000;
        reached := i;
        Sched.checkpoint th
      done);
  Sched.set_hard_deadline sched 10_500;
  Sched.run sched;
  Alcotest.(check bool) "stopped near the deadline" true (!reached >= 10 && !reached <= 11)

let test_work_n_matches_loop () =
  (* Batched charging must be bit-identical to the per-object loop it
     replaces, including SMT rounding: each object is charged
     round(per * factor), then multiplied — not round(count * per * factor). *)
  let charge body =
    let sched = Helpers.make_sched ~n:48 () in
    let th = Sched.thread sched 0 in
    Sched.spawn sched th body;
    Sched.run sched;
    Sched.now th
  in
  let looped =
    charge (fun th ->
        for _ = 1 to 7 do
          Sched.work th Metrics.Flush 73
        done)
  in
  let batched = charge (fun th -> Sched.work_n th Metrics.Flush ~per:73 ~count:7) in
  (* 73 * 1.4 rounds to 102, which differs from round(7 * 73 * 1.4) = 715. *)
  Alcotest.(check int) "count * round(per * factor)" (7 * 102) batched;
  Alcotest.(check int) "identical to per-object loop" looped batched

let test_work_n_zero_and_unscaled () =
  Helpers.in_sim (fun _sched th ->
      let t0 = Sched.now th in
      Sched.work_n th Metrics.Ds ~per:100 ~count:0;
      Alcotest.(check int) "count=0 charges nothing" t0 (Sched.now th);
      Sched.work_n ~scaled:false th Metrics.Ds ~per:100 ~count:3;
      Alcotest.(check int) "unscaled" (t0 + 300) (Sched.now th))

let test_work_n_rejects_negative () =
  Helpers.in_sim (fun _sched th ->
      Alcotest.check_raises "negative per"
        (Invalid_argument "Sched.work_n: negative cost") (fun () ->
          Sched.work_n th Metrics.Ds ~per:(-1) ~count:1);
      Alcotest.check_raises "negative count"
        (Invalid_argument "Sched.work_n: negative count") (fun () ->
          Sched.work_n th Metrics.Ds ~per:1 ~count:(-1)))

let test_wait_rejects_negative () =
  Helpers.in_sim (fun _sched th ->
      Alcotest.check_raises "negative duration"
        (Invalid_argument "Sched.wait: negative duration") (fun () ->
          Sched.wait th Metrics.Lock (-5)))

let test_wait_not_smt_scaled () =
  let sched = Helpers.make_sched ~n:48 () in
  let th = Sched.thread sched 0 in
  Sched.spawn sched th (fun th -> Sched.wait th Metrics.Lock 1000);
  Sched.run sched;
  Alcotest.(check int) "waiting is wall-clock" 1000 (Sched.now th)

let test_thread_identity () =
  let sched = Helpers.make_sched ~n:192 () in
  let th = Sched.thread sched 191 in
  Alcotest.(check int) "tid" 191 th.Sched.tid;
  Alcotest.(check int) "socket" 3 th.Sched.socket;
  Alcotest.(check int) "n_threads" 192 (Sched.n_threads sched)

let test_oversubscription () =
  (* 240 threads on the 192-thread machine: threads wrap onto shared CPUs
     and are periodically preempted for whole timeslices. *)
  let sched = Helpers.make_sched ~n:240 () in
  let th = Sched.thread sched 200 in
  Alcotest.(check int) "wraps to socket 0" 0 th.Sched.socket;
  Sched.spawn sched th (fun th ->
      for _ = 1 to 6 do
        Sched.work ~scaled:false th Metrics.Ds 600_000;
        Sched.checkpoint th
      done);
  Sched.run sched;
  Alcotest.(check bool) "preemption inserted idle time" true
    (th.Sched.metrics.Metrics.idle_ns > 0);
  (* Not oversubscribed: no idle time ever. *)
  let sched' = Helpers.make_sched ~n:4 () in
  let th' = Sched.thread sched' 0 in
  Sched.spawn sched' th' (fun th ->
      for _ = 1 to 3 do
        Sched.work ~scaled:false th Metrics.Ds 600_000;
        Sched.checkpoint th
      done);
  Sched.run sched';
  Alcotest.(check int) "no preemption when the machine fits" 0
    th'.Sched.metrics.Metrics.idle_ns

let test_yield_counters () =
  (* The yields/elided_yields counters must account for every checkpoint. *)
  let sched = Helpers.make_sched ~n:96 ~seed:123 () in
  Array.iter
    (fun th ->
      Sched.spawn sched th (fun th ->
          for _ = 1 to 5 do
            Sched.work ~scaled:false th Metrics.Ds (1 + Rng.int_below th.Sched.rng 100);
            Sched.checkpoint th
          done))
    (Sched.threads sched);
  Sched.run sched;
  let total =
    Array.fold_left
      (fun acc th ->
        acc + th.Sched.metrics.Metrics.yields + th.Sched.metrics.Metrics.elided_yields)
      0 (Sched.threads sched)
  in
  Alcotest.(check int) "every checkpoint counted" (96 * 5) total

let test_empty_run_terminates () =
  (* A scheduler with nothing spawned must return immediately, with or
     without a hard deadline. *)
  Sched.run (Helpers.make_sched ~n:4 ());
  let bounded = Helpers.make_sched ~n:4 () in
  Sched.set_hard_deadline bounded 1_000;
  Sched.run bounded

(* A thread has one coroutine and at most one queued event: a second spawn
   while the first is queued, or while the thread is suspended, fails
   naming the thread instead of running two bodies on one record. *)
let test_spawn_twice_fails () =
  let failure_of f = match f () with () -> "" | exception Failure msg -> msg in
  let sched = Helpers.make_sched ~n:2 () in
  Sched.spawn sched (Sched.thread sched 1) ignore;
  let queued = failure_of (fun () -> Sched.spawn sched (Sched.thread sched 1) ignore) in
  Sched.spawn sched (Sched.thread sched 0) Sched.suspend;
  Sched.run sched;
  let suspended = failure_of (fun () -> Sched.spawn sched (Sched.thread sched 0) ignore) in
  Alcotest.(check bool) "queued thread" true (Helpers.contains queued "thread 1");
  Alcotest.(check bool) "suspended thread" true (Helpers.contains suspended "thread 0")

(* Elision is exact: a checkpoint yields iff another event is due at or
   before the thread's clock. Thread 0's second checkpoint, at 520 ns,
   finds only thread 1's event at 600 ns, so it must not yield. *)
let test_exact_elision () =
  let sched = Helpers.make_sched ~n:2 () in
  Sched.spawn sched (Sched.thread sched 0) (fun th ->
      Sched.work ~scaled:false th Metrics.Ds 100;
      Sched.checkpoint th;
      Sched.work ~scaled:false th Metrics.Ds 420;
      Sched.checkpoint th);
  Sched.spawn sched (Sched.thread sched 1) (fun th ->
      Sched.work ~scaled:false th Metrics.Ds 600;
      Sched.checkpoint th);
  Sched.run sched;
  let m = (Sched.thread sched 0).Sched.metrics in
  Alcotest.(check int) "first checkpoint yields" 1 m.Metrics.yields;
  Alcotest.(check int) "second checkpoint elided" 1 m.Metrics.elided_yields

(* Only the running thread holds a slot it may re-key or free, so a
   checkpoint or a suspend for any other thread fails naming that thread:
   outside [run], where no thread runs, and inside [run] on another
   thread's record, where a re-key would silently reorder a parked
   thread. *)
let failure_of f = match f () with () -> "" | exception Failure msg -> msg

let test_checkpoint_outside_run_fails () =
  let sched = Helpers.make_sched ~n:2 () in
  let th = Sched.thread sched 1 in
  let checkpoint = failure_of (fun () -> Sched.checkpoint th) in
  let suspend = failure_of (fun () -> Sched.suspend th) in
  Alcotest.(check bool) "checkpoint names the thread" true
    (Helpers.contains checkpoint "thread 1" && Helpers.contains checkpoint "not the running");
  Alcotest.(check bool) "suspend names the thread" true
    (Helpers.contains suspend "thread 1" && Helpers.contains suspend "not the running");
  Alcotest.(check bool) "the thread is not marked suspended" false th.Sched.suspended

let test_checkpoint_other_thread_fails () =
  let sched = Helpers.make_sched ~n:2 () in
  let other = Sched.thread sched 1 in
  let checkpoint = ref "" and suspend = ref "" in
  Sched.spawn sched (Sched.thread sched 0) (fun th ->
      Sched.work ~scaled:false th Metrics.Ds 100;
      checkpoint := failure_of (fun () -> Sched.checkpoint other);
      suspend := failure_of (fun () -> Sched.suspend other);
      Sched.checkpoint th);
  Sched.spawn sched other (fun th ->
      Sched.work ~scaled:false th Metrics.Ds 500;
      Sched.checkpoint th);
  Sched.run sched;
  Alcotest.(check bool) "checkpoint names both threads" true
    (Helpers.contains !checkpoint "thread 1" && Helpers.contains !checkpoint "thread 0 is");
  Alcotest.(check bool) "suspend names both threads" true
    (Helpers.contains !suspend "thread 1" && Helpers.contains !suspend "thread 0 is");
  Alcotest.(check int) "the parked thread still ran to its end" 500 (Sched.now other)

let suite =
  ( "sched",
    [
      Helpers.quick "work_advances_clock" test_work_advances_clock;
      Helpers.quick "smt_scaling" test_smt_scaling;
      Helpers.quick "min_clock_interleaving" test_min_clock_interleaving;
      Helpers.quick "determinism" test_determinism;
      Helpers.quick "atomically_suppresses_checkpoints" test_atomically_suppresses_checkpoints;
      Helpers.quick "atomically_restores_on_exception" test_atomically_restores_on_exception;
      Helpers.quick "suspend_in_atomic_fails" test_suspend_in_atomic_fails;
      Helpers.quick "run_until_cutoff" test_run_until_cutoff;
      Helpers.quick "work_n_matches_loop" test_work_n_matches_loop;
      Helpers.quick "work_n_zero_and_unscaled" test_work_n_zero_and_unscaled;
      Helpers.quick "work_n_rejects_negative" test_work_n_rejects_negative;
      Helpers.quick "wait_rejects_negative" test_wait_rejects_negative;
      Helpers.quick "wait_not_smt_scaled" test_wait_not_smt_scaled;
      Helpers.quick "thread_identity" test_thread_identity;
      Helpers.quick "oversubscription" test_oversubscription;
      Helpers.quick "yield_counters" test_yield_counters;
      Helpers.quick "empty_run_terminates" test_empty_run_terminates;
      Helpers.quick "spawn_twice_fails" test_spawn_twice_fails;
      Helpers.quick "exact_elision" test_exact_elision;
      Helpers.quick "checkpoint_outside_run_fails" test_checkpoint_outside_run_fails;
      Helpers.quick "checkpoint_other_thread_fails" test_checkpoint_other_thread_fails;
    ] )
