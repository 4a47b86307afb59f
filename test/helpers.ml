(* Shared test plumbing: build a small simulated world and run test bodies
   inside simulated threads (allocator and SMR calls perform effects, so
   they must run under the scheduler). *)

open Simcore

let make_sched ?(n = 4) ?(seed = 7) () =
  Sched.create ~topology:Topology.intel_192t ~n_threads:n ~seed ()

(* Run [body] on thread 0 of a fresh scheduler and return its result. *)
let in_sim ?n ?seed body =
  let sched = make_sched ?n ?seed () in
  let result = ref None in
  Sched.spawn sched (Sched.thread sched 0) (fun th -> result := Some (body sched th));
  Sched.run sched;
  match !result with Some r -> r | None -> Alcotest.fail "simulated body did not finish"

(* Run one body per thread. *)
let in_sim_all ?n ?seed body =
  let sched = make_sched ?n ?seed () in
  Array.iter (fun th -> Sched.spawn sched th (body sched)) (Sched.threads sched);
  Sched.run sched;
  sched

(* A full SMR context (allocator + policy + optional validator). *)
let make_ctx ?(n = 4) ?(seed = 7) ?(alloc = "jemalloc") ?(mode = Smr.Free_policy.Batch)
    ?(validate = true) () =
  let sched = make_sched ~n ~seed () in
  let alloc = Alloc.Registry.make alloc sched in
  let safety = if validate then Some (Smr.Safety.create ~n) else None in
  let policy = Smr.Free_policy.create ?safety ~mode ~alloc ~n () in
  ({ Smr.Smr_intf.sched; alloc; policy; safety }, sched)

(* Data structure context backed by a reclaimer that frees immediately
   through the policy (fine for single-threaded semantic tests). *)
let ds_ctx_collecting (ctx : Smr.Smr_intf.ctx) retired =
  {
    Ds.Ds_intf.alloc = ctx.Smr.Smr_intf.alloc;
    retire = (fun _th h -> retired := h :: !retired);
    node_cost = 10;
  }

let quick name f = Alcotest.test_case name `Quick f

(* QCheck integration: uniform trial count for property tests. *)
let prop ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

(* Substring search, for asserting on rendered output. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- trace replay cross-check ------------------------------------------- *)

(* The counters [Simtrace.Profile] replays from a trace. *)
let replayed_counters =
  [
    ("total_ns", fun m -> m.Metrics.total_ns);
    ("free_ns", fun m -> m.Metrics.free_ns);
    ("flush_ns", fun m -> m.Metrics.flush_ns);
    ("lock_ns", fun m -> m.Metrics.lock_ns);
    ("frees", fun m -> m.Metrics.frees);
    ("flushes", fun m -> m.Metrics.flushes);
    ("remote_frees", fun m -> m.Metrics.remote_frees);
    ("epochs", fun m -> m.Metrics.epochs);
    ("retires", fun m -> m.Metrics.retires);
    ("yields", fun m -> m.Metrics.yields);
    ("elided_yields", fun m -> m.Metrics.elided_yields);
    ("hp_scans", fun m -> m.Metrics.hp_scans);
    ("hp_protect_retries", fun m -> m.Metrics.hp_protect_retries);
    ("thread_spawns", fun m -> m.Metrics.thread_spawns);
    ("thread_retires", fun m -> m.Metrics.thread_retires);
    ("teardown_frees", fun m -> m.Metrics.teardown_frees);
  ]

(* What a run counted, to hold its trace's replay against: a runner trial
   (its windowed results), or the threads of a raw simulation, whose
   summed counters cover the whole run. *)
type counted = Trial of Runtime.Trial.t | Threads of Sched.t

(* The trace/metrics cross-check: replay [tracer] into a profile and check
   it bit-exactly against what the run counted. A raw simulation is
   checked on every replayed counter. A trial records fewer: its three
   shares, read through the runner's [Metrics.pct_*], its counters, and
   its per-epoch garbage trace. *)
let cross_check label counted tracer =
  let p = Simtrace.Profile.of_tracer tracer in
  let m = p.Simtrace.Profile.metrics in
  let chk name = Alcotest.(check int) (label ^ ": " ^ name) in
  chk "dropped" 0 p.Simtrace.Profile.dropped;
  (match counted with
  | Threads sched ->
      let sum = Metrics.create () in
      Array.iter
        (fun (th : Sched.thread) -> Metrics.merge sum th.Sched.metrics)
        (Sched.threads sched);
      List.iter (fun (name, f) -> chk name (f sum) (f m)) replayed_counters
  | Trial t ->
      List.iter
        (fun (name, share, pct) ->
          Alcotest.(check (float 0.)) (label ^ ": " ^ name) share (pct m))
        [
          ("pct_free", t.Runtime.Trial.pct_free, Metrics.pct_free);
          ("pct_flush", t.Runtime.Trial.pct_flush, Metrics.pct_flush);
          ("pct_lock", t.Runtime.Trial.pct_lock, Metrics.pct_lock);
        ];
      List.iter
        (fun (name, counted, replayed) -> chk name counted replayed)
        [
          ("frees", t.Runtime.Trial.freed, m.Metrics.frees);
          ("retires", t.Runtime.Trial.retired, m.Metrics.retires);
          ("flushes", t.Runtime.Trial.flushes, m.Metrics.flushes);
          ("remote_frees", t.Runtime.Trial.remote_frees, m.Metrics.remote_frees);
          ("epochs", t.Runtime.Trial.epochs, m.Metrics.epochs);
          ("thread_spawns", t.Runtime.Trial.thread_spawns, m.Metrics.thread_spawns);
          ("thread_retires", t.Runtime.Trial.thread_retires, m.Metrics.thread_retires);
          ("teardown_frees", t.Runtime.Trial.teardown_frees, m.Metrics.teardown_frees);
          ("peak_epoch_garbage", t.Runtime.Trial.peak_epoch_garbage,
            p.Simtrace.Profile.peak_epoch_garbage);
        ];
      Alcotest.(check (list (pair int int)))
        (label ^ ": garbage_by_epoch") t.Runtime.Trial.garbage_by_epoch
        p.Simtrace.Profile.garbage_by_epoch);
  p
