(* The tracing subsystem: recorder semantics, Chrome exporter schema, and —
   the load-bearing guarantee — cross-validation of the trace-derived
   perf-style profile against the Simcore.Metrics counters, bit-exactly.

   The profile recomputes %free/%flush/%lock and the flush / remote-free /
   epoch counters from the event stream alone; equality with the Trial's
   numbers (which come from the metric counters) means the two independent
   accounting paths agree on every traced run. *)

open Simcore

(* A small hotpath-style configuration: tiny tcache so the flush and refill
   paths fire constantly, no validator, one trial. *)
let small_cfg ?(alloc = "jemalloc") ?(smr = "debra") ?(threads = 4) () =
  {
    Runtime.Config.default with
    Runtime.Config.ds = "list";
    smr;
    alloc;
    threads;
    key_range = 256;
    warmup_ns = 500_000;
    duration_ns = 4_000_000;
    grace_ns = 4_000_000;
    seed = 42;
    trials = 1;
    validate = false;
    alloc_config = { Alloc.Alloc_intf.default_config with Alloc.Alloc_intf.tcache_cap = 16 };
  }

let run_traced ?(capacity = 1 lsl 20) cfg =
  let tracer = Tracer.create ~capacity () in
  let trial = Runtime.Runner.run_trial ~tracer cfg ~seed:cfg.Runtime.Config.seed in
  (trial, tracer)

let exact_float = Alcotest.float 0.

(* The cross-validation contract: every profile number that has a metrics
   counterpart must match it bit-exactly. *)
let check_cross label (trial : Runtime.Trial.t) tracer =
  let p = Simtrace.Profile.of_tracer tracer in
  let chk name = Alcotest.(check int) (label ^ ": " ^ name) in
  chk "dropped" 0 p.Simtrace.Profile.dropped;
  Alcotest.(check exact_float)
    (label ^ ": pct_free") trial.Runtime.Trial.pct_free p.Simtrace.Profile.pct_free;
  Alcotest.(check exact_float)
    (label ^ ": pct_flush") trial.Runtime.Trial.pct_flush p.Simtrace.Profile.pct_flush;
  Alcotest.(check exact_float)
    (label ^ ": pct_lock") trial.Runtime.Trial.pct_lock p.Simtrace.Profile.pct_lock;
  chk "frees" trial.Runtime.Trial.freed p.Simtrace.Profile.frees;
  chk "flushes" trial.Runtime.Trial.flushes p.Simtrace.Profile.flushes;
  chk "remote_frees" trial.Runtime.Trial.remote_frees p.Simtrace.Profile.remote_frees;
  chk "epochs" trial.Runtime.Trial.epochs p.Simtrace.Profile.epochs;
  p

(* --- cross-validation on suite entries ------------------------------- *)

let suite_entry id =
  match List.find_opt (fun e -> e.Regress.Suite.id = id) Regress.Suite.builtin with
  | Some e -> e
  | None -> Alcotest.fail ("builtin suite has no entry " ^ id)

(* DEBRA batch, DEBRA amortized-free and Token-EBR amortized-free, straight
   from the suite of record. *)
let test_cross_suite_entries () =
  List.iter
    (fun id ->
      let e = suite_entry id in
      let trial, tracer = run_traced e.Regress.Suite.config in
      ignore (check_cross id trial tracer))
    [ "ll-ebr-n1"; "ll-ebr-af-n8"; "ll-token-af-n1" ]

(* --- cross-validation per allocator model ---------------------------- *)

let test_cross_allocators () =
  List.iter
    (fun alloc ->
      let trial, tracer = run_traced (small_cfg ~alloc ()) in
      ignore (check_cross alloc trial tracer))
    [ "jemalloc"; "jemalloc-ba"; "tcmalloc"; "mimalloc"; "leak"; "jemalloc-pool" ]

(* The flush-heavy jemalloc entry must actually exercise the traced paths —
   a cross-check over all-zero counters would prove nothing. *)
let test_cross_exercises_paths () =
  let trial, tracer = run_traced (small_cfg ~threads:8 ()) in
  let p = check_cross "jemalloc-n8" trial tracer in
  Alcotest.(check bool) "frees > 0" true (p.Simtrace.Profile.frees > 0);
  Alcotest.(check bool) "flushes > 0" true (p.Simtrace.Profile.flushes > 0);
  Alcotest.(check bool) "lock_ns > 0" true (p.Simtrace.Profile.lock_ns > 0);
  Alcotest.(check bool) "epochs > 0" true (p.Simtrace.Profile.epochs > 0)

(* --- determinism ------------------------------------------------------ *)

let test_trace_digest_repeatable () =
  let _, tr1 = run_traced (small_cfg ()) in
  let _, tr2 = run_traced (small_cfg ()) in
  Alcotest.(check string) "same schedule, same trace" (Tracer.digest tr1) (Tracer.digest tr2)

(* Fan traced trials over 1 and 2 domains: the per-seed trace digests must
   not depend on the parallelism. *)
let test_trace_digest_jobs () =
  let cfg = small_cfg () in
  let digests jobs =
    Runtime.Pool.map ~jobs
      (fun seed ->
        let tracer = Tracer.create () in
        let _ = Runtime.Runner.run_trial ~tracer cfg ~seed in
        Tracer.digest tracer)
      [ 42; 43 ]
  in
  Alcotest.(check (list string)) "-j1 vs -j2" (digests 1) (digests 2)

(* Tracing must not perturb the simulation: trial digest and canonical
   results JSON are byte-identical with tracing on or off. *)
let test_tracing_is_invisible () =
  let cfg = small_cfg () in
  let plain = Runtime.Runner.run_trial cfg ~seed:cfg.Runtime.Config.seed in
  let traced, tracer = run_traced cfg in
  Alcotest.(check bool) "trace non-empty" true (Tracer.recorded tracer > 0);
  Alcotest.(check string) "trial digest" (Runtime.Trial.digest plain)
    (Runtime.Trial.digest traced);
  Alcotest.(check string) "results JSON bytes"
    (Json.render (Runtime.Trial.to_json plain))
    (Json.render (Runtime.Trial.to_json traced))

(* --- yield counters ------------------------------------------------- *)

(* The scheduler's yield accounting has no Trial counterpart (it is not part
   of the canonical results), so cross-check the trace-derived counts
   against the Metrics counters directly on a raw simulation — the same
   two-independent-paths contract as check_cross. *)
let test_cross_yield_counters () =
  let tracer = Tracer.create () in
  let sched = Helpers.make_sched ~n:96 ~seed:5 () in
  Sched.set_tracer sched tracer;
  Array.iter
    (fun th ->
      Sched.spawn sched th (fun th ->
          for _ = 1 to 5 do
            Sched.work ~scaled:false th Metrics.Ds (1 + Rng.int_below th.Sched.rng 100);
            Sched.checkpoint th
          done))
    (Sched.threads sched);
  Sched.run sched;
  let sum f = Array.fold_left (fun acc th -> acc + f th.Sched.metrics) 0 (Sched.threads sched) in
  let p = Simtrace.Profile.of_tracer tracer in
  Alcotest.(check int) "yields" (sum (fun m -> m.Metrics.yields)) p.Simtrace.Profile.yields;
  Alcotest.(check int) "elided_yields"
    (sum (fun m -> m.Metrics.elided_yields))
    p.Simtrace.Profile.elided_yields;
  Alcotest.(check bool) "yields recorded" true (p.Simtrace.Profile.yields > 0)

(* --- hazard-pointer counters ------------------------------------------ *)

(* The hazard-pointer counters (scans, protect retries) have no Trial
   counterpart either, so cross-check the trace-derived counts against the
   Metrics counters directly on a raw retire-heavy workload under the
   hazard reclaimer. Scans double as reclamation passes ([epochs]), so that
   equality is asserted too. *)
let test_cross_hp_counters () =
  let ctx, sched = Helpers.make_ctx ~n:4 () in
  let tracer = Tracer.create () in
  Sched.set_tracer sched tracer;
  let smr = Smr.Smr_registry.make ~buffer_size:16 "hazard" ctx in
  Array.iter
    (fun (th : Sched.thread) ->
      Sched.spawn sched th (fun th ->
          for _ = 1 to 300 do
            (match ctx.Smr.Smr_intf.safety with
            | Some s -> Smr.Safety.note_op_begin s ~tid:th.Sched.tid ~time:(Sched.now th)
            | None -> ());
            smr.Smr.Smr_intf.begin_op th;
            smr.Smr.Smr_intf.retire th (ctx.Smr.Smr_intf.alloc.Alloc.Alloc_intf.malloc th 64);
            smr.Smr.Smr_intf.end_op th;
            Sched.checkpoint th
          done;
          match ctx.Smr.Smr_intf.safety with
          | Some s -> Smr.Safety.note_quiescent s ~tid:th.Sched.tid
          | None -> ()))
    (Sched.threads sched);
  Sched.run sched;
  let sum f = Array.fold_left (fun acc th -> acc + f th.Sched.metrics) 0 (Sched.threads sched) in
  let p = Simtrace.Profile.of_tracer tracer in
  let chk = Alcotest.(check int) in
  chk "hp_scans" (sum (fun m -> m.Metrics.hp_scans)) p.Simtrace.Profile.hp_scans;
  chk "hp_protect_retries"
    (sum (fun m -> m.Metrics.hp_protect_retries))
    p.Simtrace.Profile.hp_protect_retries;
  chk "scans are the reclaimer's passes" (sum (fun m -> m.Metrics.epochs))
    p.Simtrace.Profile.hp_scans;
  Alcotest.(check bool) "scans recorded" true (p.Simtrace.Profile.hp_scans > 0);
  Alcotest.(check bool) "retries recorded" true (p.Simtrace.Profile.hp_protect_retries > 0);
  Alcotest.(check bool) "reclaimable objects recorded" true (p.Simtrace.Profile.hp_freed > 0);
  Alcotest.(check bool) "scan time recorded" true (p.Simtrace.Profile.hp_scan_ns > 0);
  match Smr.Safety.violations (Option.get ctx.Smr.Smr_intf.safety) with
  | [] -> ()
  | v :: _ -> Alcotest.fail (Format.asprintf "validator violation: %a" Smr.Safety.pp_violation v)

(* --- retires, for every reclaimer -------------------------------------- *)

(* Every registered reclaimer counts a retire in [metrics.retires] and
   traces it as a [Retire] instant: 4 threads x 200 retires each, raw, so
   the property does not depend on what a data structure retires. *)
let test_cross_retires_every_reclaimer () =
  List.iter
    (fun name ->
      let ctx, sched = Helpers.make_ctx ~n:4 () in
      let tracer = Tracer.create () in
      Sched.set_tracer sched tracer;
      let smr = Smr.Smr_registry.make name ctx in
      Array.iter
        (fun (th : Sched.thread) ->
          Sched.spawn sched th (fun th ->
              for _ = 1 to 200 do
                smr.Smr.Smr_intf.begin_op th;
                smr.Smr.Smr_intf.retire th (ctx.Smr.Smr_intf.alloc.Alloc.Alloc_intf.malloc th 64);
                smr.Smr.Smr_intf.end_op th;
                Sched.checkpoint th
              done))
        (Sched.threads sched);
      Sched.run sched;
      let retires =
        Array.fold_left (fun acc th -> acc + th.Sched.metrics.Metrics.retires) 0
          (Sched.threads sched)
      in
      let traced = ref 0 in
      Tracer.iter tracer (fun e -> if e.Tracer.kind = Tracer.Retire then incr traced);
      Alcotest.(check int) (name ^ ": retires counted") 800 retires;
      Alcotest.(check int) (name ^ ": retires traced") retires !traced)
    Smr.Smr_registry.names

(* --- recorder unit behaviour ----------------------------------------- *)

let all_kinds =
  [
    Tracer.Run; Tracer.Stall; Tracer.Preempt; Tracer.Lock_wait; Tracer.Lock_acquire;
    Tracer.Lock_hold; Tracer.Free_call; Tracer.Flush; Tracer.Overflow; Tracer.Refill;
    Tracer.Remote_free; Tracer.Reclaim; Tracer.Splice; Tracer.Af_drain;
    Tracer.Epoch_advance; Tracer.Epoch_garbage; Tracer.Retire; Tracer.Measure_start;
    Tracer.Thread_end; Tracer.Yield; Tracer.Hp_protect; Tracer.Hp_scan;
    Tracer.Thread_spawn; Tracer.Thread_retire; Tracer.Teardown_flush;
  ]

let test_kind_codes_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check bool) (Tracer.kind_name k) true (Tracer.of_code (Tracer.code k) = k))
    all_kinds;
  List.iter
    (fun c ->
      Alcotest.check_raises (Printf.sprintf "code %d is unassigned" c)
        (Invalid_argument "Tracer.of_code: unknown kind") (fun () -> ignore (Tracer.of_code c)))
    [ 20; 23; 24 ]

let test_disabled_records_nothing () =
  Tracer.span Tracer.disabled Tracer.Run ~tid:0 ~ts:0 ~dur:5 ~a:0 ~b:0;
  Tracer.instant Tracer.disabled Tracer.Retire ~tid:0 ~ts:0 ~a:0 ~b:0;
  Alcotest.(check bool) "disabled" false (Tracer.enabled Tracer.disabled);
  Alcotest.(check int) "no events" 0 (Tracer.recorded Tracer.disabled)

let test_negative_duration_rejected () =
  let tr = Tracer.create ~capacity:8 () in
  Alcotest.check_raises "negative dur"
    (Invalid_argument "Tracer.span: negative duration") (fun () ->
      Tracer.span tr Tracer.Run ~tid:0 ~ts:10 ~dur:(-1) ~a:0 ~b:0)

let test_ring_wraparound () =
  let tr = Tracer.create ~capacity:4 () in
  for i = 0 to 9 do
    Tracer.instant tr Tracer.Retire ~tid:0 ~ts:i ~a:i ~b:0
  done;
  Alcotest.(check int) "recorded" 10 (Tracer.recorded tr);
  Alcotest.(check int) "retained" 4 (Tracer.retained tr);
  Alcotest.(check int) "dropped" 6 (Tracer.dropped tr);
  let evs = Tracer.events tr in
  Alcotest.(check int) "oldest retained seq" 6 evs.(0).Tracer.seq;
  Alcotest.(check int) "newest retained ts" 9 evs.(3).Tracer.ts

(* --- Chrome exporter -------------------------------------------------- *)

let test_export_validates () =
  let _, tracer = run_traced (small_cfg ~threads:8 ()) in
  let doc = Simtrace.Chrome.export tracer in
  Alcotest.(check (list string)) "no schema errors" [] (Simtrace.Chrome.validate doc)

let test_export_empty_trace () =
  let tracer = Tracer.create ~capacity:8 () in
  let doc = Simtrace.Chrome.export tracer in
  Alcotest.(check (list string)) "empty trace validates" [] (Simtrace.Chrome.validate doc);
  match Json.member "traceEvents" doc with
  | Json.List evs ->
      (* Only the two process_name metadata records. *)
      Alcotest.(check int) "metadata only" 2 (List.length evs)
  | _ -> Alcotest.fail "traceEvents missing"

let test_export_after_wraparound () =
  let trial, tracer = run_traced ~capacity:64 (small_cfg ()) in
  ignore trial;
  Alcotest.(check bool) "events were dropped" true (Tracer.dropped tracer > 0);
  Alcotest.(check int) "ring full" 64 (Tracer.retained tracer);
  let doc = Simtrace.Chrome.export tracer in
  Alcotest.(check (list string)) "truncated trace validates" []
    (Simtrace.Chrome.validate doc);
  (* A truncated trace must advertise its losses. *)
  let dropped = Json.to_int (Json.member "dropped" (Json.member "otherData" doc)) in
  Alcotest.(check int) "dropped advertised" (Tracer.dropped tracer) dropped

let test_validate_rejects_malformed () =
  let doc_of evs = Json.Assoc [ ("traceEvents", Json.List evs) ] in
  let span ~ts ~dur =
    Json.Assoc
      [
        ("name", Json.String "x");
        ("ph", Json.String "X");
        ("pid", Json.Int 0);
        ("tid", Json.Int 0);
        ("ts", Json.Int ts);
        ("dur", Json.Int dur);
      ]
  in
  let failing doc = Simtrace.Chrome.validate doc <> [] in
  Alcotest.(check bool) "not an object" true (failing (Json.List []));
  Alcotest.(check bool) "missing traceEvents" true (failing (Json.Assoc []));
  Alcotest.(check bool) "missing ph" true
    (failing (doc_of [ Json.Assoc [ ("name", Json.String "x") ] ]));
  Alcotest.(check bool) "missing ts" true
    (failing
       (doc_of
          [
            Json.Assoc
              [
                ("name", Json.String "x");
                ("ph", Json.String "i");
                ("pid", Json.Int 0);
                ("tid", Json.Int 0);
              ];
          ]));
  Alcotest.(check bool) "non-monotone ts" true
    (failing (doc_of [ span ~ts:5 ~dur:1; span ~ts:3 ~dur:1 ]));
  Alcotest.(check bool) "partially overlapping spans" true
    (failing (doc_of [ span ~ts:0 ~dur:10; span ~ts:5 ~dur:20 ]));
  Alcotest.(check bool) "negative dur" true (failing (doc_of [ span ~ts:0 ~dur:(-2) ]));
  Alcotest.(check (list string)) "properly nested spans pass" []
    (Simtrace.Chrome.validate (doc_of [ span ~ts:0 ~dur:10; span ~ts:2 ~dur:3 ]))

(* A rendered trace file round-trips through the parser and still
   validates — what `epochs validate-trace` does to --trace output. *)
let test_export_roundtrip () =
  let _, tracer = run_traced (small_cfg ()) in
  let text = Json.render (Simtrace.Chrome.export tracer) in
  match Json.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok doc ->
      Alcotest.(check (list string)) "reparsed doc validates" []
        (Simtrace.Chrome.validate doc)

(* --- simcheck integration --------------------------------------------- *)

(* Tracing a checker replay must not perturb the outcome digest, the same
   invisibility contract as the runner's. *)
let test_check_replay_traced () =
  let sc =
    match Check.Scenario.of_name "sim/list/debra" with
    | Some sc -> sc
    | None -> Alcotest.fail "scenario sim/list/debra missing"
  in
  let spec = Option.get (Check.Strategy.of_name "random-walk") in
  let plain = Check.Engine.run_one sc ~spec ~seed:5 ~mutant:None in
  let tracer = Tracer.create () in
  let traced = Check.Engine.run_one ~tracer sc ~spec ~seed:5 ~mutant:None in
  Alcotest.(check bool) "trace non-empty" true (Tracer.recorded tracer > 0);
  Alcotest.(check string) "outcome digest unchanged"
    (Check.Oracle.digest plain.Check.Engine.outcome)
    (Check.Oracle.digest traced.Check.Engine.outcome);
  let doc = Simtrace.Chrome.export tracer in
  Alcotest.(check (list string)) "replay trace validates" []
    (Simtrace.Chrome.validate doc)

let suite =
  ( "trace",
    [
      Helpers.quick "cross_suite_entries" test_cross_suite_entries;
      Helpers.quick "cross_allocators" test_cross_allocators;
      Helpers.quick "cross_exercises_paths" test_cross_exercises_paths;
      Helpers.quick "trace_digest_repeatable" test_trace_digest_repeatable;
      Helpers.quick "trace_digest_jobs" test_trace_digest_jobs;
      Helpers.quick "tracing_is_invisible" test_tracing_is_invisible;
      Helpers.quick "cross_yield_counters" test_cross_yield_counters;
      Helpers.quick "cross_hp_counters" test_cross_hp_counters;
      Helpers.quick "cross_retires_every_reclaimer" test_cross_retires_every_reclaimer;
      Helpers.quick "kind_codes_roundtrip" test_kind_codes_roundtrip;
      Helpers.quick "disabled_records_nothing" test_disabled_records_nothing;
      Helpers.quick "negative_duration_rejected" test_negative_duration_rejected;
      Helpers.quick "ring_wraparound" test_ring_wraparound;
      Helpers.quick "export_validates" test_export_validates;
      Helpers.quick "export_empty_trace" test_export_empty_trace;
      Helpers.quick "export_after_wraparound" test_export_after_wraparound;
      Helpers.quick "validate_rejects_malformed" test_validate_rejects_malformed;
      Helpers.quick "export_roundtrip" test_export_roundtrip;
      Helpers.quick "check_replay_traced" test_check_replay_traced;
    ] )
