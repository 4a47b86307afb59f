(* Fast checks of the benchmark itself: its workloads and metric names agree
   with BENCHMARK.json and the suite, its statistics refuse thin samples,
   and its correctness checks pass on good runs and fire on a bad one. *)

open Perf

let root = "../.."
let spec = lazy (Spec.load ~root)

let workload_entries () =
  Alcotest.(check (list string))
    "workload names" (Lazy.force spec).Spec.workloads
    (List.map (fun (w : Bench.workload) -> w.Bench.name) Bench.workloads);
  List.iter
    (fun (w : Bench.workload) ->
      match w.Bench.kind with
      | Bench.Sim ids ->
          (* Raises on an id missing from the suite or without a baseline. *)
          let entries = Sim.load ~root ids in
          Alcotest.(check int) (w.Bench.name ^ " entries") (List.length ids) (List.length entries)
      | Bench.Offheap _ -> ())
    Bench.workloads

let names metrics = List.map (fun (m : Bench.metric) -> (m.Bench.name, m.Bench.unit_)) metrics
let declared l = List.map (fun (m : Spec.metric) -> (m.Spec.name, m.Spec.unit_)) l

let metric_names () =
  let pass_ms = List.init Stats.min_p75_samples (fun i -> float_of_int (100 + i)) in
  let samples = { Stats.pass_ms; setup_ms = pass_ms; probe_ms = 11. :: pass_ms } in
  let measured =
    { Bench.samples; ops = List.map (fun _ -> 1000) pass_ms; heap_mb = 1.; trials = [] }
  in
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "end-to-end" (declared (Lazy.force spec).Spec.end_to_end)
    (names (Bench.end_to_end measured));
  let t =
    {
      Bench.counts = Layers.counts ();
      per_entry = [];
      cycles = 10;
      gc = { Layers.minor_ms = 1.; major_ms = 1.; minor_words = 1.; lost = 0 };
      traced_ms = 0.;
      retired = 0;
      released = 0;
      ops = 1000;
    }
  in
  let u =
    {
      Bench.yield_ns = 1.;
      dispatch_n192 = 1.;
      dispatch_n32 = 1.;
      handoff_ns = 1.;
      malloc_free_ns = 1.;
      flush_ns_per_obj = 1.;
      smr_ns = List.map (fun s -> (s, 1.)) Bench.smr_families;
      ds_ns = List.map (fun (d, _) -> (d, 1.)) Bench.ds_ranges;
      cycle_ns = List.map (fun r -> (r, 1.)) Offheap.reclaimers;
    }
  in
  Alcotest.check pair "per-layer" (declared (Lazy.force spec).Spec.per_layer)
    (names (Bench.per_layer ~p50:100. t u (Bench.ledger ~threads:192 t u)))

let p75_refuses_thin_samples () =
  let samples n = List.init n float_of_int in
  (match Stats.p75 (samples (Stats.min_p75_samples - 1)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p75 accepted 39 samples");
  Alcotest.(check (float 1e-9)) "p75 of 0..39" 29.75 (Stats.p75 (samples Stats.min_p75_samples))

let smoke = lazy (Sim.load ~root [ "ll-ebr-af-n8" ])

let share (c : Sim.checker) =
  float_of_int c.Sim.tally.Stats.failed /. float_of_int c.Sim.tally.Stats.attempted

(* At the baselines' seed the trial must reproduce the blessed digest; at
   the held-out seed 7 it must reproduce itself. *)
let smoke_passes () =
  let smoke = Lazy.force smoke in
  List.iter
    (fun seed ->
      let c = Sim.checker ~tally:(Stats.tally ()) smoke in
      ignore (Sim.pass c ~seed smoke);
      ignore (Sim.pass c ~seed smoke);
      Alcotest.(check (float 0.)) (Printf.sprintf "failed_share, seed %d" seed) 0. (share c))
    [ 42; 7 ];
  let p = Offheap.pass ~seed:42 ~ops:1000 in
  Alcotest.(check bool) "offheap pass ok" true p.Offheap.ok

let planted_digest_fails () =
  let smoke = Lazy.force smoke in
  let c = Sim.checker ~tally:(Stats.tally ()) smoke in
  Hashtbl.replace c.Sim.expected ("ll-ebr-af-n8", 42) "0123456789abcdef0123456789abcdef";
  ignore (Sim.pass c ~seed:42 smoke);
  Alcotest.(check (float 0.)) "failed_share" 1. (share c)

(* The reference probe runs in its own process, so a change that tunes the
   program's collector or keeps a larger live heap speeds up or slows down
   the passes without moving the probe, and the change shows in the scaled
   times instead of cancelling out. *)
let reference_ignores_caller_gc () =
  let r = Stats.reference "../probe.exe" in
  let before = Stats.probe r in
  let g = Gc.get () in
  let minor_heap_size = 8 * g.Gc.minor_heap_size in
  Gc.set { g with Gc.minor_heap_size };
  let live = Array.init 1_000_000 (fun i -> Some i) in
  let after = Stats.probe r in
  Gc.set g;
  ignore (Sys.opaque_identity live);
  Stats.stop_reference r;
  Alcotest.(check int) "probe's minor heap" before.Stats.minor_heap_words after.Stats.minor_heap_words;
  Alcotest.(check bool) "caller's minor heap not seen" true
    (after.Stats.minor_heap_words <> minor_heap_size);
  Alcotest.(check bool) "caller's live heap not seen" true
    (after.Stats.heap_words - before.Stats.heap_words < 1_000_000);
  (* Same probes, a pass twice as fast: the scaled pass halves. *)
  let scaled pass_ms = fst (Stats.scaled { Stats.pass_ms; setup_ms = [ 1. ]; probe_ms = [ 20.; 20. ] }) in
  Alcotest.(check (list (float 1e-9))) "scaled" [ 50.; 25. ] (scaled [ 100. ] @ scaled [ 50. ])

let verdicts () =
  let metric =
    { Spec.name = "pass_ms_p50"; unit_ = "ms"; higher_is_better = false; bound = Some 0.1 }
  in
  let around x = List.init 10 (fun i -> x +. float_of_int (i mod 3)) in
  let v parent change = Compare.verdict_name (Compare.verdict metric ~parent ~change) in
  Alcotest.(check string) "faster" "improved" (v (around 100.) (around 80.));
  Alcotest.(check string) "equal" "same" (v (around 100.) (around 100.));
  Alcotest.(check string) "slower" "worse" (v (around 100.) (around 120.));
  let noisy = List.init 10 (fun i -> if i mod 2 = 0 then 70. else 130.) in
  Alcotest.(check string) "noisy parent" "unresolved" (v noisy (around 105.))

let () =
  Alcotest.run "perf"
    [
      ( "perf",
        [
          Alcotest.test_case "workload_entries" `Quick workload_entries;
          Alcotest.test_case "metric_names" `Quick metric_names;
          Alcotest.test_case "p75_refuses_thin_samples" `Quick p75_refuses_thin_samples;
          Alcotest.test_case "smoke_passes" `Quick smoke_passes;
          Alcotest.test_case "planted_digest_fails" `Quick planted_digest_fails;
          Alcotest.test_case "reference_ignores_caller_gc" `Quick reference_ignores_caller_gc;
          Alcotest.test_case "verdicts" `Quick verdicts;
        ] );
    ]
