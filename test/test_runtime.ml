(* End-to-end trials through the experiment runner. These are miniature
   versions of the paper's experiments: small key ranges and short windows,
   checking structure (determinism, steady-state size, leak freedom, the
   qualitative batch-vs-AF ordering) rather than absolute numbers. *)

let base =
  {
    Runtime.Config.default with
    Runtime.Config.threads = 8;
    key_range = 1024;
    warmup_ns = 200_000;
    duration_ns = 2_000_000;
    grace_ns = 2_000_000;
    trials = 1;
    validate = true;
  }

let run cfg = Runtime.Runner.run_trial cfg ~seed:99

let test_basic_trial () =
  let t = run base in
  Alcotest.(check bool) "positive throughput" true (t.Runtime.Trial.throughput > 0.);
  Alcotest.(check bool) "ops counted" true (t.Runtime.Trial.ops > 0);
  Alcotest.(check int) "no violations" 0 t.Runtime.Trial.violations;
  Alcotest.(check bool) "some epochs" true (t.Runtime.Trial.epochs > 0);
  Alcotest.(check bool) "some frees" true (t.Runtime.Trial.freed > 0)

let test_steady_state_size () =
  let t = run base in
  (* 50/50 workload on [0, 1024): steady state ~512 keys. *)
  Alcotest.(check bool) "size near half the range" true
    (t.Runtime.Trial.final_size > 380 && t.Runtime.Trial.final_size < 650)

let test_determinism () =
  let a = run base and b = run base in
  Alcotest.(check int) "same seed, same op count" a.Runtime.Trial.ops b.Runtime.Trial.ops;
  Alcotest.(check int) "same freed count" a.Runtime.Trial.freed b.Runtime.Trial.freed;
  Alcotest.(check int) "same peak memory" a.Runtime.Trial.peak_mapped_bytes
    b.Runtime.Trial.peak_mapped_bytes

let test_seed_sensitivity () =
  let a = run base in
  let b = Runtime.Runner.run_trial base ~seed:100 in
  Alcotest.(check bool) "different seeds, different runs" true
    (a.Runtime.Trial.ops <> b.Runtime.Trial.ops)

let test_trials_use_distinct_seeds () =
  let cfg = { base with Runtime.Config.trials = 3 } in
  match Runtime.Runner.run cfg with
  | [ a; b; c ] ->
      Alcotest.(check bool) "three distinct trials" true
        (a.Runtime.Trial.ops <> b.Runtime.Trial.ops || b.Runtime.Trial.ops <> c.Runtime.Trial.ops)
  | l -> Alcotest.failf "expected 3 trials, got %d" (List.length l)

let smoke_reclaimer name =
  Helpers.quick ("smoke_" ^ name) (fun () ->
      let t = run { base with Runtime.Config.smr = name } in
      Alcotest.(check bool) (name ^ " runs") true (t.Runtime.Trial.ops > 0);
      Alcotest.(check int) (name ^ " is safe") 0 t.Runtime.Trial.violations)

let smoke_config label cfg =
  Helpers.quick ("smoke_" ^ label) (fun () ->
      let t = run cfg in
      Alcotest.(check bool) (label ^ " runs") true (t.Runtime.Trial.ops > 0))

let test_af_beats_batch_under_pressure () =
  (* The paper's headline at 4-socket scale, shrunk: with 64 threads the
     batch-free DEBRA must lose to its amortized variant. *)
  let cfg =
    {
      base with
      Runtime.Config.threads = 64;
      key_range = 4096;
      duration_ns = 6_000_000;
      grace_ns = 6_000_000;
      validate = false;
    }
  in
  let batch = run { cfg with Runtime.Config.smr = "debra" } in
  let af = run { cfg with Runtime.Config.smr = "debra_af" } in
  Alcotest.(check bool) "debra_af faster than debra" true
    (af.Runtime.Trial.throughput > batch.Runtime.Trial.throughput);
  Alcotest.(check bool) "debra_af spends less time in lock" true
    (af.Runtime.Trial.pct_lock < batch.Runtime.Trial.pct_lock)

let test_af_improves_tail_latency () =
  let cfg =
    {
      base with
      Runtime.Config.threads = 64;
      key_range = 4096;
      duration_ns = 6_000_000;
      grace_ns = 6_000_000;
      validate = false;
    }
  in
  let batch = run { cfg with Runtime.Config.smr = "debra" } in
  let af = run { cfg with Runtime.Config.smr = "debra_af" } in
  Alcotest.(check bool) "p99.9 much lower under AF" true
    (Runtime.Trial.op_p af 99.9 < Runtime.Trial.op_p batch 99.9);
  Alcotest.(check bool) "p50 recorded" true (Runtime.Trial.op_p batch 50. > 0)

let test_none_leaks_memory () =
  let none = run { base with Runtime.Config.smr = "none" } in
  let debra = run { base with Runtime.Config.smr = "debra" } in
  Alcotest.(check bool) "leaky run maps much more memory" true
    (none.Runtime.Trial.peak_mapped_bytes > 2 * debra.Runtime.Trial.peak_mapped_bytes);
  Alcotest.(check int) "leaky run frees nothing" 0 none.Runtime.Trial.freed

let test_timeline_recording () =
  let cfg = { base with Runtime.Config.timeline = true } in
  let t = run cfg in
  (match t.Runtime.Trial.timeline_reclaim with
  | Some tl ->
      Alcotest.(check bool) "reclaim events recorded" true (Timeline.total_events tl > 0)
  | None -> Alcotest.fail "timeline missing");
  match t.Runtime.Trial.timeline_free with
  | Some tl -> Alcotest.(check bool) "dots recorded" true (Timeline.total_dots tl > 0)
  | None -> Alcotest.fail "free timeline missing"

let test_garbage_trace () =
  let t = run base in
  Alcotest.(check bool) "garbage-per-epoch trace nonempty" true
    (List.length t.Runtime.Trial.garbage_by_epoch > 0);
  List.iter
    (fun (e, c) ->
      if e < 0 || c < 0 then Alcotest.failf "bad trace entry (%d, %d)" e c)
    t.Runtime.Trial.garbage_by_epoch

let test_throughput_summary () =
  let cfg = { base with Runtime.Config.trials = 3 } in
  let trials = Runtime.Runner.run cfg in
  let s = Runtime.Trial.throughput_summary trials in
  Alcotest.(check bool) "mean between min and max" true
    (s.Runtime.Trial.min <= s.Runtime.Trial.mean && s.Runtime.Trial.mean <= s.Runtime.Trial.max)

(* An output path is refused, naming the flag and the fault, when its
   directory is missing or is a file, and a directory output when it is a
   file itself. *)
let test_out_path_check () =
  let file = Filename.temp_file "out_path" "" in
  let check ?dir path = Runtime.Out_path.check ?dir ~flag:"--out" path in
  let expect_error what ?dir path needle =
    match check ?dir path with
    | Ok () -> Alcotest.failf "%s: %s accepted" what path
    | Error msg ->
        List.iter
          (fun s ->
            if not (Helpers.contains msg s) then Alcotest.failf "%s: %S lacks %S" what msg s)
          [ "--out"; needle ]
  in
  Alcotest.(check bool) "file in cwd" true (check "x.json" = Ok ());
  Alcotest.(check bool) "existing directory as a directory output" true
    (check ~dir:true (Filename.get_temp_dir_name ()) = Ok ());
  expect_error "missing directory" (Filename.concat (Filename.concat file "sub") "x.json")
    "does not exist";
  expect_error "file as a directory" (Filename.concat file "x.json") "is not a directory";
  expect_error "file as a directory output" ~dir:true file "not a directory";
  Sys.remove file

let suite =
  ( "runtime",
    [
      Helpers.quick "basic_trial" test_basic_trial;
      Helpers.quick "steady_state_size" test_steady_state_size;
      Helpers.quick "determinism" test_determinism;
      Helpers.quick "seed_sensitivity" test_seed_sensitivity;
      Helpers.quick "trials_use_distinct_seeds" test_trials_use_distinct_seeds;
      Helpers.quick "out_path_check" test_out_path_check;
    ]
    @ List.map smoke_reclaimer
        [ "debra"; "debra_af"; "qsbr"; "token"; "token_af"; "token-naive"; "token-passfirst";
          "rcu"; "ibr"; "hazard"; "he"; "wfe"; "nbr"; "nbr+"; "hyaline"; "hyaline_af"; "none" ]
    @ [
        smoke_config "occtree" { base with Runtime.Config.ds = "occtree" };
        smoke_config "skiplist" { base with Runtime.Config.ds = "skiplist" };
        smoke_config "dgt" { base with Runtime.Config.ds = "dgt" };
        smoke_config "tcmalloc" { base with Runtime.Config.alloc = "tcmalloc" };
        smoke_config "mimalloc" { base with Runtime.Config.alloc = "mimalloc" };
        smoke_config "amd_machine"
          { base with Runtime.Config.topology = Simcore.Topology.amd_256c };
        Helpers.quick "af_beats_batch_under_pressure" test_af_beats_batch_under_pressure;
        Helpers.quick "af_improves_tail_latency" test_af_improves_tail_latency;
        Helpers.quick "none_leaks_memory" test_none_leaks_memory;
        Helpers.quick "timeline_recording" test_timeline_recording;
        Helpers.quick "garbage_trace" test_garbage_trace;
        Helpers.quick "throughput_summary" test_throughput_summary;
      ] )
