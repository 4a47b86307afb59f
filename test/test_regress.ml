(* The regression harness: canonical JSON, Trial/Config serialization, the
   digest determinism invariant, the gate's seed, digest and safety checks,
   and graceful failure on corrupt or missing baseline files. *)

let small =
  {
    Runtime.Config.default with
    Runtime.Config.ds = "skiplist";
    smr = "token_af";
    threads = 4;
    key_range = 512;
    warmup_ns = 200_000;
    duration_ns = 1_500_000;
    grace_ns = 1_500_000;
    trials = 1;
    validate = true;
  }

let run ?(seed = 7) cfg = Runtime.Runner.run_trial cfg ~seed

(* --- Json ------------------------------------------------------------- *)

let test_json_round_trip () =
  let doc =
    Json.Assoc
      [
        ("a", Json.Int 42);
        ("b", Json.Float 0.1);
        ("c", Json.String "quote \" slash \\ newline \n tab \t");
        ("d", Json.List [ Json.Null; Json.Bool true; Json.Bool false; Json.Int (-7) ]);
        ("e", Json.Assoc [ ("nested", Json.List []) ]);
        ("f", Json.Float 1e300);
      ]
  in
  List.iter
    (fun minify ->
      match Json.parse (Json.render ~minify doc) with
      | Ok doc' -> Alcotest.(check bool) "round trip" true (doc = doc')
      | Error msg -> Alcotest.fail msg)
    [ true; false ]

let test_json_float_canonical () =
  List.iter
    (fun f ->
      let s = Json.float_str f in
      Alcotest.(check (float 0.)) ("round-trips " ^ s) f (float_of_string s))
    [ 0.1; 1. /. 3.; 12345.6789; 1e-20; 2.0; -0.5; 1e300 ]

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "nul"; "\"unterminated"; "1 2"; "" ]

(* --- Trial serialization and the digest invariant --------------------- *)

let test_trial_json_round_trip () =
  let t = run small in
  let rendered = Json.render (Runtime.Trial.to_json t) in
  let t' = Runtime.Trial.of_json (Json.parse_exn rendered) in
  Alcotest.(check string) "label survives" t.Runtime.Trial.config_label t'.Runtime.Trial.config_label;
  Alcotest.(check int) "ops survive" t.Runtime.Trial.ops t'.Runtime.Trial.ops;
  Alcotest.(check int) "seed survives" t.Runtime.Trial.seed t'.Runtime.Trial.seed;
  Alcotest.(check (float 0.)) "throughput survives" t.Runtime.Trial.throughput
    t'.Runtime.Trial.throughput;
  Alcotest.(check bool) "op histogram survives" true
    (Simcore.Histogram.equal t.Runtime.Trial.op_hist t'.Runtime.Trial.op_hist);
  Alcotest.(check string) "digest survives the round trip" (Runtime.Trial.digest t)
    (Runtime.Trial.digest t')

let test_digest_deterministic () =
  (* The determinism invariant the exact gate enforces: same config, same
     seed, two fresh stacks => bit-identical serialized trials. *)
  let a = run small and b = run small in
  Alcotest.(check string) "same seed, same digest" (Runtime.Trial.digest a)
    (Runtime.Trial.digest b)

let test_digest_seed_sensitive () =
  let a = run small and b = run ~seed:8 small in
  Alcotest.(check bool) "different seed, different digest" true
    (Runtime.Trial.digest a <> Runtime.Trial.digest b)

let test_trial_records_seed () =
  let t = run ~seed:123 small in
  Alcotest.(check int) "trial carries its seed" 123 t.Runtime.Trial.seed

(* --- Config manifests -------------------------------------------------- *)

let test_config_round_trip () =
  let cfg = { small with Runtime.Config.key_dist = Runtime.Config.Zipf 0.99 } in
  match Runtime.Config.of_json (Runtime.Config.to_json cfg) with
  | Ok cfg' ->
      Alcotest.(check string) "label survives" (Runtime.Config.label cfg)
        (Runtime.Config.label cfg');
      Alcotest.(check bool) "key_dist survives" true
        (cfg'.Runtime.Config.key_dist = Runtime.Config.Zipf 0.99);
      Alcotest.(check int) "duration survives" cfg.Runtime.Config.duration_ns
        cfg'.Runtime.Config.duration_ns
  | Error msg -> Alcotest.fail msg

(* A config or a suite entry the run cannot honour is refused, and the
   [Error] names what it refuses: [named] must appear in the message. *)
let refused ~named what = function
  | Ok _ -> Alcotest.failf "%s accepted %s" what named
  | Error msg ->
      Alcotest.(check bool) (Printf.sprintf "%s: %S names %S" what msg named) true
        (Helpers.contains msg named)

(* Both paths a config takes in: [Config.of_json], and a suite manifest
   entry, whose error also names the entry. *)
let refused_both ~named fields =
  refused ~named "config" (Runtime.Config.of_json (Json.Assoc fields));
  let manifest =
    Regress.Suite.of_manifest
      (Json.Assoc
         [
           ("schema_version", Json.Int Regress.Suite.schema_version);
           ("entries", Json.List [ Json.Assoc (("id", Json.String "e") :: fields) ]);
         ])
  in
  refused ~named "manifest" manifest;
  refused ~named:"entry \"e\"" "manifest" manifest

(* A typo'd field is refused by name. *)
let test_config_rejects_unknown_field () = refused_both ~named:"treads" [ ("treads", Json.Int 8) ]

(* A run needs at least one thread, key, virtual ns of window and trial.
   With fewer it crashes inside the simulator or reports a throughput over
   an empty window; amortized freeing with [af_drain] below one frees
   nothing; a [token_period] of 0 divides by zero, and a [buffer_size] or
   [debra_check_every] of 0 runs a pass or a scan every op. A config or a
   suite entry asking for fewer is refused, naming the field and its
   value. *)
let config_rejects_below_one field () =
  List.iter
    (fun v -> refused_both ~named:(Printf.sprintf "%s %d" field v) [ (field, Json.Int v) ])
    [ 0; -3 ]

(* The operation mix is two fractions whose sum is at most 1, a Zipf
   exponent is a number >= 0, and the warmup and the grace past the
   deadline are durations >= 0. Outside these ranges a run used to go
   ahead with a silently different workload; now a config or a suite
   entry is refused, naming the field and its value. *)
let config_rejects cases () =
  List.iter (fun (named, fields) -> refused_both ~named fields) cases

let zipf theta = Json.Assoc [ ("zipf", Json.Float theta) ]

let test_config_accepts_range_edges () =
  List.iter
    (fun fields ->
      match Runtime.Config.of_json (Json.Assoc fields) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "refused an edge of its range: %s" msg)
    [
      [ ("warmup_ns", Json.Int 0); ("grace_ns", Json.Int 0) ];
      [ ("insert_pct", Json.Float 0.); ("delete_pct", Json.Float 0.) ];
      [ ("insert_pct", Json.Float 1.); ("delete_pct", Json.Float 0.) ];
      [ ("insert_pct", Json.Float 0.); ("delete_pct", Json.Float 1.) ];
      [ ("key_dist", zipf 0.) ];
    ]

(* An unknown data structure, reclaimer or allocator, an old alias
   among them, is refused with the valid names before any trial starts,
   not left to the registry's [make] to raise mid-run. *)
let test_config_rejects_unknown_names () =
  List.iter
    (fun (field, v) ->
      refused_both ~named:(Printf.sprintf "%s %S" field v) [ (field, Json.String v) ];
      refused ~named:"valid names: " "config"
        (Runtime.Config.of_json (Json.Assoc [ (field, Json.String v) ])))
    [
      ("ds", "nosuch");
      ("ds", "ll");
      ("smr", "nosuch");
      ("smr", "nosuch_af");
      ("alloc", "nosuch");
      ("alloc", "je");
    ]

let test_config_accepts_one () =
  let fields =
    [
      "threads"; "key_range"; "duration_ns"; "trials"; "af_drain"; "token_period"; "buffer_size";
      "debra_check_every";
    ]
  in
  match Runtime.Config.of_json (Json.Assoc (List.map (fun f -> (f, Json.Int 1)) fields)) with
  | Error msg -> Alcotest.fail msg
  | Ok cfg ->
      (* The smallest run the check admits runs. *)
      let t = run { cfg with Runtime.Config.ds = "list"; warmup_ns = 0; grace_ns = 1_000 } in
      Alcotest.(check int) "no violations" 0 t.Runtime.Trial.violations;
      Alcotest.(check bool) "some ops" true (t.Runtime.Trial.ops > 0)

let test_suite_manifest_round_trip () =
  match Regress.Suite.of_manifest (Regress.Suite.to_manifest Regress.Suite.builtin) with
  | Ok entries ->
      Alcotest.(check int) "entry count" (List.length Regress.Suite.builtin) (List.length entries);
      List.iter2
        (fun (a : Regress.Suite.entry) (b : Regress.Suite.entry) ->
          Alcotest.(check string) "id" a.Regress.Suite.id b.Regress.Suite.id;
          Alcotest.(check string) "config"
            (Runtime.Config.label a.Regress.Suite.config)
            (Runtime.Config.label b.Regress.Suite.config))
        Regress.Suite.builtin entries
  | Error msg -> Alcotest.fail msg

let test_suite_covers_paper_axes () =
  let smrs =
    List.sort_uniq compare
      (List.map (fun (e : Regress.Suite.entry) -> e.Regress.Suite.config.Runtime.Config.smr)
         Regress.Suite.builtin)
  in
  List.iter
    (fun smr -> Alcotest.(check bool) (smr ^ " covered") true (List.mem smr smrs))
    [ "debra"; "debra_af"; "token"; "token_af" ]

(* --- Gates -------------------------------------------------------------- *)

let result_of ?(id = "t") ?seed cfg = Regress.Baseline.of_trial ~id (run ?seed cfg)

let test_exact_gate_pass_and_fail () =
  let a = result_of small and b = result_of small in
  Alcotest.(check bool) "identical runs pass" true
    (Regress.Gate.all_ok (Regress.Gate.exact ~expected:a ~got:b));
  let c = result_of ~seed:8 { small with Runtime.Config.seed = 8 } in
  let findings = Regress.Gate.exact ~expected:a ~got:{ c with Regress.Baseline.seed = a.Regress.Baseline.seed } in
  Alcotest.(check bool) "different run fails" false (Regress.Gate.all_ok findings);
  (* The report names at least the digest, and the diff is per-metric. *)
  Alcotest.(check bool) "digest finding present" true
    (List.exists (fun f -> f.Regress.Gate.metric = "digest" && not f.Regress.Gate.ok) findings)

let test_exact_gate_flags_seed_mismatch () =
  let a = result_of small in
  let b = { (result_of small) with Regress.Baseline.seed = 1234 } in
  let findings = Regress.Gate.exact ~expected:a ~got:b in
  Alcotest.(check bool) "seed mismatch fails" false (Regress.Gate.all_ok findings);
  Alcotest.(check bool) "seed finding present" true
    (List.exists (fun f -> f.Regress.Gate.metric = "seed") findings)

let with_metric name v (r : Regress.Baseline.result) =
  {
    r with
    Regress.Baseline.metrics =
      List.map (fun (k, old) -> (k, if k = name then v else old)) r.Regress.Baseline.metrics;
  }

(* Safety is a property of the run, not of its baseline: equal digests do
   not excuse grace-period violations. *)
let test_exact_gate_rejects_violations () =
  let bad = with_metric "violations" (Json.Int 3) (result_of small) in
  let findings = Regress.Gate.exact ~expected:bad ~got:bad in
  Alcotest.(check bool) "violations fail the gate" false (Regress.Gate.all_ok findings);
  Alcotest.(check bool) "violations finding present" true
    (List.exists
       (fun f -> f.Regress.Gate.metric = "violations" && not f.Regress.Gate.ok)
       findings)

(* --- Baseline files ----------------------------------------------------- *)

let temp_dir () =
  let dir = Filename.temp_file "simbench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let test_baseline_file_round_trip () =
  let dir = temp_dir () in
  let r = result_of ~id:"rt" small in
  Regress.Baseline.save ~dir r;
  (match Regress.Baseline.load ~dir "rt" with
  | Ok r' ->
      Alcotest.(check string) "digest survives" r.Regress.Baseline.digest r'.Regress.Baseline.digest;
      Alcotest.(check int) "seed survives" r.Regress.Baseline.seed r'.Regress.Baseline.seed;
      Alcotest.(check bool) "metrics survive" true
        (r.Regress.Baseline.metrics = r'.Regress.Baseline.metrics)
  | Error msg -> Alcotest.fail msg);
  Sys.remove (Regress.Baseline.path ~dir "rt");
  Sys.rmdir dir

let test_baseline_missing_and_corrupt () =
  let dir = temp_dir () in
  (match Regress.Baseline.load ~dir "nope" with
  | Ok _ -> Alcotest.fail "loaded a missing baseline"
  | Error msg -> Alcotest.(check bool) "mentions blessing" true (Helpers.contains msg "bless"));
  let write name contents =
    Out_channel.with_open_bin (Regress.Baseline.path ~dir name) (fun oc ->
        Out_channel.output_string oc contents)
  in
  write "corrupt" "{ not json";
  (match Regress.Baseline.load ~dir "corrupt" with
  | Ok _ -> Alcotest.fail "loaded a corrupt baseline"
  | Error _ -> ());
  write "badschema" "{\"schema_version\": 999, \"id\": \"badschema\", \"seed\": 1, \"digest\": \"x\", \"metrics\": {}}";
  (match Regress.Baseline.load ~dir "badschema" with
  | Ok _ -> Alcotest.fail "accepted a future schema"
  | Error msg -> Alcotest.(check bool) "mentions schema" true (Helpers.contains msg "schema_version"));
  write "wrongid" "{\"schema_version\": 1, \"id\": \"other\", \"seed\": 1, \"digest\": \"x\", \"metrics\": {}}";
  (match Regress.Baseline.load ~dir "wrongid" with
  | Ok _ -> Alcotest.fail "accepted a mismatched id"
  | Error _ -> ());
  List.iter (fun f -> Sys.remove (Regress.Baseline.path ~dir f)) [ "corrupt"; "badschema"; "wrongid" ];
  Sys.rmdir dir

let suite =
  ( "regress",
    [
      Helpers.quick "json_round_trip" test_json_round_trip;
      Helpers.quick "json_float_canonical" test_json_float_canonical;
      Helpers.quick "json_parse_errors" test_json_parse_errors;
      Helpers.quick "trial_json_round_trip" test_trial_json_round_trip;
      Helpers.quick "digest_deterministic" test_digest_deterministic;
      Helpers.quick "digest_seed_sensitive" test_digest_seed_sensitive;
      Helpers.quick "trial_records_seed" test_trial_records_seed;
      Helpers.quick "config_round_trip" test_config_round_trip;
      Helpers.quick "config_rejects_unknown_field" test_config_rejects_unknown_field;
      Helpers.quick "config_rejects_threads_below_1" (config_rejects_below_one "threads");
      Helpers.quick "config_rejects_key_range_below_1" (config_rejects_below_one "key_range");
      Helpers.quick "config_rejects_duration_ns_below_1" (config_rejects_below_one "duration_ns");
      Helpers.quick "config_rejects_trials_below_1" (config_rejects_below_one "trials");
      Helpers.quick "config_rejects_af_drain_below_1" (config_rejects_below_one "af_drain");
      Helpers.quick "config_rejects_token_period_below_1" (config_rejects_below_one "token_period");
      Helpers.quick "config_rejects_buffer_size_below_1" (config_rejects_below_one "buffer_size");
      Helpers.quick "config_rejects_debra_check_every_below_1"
        (config_rejects_below_one "debra_check_every");
      Helpers.quick "config_rejects_insert_pct_outside_0_1"
        (config_rejects
           [
             ("insert_pct 1.5", [ ("insert_pct", Json.Float 1.5); ("delete_pct", Json.Float 0.) ]);
             ("insert_pct -0.1", [ ("insert_pct", Json.Float (-0.1)) ]);
           ]);
      Helpers.quick "config_rejects_delete_pct_outside_0_1"
        (config_rejects
           [
             ("delete_pct 1.5", [ ("insert_pct", Json.Float 0.); ("delete_pct", Json.Float 1.5) ]);
             ("delete_pct -0.1", [ ("delete_pct", Json.Float (-0.1)) ]);
           ]);
      Helpers.quick "config_rejects_mix_above_1"
        (config_rejects
           [
             ( "insert_pct 0.8 + delete_pct 0.8",
               [ ("insert_pct", Json.Float 0.8); ("delete_pct", Json.Float 0.8) ] );
           ]);
      Helpers.quick "config_rejects_zipf_below_0_or_nan"
        (config_rejects
           [
             ("key_dist zipf -1", [ ("key_dist", zipf (-1.)) ]);
             ("key_dist zipf nan", [ ("key_dist", zipf Float.nan) ]);
           ]);
      Helpers.quick "config_rejects_warmup_ns_below_0"
        (config_rejects [ ("warmup_ns -5", [ ("warmup_ns", Json.Int (-5)) ]) ]);
      Helpers.quick "config_rejects_grace_ns_below_0"
        (config_rejects [ ("grace_ns -3000000", [ ("grace_ns", Json.Int (-3_000_000)) ]) ]);
      (* [timeline_min_free_ns] is no longer a field (the runner's 1 us
         constant): a config naming it, negative or not, is refused by name. *)
      Helpers.quick "config_rejects_timeline_min_free_ns_below_0"
        (config_rejects
           [
             ("timeline_min_free_ns", [ ("timeline_min_free_ns", Json.Int (-1)) ]);
             ("timeline_min_free_ns", [ ("timeline_min_free_ns", Json.Int 1_000) ]);
           ]);
      Helpers.quick "config_accepts_range_edges" test_config_accepts_range_edges;
      Helpers.quick "config_rejects_unknown_names" test_config_rejects_unknown_names;
      Helpers.quick "config_accepts_1_for_each_field" test_config_accepts_one;
      Helpers.quick "suite_manifest_round_trip" test_suite_manifest_round_trip;
      Helpers.quick "suite_covers_paper_axes" test_suite_covers_paper_axes;
      Helpers.quick "exact_gate_pass_and_fail" test_exact_gate_pass_and_fail;
      Helpers.quick "exact_gate_flags_seed_mismatch" test_exact_gate_flags_seed_mismatch;
      Helpers.quick "exact_gate_rejects_violations" test_exact_gate_rejects_violations;
      Helpers.quick "baseline_file_round_trip" test_baseline_file_round_trip;
      Helpers.quick "baseline_missing_and_corrupt" test_baseline_missing_and_corrupt;
    ] )
