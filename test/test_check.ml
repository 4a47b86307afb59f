(* The simcheck layer: strategy determinism, oracle unit semantics, trace
   round-trips, outcomes pinned across builds, and the end-to-end
   contract — a seeded use-after-free is caught, its shrunk counterexample
   still fails on the same oracle, and replaying it reproduces the outcome
   bit-identically. *)

let sc name = Option.get (Check.Scenario.of_name name)
let random_walk = Option.get (Check.Strategy.of_name "random-walk")

(* --- Strategies --- *)

let test_strategy_deterministic () =
  (* Same spec + seed on the same scenario: identical decisions and an
     identical outcome digest, twice in a row. *)
  let scenario = sc "sim/list/debra" in
  let r1 = Check.Engine.run_one scenario ~spec:random_walk ~seed:5 ~mutant:None in
  let r2 = Check.Engine.run_one scenario ~spec:random_walk ~seed:5 ~mutant:None in
  Alcotest.(check int) "same decision count" (List.length r1.Check.Engine.decisions)
    (List.length r2.Check.Engine.decisions);
  List.iter2
    (fun (a : Check.Trace.decision) (b : Check.Trace.decision) ->
      Alcotest.(check int) "same step" a.Check.Trace.step b.Check.Trace.step;
      Alcotest.(check int) "same delay" a.Check.Trace.delay b.Check.Trace.delay)
    r1.Check.Engine.decisions r2.Check.Engine.decisions;
  Alcotest.(check string) "same outcome digest"
    (Check.Oracle.digest r1.Check.Engine.outcome)
    (Check.Oracle.digest r2.Check.Engine.outcome)

let test_strategy_seeds_differ () =
  (* Different seeds must actually explore different schedules. *)
  let scenario = sc "sim/list/debra" in
  let d seed =
    (Check.Engine.run_one scenario ~spec:random_walk ~seed ~mutant:None).Check.Engine.outcome
      .Check.Oracle.schedule_digest
  in
  Alcotest.(check bool) "distinct schedules" true (d 1 <> d 2)

let test_strategy_replay_reproduces_decisions () =
  (* Feeding a run's decisions back through the Replay spec reproduces the
     run exactly — the foundation of trace replay. *)
  let scenario = sc "sim/skiplist/token" in
  let r = Check.Engine.run_one scenario ~spec:random_walk ~seed:3 ~mutant:None in
  let rr =
    Check.Engine.run_one scenario
      ~spec:(Check.Strategy.Replay r.Check.Engine.decisions)
      ~seed:3 ~mutant:None
  in
  Alcotest.(check string) "bit-identical replay"
    (Check.Oracle.digest r.Check.Engine.outcome)
    (Check.Oracle.digest rr.Check.Engine.outcome)

(* --- Oracle units --- *)

let ev ~exec ~tid ~inv ~resp ~op ~result lin =
  Check.Lin.record lin ~exec ~tid ~inv ~resp ~op ~result

let test_lin_flags_semantic_mismatch () =
  let lin = Check.Lin.create () in
  ignore (Check.Lin.linearize lin);
  ignore (Check.Lin.linearize lin);
  (* insert(7) succeeds, then a second insert(7) also claims success:
     impossible against the sequential set. *)
  ev lin ~exec:0 ~tid:0 ~inv:0 ~resp:10 ~op:(Check.Lin.Insert 7) ~result:1;
  ev lin ~exec:1 ~tid:1 ~inv:5 ~resp:15 ~op:(Check.Lin.Insert 7) ~result:1;
  match Check.Lin.check_set lin with
  | [] -> Alcotest.fail "duplicate successful insert not flagged"
  | v :: _ ->
      Alcotest.(check string) "oracle id" Check.Oracle.linearizability v.Check.Oracle.oracle

let test_lin_flags_realtime_inversion () =
  let lin = Check.Lin.create () in
  (* Op 0 linearizes first but was invoked after op 1 responded. *)
  ev lin ~exec:0 ~tid:0 ~inv:100 ~resp:110 ~op:(Check.Lin.Contains 1) ~result:0;
  ev lin ~exec:1 ~tid:1 ~inv:10 ~resp:20 ~op:(Check.Lin.Contains 1) ~result:0;
  Alcotest.(check bool) "inversion flagged" true (Check.Lin.check_set lin <> [])

let test_lin_accepts_valid_history () =
  let lin = Check.Lin.create () in
  ev lin ~exec:0 ~tid:0 ~inv:0 ~resp:10 ~op:(Check.Lin.Insert 3) ~result:1;
  ev lin ~exec:1 ~tid:1 ~inv:5 ~resp:20 ~op:(Check.Lin.Contains 3) ~result:1;
  ev lin ~exec:2 ~tid:0 ~inv:15 ~resp:30 ~op:(Check.Lin.Delete 3) ~result:1;
  ev lin ~exec:3 ~tid:1 ~inv:25 ~resp:40 ~op:(Check.Lin.Contains 3) ~result:0;
  Alcotest.(check int) "clean history" 0 (List.length (Check.Lin.check_set lin))

let test_liveness_stall_budget () =
  let liv = Check.Liveness.create () in
  Check.Liveness.note_advance liv ~time:1_000;
  Check.Liveness.note_advance liv ~time:9_000;  (* 8us gap *)
  Check.Liveness.finish liv ~end_time:10_000;
  Alcotest.(check int) "max gap measured" 8_000 (Check.Liveness.max_gap liv);
  let stalls =
    Check.Liveness.report liv ~stall_budget:5_000 ~injected_ns:0 ~final_pending:0
      ~drain_slack:0 ()
  in
  Alcotest.(check bool) "budget exceeded flagged" true (stalls <> []);
  (* Injected adversarial stalls widen the allowance: the same gap with
     4us of injected delay is within contract. *)
  let excused =
    Check.Liveness.report liv ~stall_budget:5_000 ~injected_ns:4_000 ~final_pending:0
      ~drain_slack:0 ()
  in
  Alcotest.(check int) "injected stall excuses the gap" 0 (List.length excused)

let test_liveness_pending_contract () =
  let liv = Check.Liveness.create () in
  Check.Liveness.sample_pending liv 3;
  Check.Liveness.sample_pending liv 700;
  Check.Liveness.finish liv ~end_time:100;
  let v = Check.Liveness.report liv ~pending_cap:512 ~injected_ns:0 ~final_pending:0 ~drain_slack:4 () in
  Alcotest.(check bool) "pending cap breach flagged" true (v <> []);
  let v2 = Check.Liveness.report liv ~injected_ns:0 ~final_pending:9 ~drain_slack:4 () in
  Alcotest.(check bool) "undrained backlog flagged" true (v2 <> []);
  let v3 = Check.Liveness.report liv ~injected_ns:0 ~final_pending:3 ~drain_slack:4 () in
  Alcotest.(check int) "within slack is clean" 0 (List.length v3)

(* --- Traces --- *)

let test_trace_json_round_trip () =
  let t =
    {
      Check.Trace.scenario = "sim/list/debra";
      strategy = "random-walk";
      seed = 42;
      mutant = Some Check.Mutant.Uaf_free_early;
      decisions = [ { Check.Trace.step = 3; delay = 500 }; { Check.Trace.step = 9; delay = 2_000 } ];
      failure = Check.Oracle.smr_safety;
      outcome_digest = "feedc0de";
    }
  in
  match Check.Trace.of_json (Check.Trace.to_json t) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok t' ->
      Alcotest.(check bool) "round trip preserves the trace" true (t = t');
      let file = Filename.temp_file "simcheck" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Check.Trace.save file t;
          match Check.Trace.load file with
          | Ok t'' -> Alcotest.(check bool) "file round trip" true (t = t'')
          | Error e -> Alcotest.failf "load failed: %s" e)

let test_trace_rejects_garbage () =
  (match Check.Trace.of_json (Json.Assoc [ ("schema_version", Json.Int 1) ]) with
  | Ok _ -> Alcotest.fail "accepted a trace with no fields"
  | Error _ -> ());
  (match Check.Trace.load "/nonexistent/simcheck.json" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error _ -> ());
  (* A misspelt mutant must not load as the genuine protocol: the error
     names it and lists the known ones. *)
  let typo =
    Json.Assoc
      [
        ("schema_version", Json.Int 1);
        ("scenario", Json.String "sim/list/debra");
        ("strategy", Json.String "random-walk");
        ("seed", Json.Int 1);
        ("mutant", Json.String "uaf-free-erly");
        ("decisions", Json.List []);
        ("failure", Json.String Check.Oracle.smr_safety);
        ("outcome_digest", Json.String "feedc0de");
      ]
  in
  match Check.Trace.of_json typo with
  | Ok _ -> Alcotest.fail "accepted an unknown mutant"
  | Error msg ->
      Alcotest.(check bool) "error names the typo" true (Helpers.contains msg "\"uaf-free-erly\"");
      Alcotest.(check bool) "error lists the known mutants" true
        (Helpers.contains msg "uaf-free-early")

(* --- Pinned outcomes ---

   Same-build replays cannot see a refactor that changes what the checker
   explores, so these values were captured on an earlier build and must
   not move: the genuine outcome digest of every (scenario, strategy) at
   seed 1, and, for every row of simcheck's self-test matrix, the violated
   oracle ids (run-length, in order), schedule digest, controller steps
   and op count at seed 1. Violation details are not pinned: their wording
   may change without changing what was found. *)

let genuine_digests =
  [
    ("sim/list/debra", "random-walk", "ef2dd1b44627fee235448390dfc3530f");
    ("sim/list/debra", "preempt-bound", "4a71a525b0f796e85c7c50565628c1d2");
    ("sim/list/debra", "delay-inject", "8036f2a04d6c203cc4420fe0fc013f1b");
    ("sim/list/debra_af", "random-walk", "bd784d450369f0a34b6e48fb4a2daa8e");
    ("sim/list/debra_af", "preempt-bound", "68d93572e6c03276a4c2d89bfbdb0c3c");
    ("sim/list/debra_af", "delay-inject", "6594b1db6c7a74c82dbc0584cdc4ef6a");
    ("sim/skiplist/token", "random-walk", "4a58158ec70eb6373dbef8e98a9b8fe9");
    ("sim/skiplist/token", "preempt-bound", "04ceb281b134984e8872de9e1b566f1f");
    ("sim/skiplist/token", "delay-inject", "a6235be30f54c294396b0d4a5620018b");
    ("sim/skiplist/token_af", "random-walk", "3128d27824bb86cf21dbcded7bedb9fa");
    ("sim/skiplist/token_af", "preempt-bound", "742eae10408cff1c91e4a740ba4a50b4");
    ("sim/skiplist/token_af", "delay-inject", "dbba1a52cde9c3f8ecdfd512316e9fde");
    ("sim/abtree/debra_af", "random-walk", "ae06450237b2963e03c879c1ef5848f3");
    ("sim/abtree/debra_af", "preempt-bound", "60cf0bbb1e0ea8e5c0290cd5ef8c8412");
    ("sim/abtree/debra_af", "delay-inject", "15a860bbe4abf3dedc5a5834c5a33eae");
    ("sim/abtree/token", "random-walk", "895f1a0f7971538727e36b3fc585d73b");
    ("sim/abtree/token", "preempt-bound", "760eed15f73fa4eb757675351675171d");
    ("sim/abtree/token", "delay-inject", "6cabdb2e23955db920be337fd08c8a77");
    ("par/ebr/batch", "random-walk", "d8fe4759d23eb4c514d3cbf640701ee4");
    ("par/ebr/batch", "preempt-bound", "eef135403d3f2c121831f686dc929ae4");
    ("par/ebr/batch", "delay-inject", "52e09458539724019d2fd1113068fd38");
    ("par/ebr/af", "random-walk", "3d213599a88f8b603fb3aa678e6e5bfd");
    ("par/ebr/af", "preempt-bound", "3dda47bb0e8cc589e065d359d6c02cee");
    ("par/ebr/af", "delay-inject", "db7a5d27da93a628f523eae803d5d729");
    ("par/token/batch", "random-walk", "6c6620aee5dde7c4665397f6419894b3");
    ("par/token/batch", "preempt-bound", "05a1ea35cff2113e53cf2e1d6527f87b");
    ("par/token/batch", "delay-inject", "b6db793376d50478f7bf99c6987883b1");
    ("par/token/af", "random-walk", "e384c95dc348c1ad8b615320d65d4b05");
    ("par/token/af", "preempt-bound", "b2a03e02b93057b896b75f8a21ef0a51");
    ("par/token/af", "delay-inject", "a7103ae9cb24f1a57472e9ca9310649b");
    ("sim/list/hazard", "random-walk", "c3f1318043214260c2fb5381b678f021");
    ("sim/list/hazard", "preempt-bound", "4c6a8a13a0ac7e071c7f99ce6f350cec");
    ("sim/list/hazard", "delay-inject", "7a42258fca1162410aca4cc1f0ccdf29");
    ("sim/abtree/hazard_af", "random-walk", "d67bca2fcd41a6c874e735255f20b613");
    ("sim/abtree/hazard_af", "preempt-bound", "e257cba335bdf46af963220f5aa08224");
    ("sim/abtree/hazard_af", "delay-inject", "7021e27cc2293d3803ffa4d7d4fee6ea");
    ("sim/churn/token-holder", "random-walk", "2df9c23b988f9804be7a0783ea54b2fa");
    ("sim/churn/token-holder", "preempt-bound", "c3b680c0b19030ae7d01efb8c48a4291");
    ("sim/churn/token-holder", "delay-inject", "dc9a39ce5ec6a3f572de2f5551ff0a0a");
    ("sim/churn/ebr-stalled-reader", "random-walk", "ca872f02e30de5637e892b8db5b3382b");
    ("sim/churn/ebr-stalled-reader", "preempt-bound", "58b75427c4f717528926c8306812e65a");
    ("sim/churn/ebr-stalled-reader", "delay-inject", "c3fa799e7822698ae410eaeeeb1562b5");
    ("sim/churn/hp-owner", "random-walk", "b786b73410e7e4a9c7ea8dd9eeb6fcd8");
    ("sim/churn/hp-owner", "preempt-bound", "1b865c9dac4d6a3f222b35fbb6496fe7");
    ("sim/churn/hp-owner", "delay-inject", "83ad4674d415573cec458cc3c3bae094");
    ("sim/churn/list-rolling", "random-walk", "f8ca37c7c89fcd57d5cead0addb902e9");
    ("sim/churn/list-rolling", "preempt-bound", "b58381f3694bc4a2ecf7872e12978b84");
    ("sim/churn/list-rolling", "delay-inject", "38aeb38c2f0d34cd26e34ae7f4e85493");
    ("par/hp/batch", "random-walk", "7428b9bb939202358b8077f9b13ecf24");
    ("par/hp/batch", "preempt-bound", "64b4781df2b4564b5759247c4e6441b3");
    ("par/hp/batch", "delay-inject", "0f94b81b396de4d7aa18e7da306bfb40");
    ("par/hp/af", "random-walk", "cc367ff03cc051a6dde41b41b0c3488f");
    ("par/hp/af", "preempt-bound", "923b4e1bb98bf182653770b6d65a6604");
    ("par/hp/af", "delay-inject", "cbde53265553c3c6b155c93f9198c4bb");
  ]

let selftest_outcomes =
  [
    ( ("sim/list/debra", "random-walk", "uaf-free-early"),
      ("smr-safety*264", "43e243575a2d3439a3bcd63b810b17d4", 500, 746) );
    ( ("sim/list/debra_af", "random-walk", "uaf-short-grace"),
      ("smr-safety*145", "9b6c23626133885d59cc161492c619a4", 500, 746) );
    ( ("sim/skiplist/token", "random-walk", "uaf-free-early"),
      ("smr-safety*270", "a76ac85d4146eaaf4a8fdc083aabae5b", 494, 744) );
    ( ("sim/abtree/debra_af", "random-walk", "lost-callback"),
      ("conservation*1", "6bf62863e6b3f30058a1c3165fbea966", 503, 747) );
    ( ("par/ebr/batch", "random-walk", "uaf-free-early"),
      ("smr-safety*20", "680e0bdc28c6164af79b02f75f0f618b", 644, 480) );
    ( ("par/token/af", "delay-inject", "uaf-free-early"),
      ("smr-safety*38", "906601fb93460b700cb8d5a377d99bb0", 1603, 480) );
    ( ("par/ebr/af", "random-walk", "lost-callback"),
      ("conservation*1", "7da9731e3613a31361d48146192f6210", 542, 480) );
    ( ("sim/list/hazard", "random-walk", "uaf-free-early"),
      ("smr-safety*267", "133c53094cd2eed1af7d3caee24df272", 493, 743) );
    ( ("par/hp/batch", "random-walk", "hp-skip-validate"),
      ("smr-safety*7", "1c6d0f1dedb8f62f351cc1ee22e7ab70", 957, 480) );
    ( ("par/hp/af", "random-walk", "hp-drop-retired"),
      ("conservation*1", "f02d38363c20a24f44b14cc72302d8fb", 1006, 480) );
    ( ("sim/churn/token-holder", "random-walk", "churn-skip-handoff"),
      ("liveness-stall*1", "7315ca8a4cc9ee5cee73501ee5fe9f64", 255, 655) );
    ( ("sim/churn/ebr-stalled-reader", "random-walk", "churn-skip-death-flush"),
      ("conservation*1", "6f45ec9608c1bc32288d4deb9501ca65", 347, 471) );
  ]

let run ?mutant scenario strategy ~seed =
  (Check.Engine.run_one (sc scenario)
     ~spec:(Option.get (Check.Strategy.of_name strategy))
     ~seed ~mutant)
    .Check.Engine.outcome

(* Violated oracle ids, run-length encoded in order: "smr-safety*3,conservation*1". *)
let oracle_runs (o : Check.Oracle.outcome) =
  List.fold_left
    (fun acc (v : Check.Oracle.violation) ->
      match acc with
      | (id, c) :: rest when id = v.Check.Oracle.oracle -> (id, c + 1) :: rest
      | _ -> (v.Check.Oracle.oracle, 1) :: acc)
    [] o.Check.Oracle.violations
  |> List.rev_map (fun (id, c) -> Printf.sprintf "%s*%d" id c)
  |> String.concat ","

let test_scenario_outcomes_pinned () =
  Alcotest.(check int) "every scenario x strategy pinned"
    (List.length Check.Scenario.names * List.length Check.Strategy.names)
    (List.length genuine_digests);
  List.iter
    (fun (scenario, strategy, digest) ->
      Alcotest.(check string) (scenario ^ " " ^ strategy) digest
        (Check.Oracle.digest (run scenario strategy ~seed:1)))
    genuine_digests;
  List.iter
    (fun ((scenario, strategy, mutant), (oracles, schedule, steps, ops)) ->
      let o = run scenario strategy ~seed:1 ~mutant:(Option.get (Check.Mutant.of_name mutant)) in
      let label = String.concat " " [ scenario; strategy; mutant ] in
      Alcotest.(check string) (label ^ " oracles") oracles (oracle_runs o);
      Alcotest.(check string) (label ^ " schedule") schedule o.Check.Oracle.schedule_digest;
      Alcotest.(check int) (label ^ " steps") steps o.Check.Oracle.steps;
      Alcotest.(check int) (label ^ " ops") ops o.Check.Oracle.ops)
    selftest_outcomes

(* Mutant's contract: an HP mutant outside par/hp/*, and a churn mutant
   outside sim/churn/*, runs the genuine protocol, to the digest. *)
let test_scoped_mutants_are_genuine_elsewhere () =
  let has_prefix p s = String.starts_with ~prefix:p s in
  let scoped =
    [
      ("par/hp/", [ Check.Mutant.Hp_skip_validate; Check.Mutant.Hp_drop_retired ]);
      ("sim/churn/", [ Check.Mutant.Churn_skip_handoff; Check.Mutant.Churn_skip_death_flush ]);
    ]
  in
  List.iter
    (fun scenario ->
      List.iter
        (fun strategy ->
          for seed = 1 to 3 do
            let genuine = Check.Oracle.digest (run scenario strategy ~seed) in
            List.iter
              (fun (prefix, mutants) ->
                if not (has_prefix prefix scenario) then
                  List.iter
                    (fun m ->
                      Alcotest.(check string)
                        (Printf.sprintf "%s %s %s seed %d" scenario strategy
                           (Check.Mutant.to_name m) seed)
                        genuine
                        (Check.Oracle.digest (run scenario strategy ~seed ~mutant:m)))
                    mutants)
              scoped
          done)
        Check.Strategy.names)
    Check.Scenario.names

(* --- End-to-end: explore, catch, shrink, replay --- *)

let test_clean_scenarios_pass () =
  List.iter
    (fun name ->
      let report =
        Check.Engine.explore ~jobs:1 (sc name) ~spec:random_walk ~strategy:"random-walk"
          ~budget:4 ~seed:1 ~mutant:None
      in
      Alcotest.(check int) (name ^ " clean") 0 report.Check.Engine.failing;
      Alcotest.(check int) (name ^ " distinct") 4 report.Check.Engine.distinct)
    [ "sim/list/debra"; "sim/list/debra_af"; "par/ebr/batch"; "par/token/af" ]

let test_mutant_caught_shrunk_and_replayed () =
  (* The acceptance pipeline in miniature: a seeded use-after-free must be
     caught by the SMR safety oracle, the shrunk trace must still witness
     the same failure, and its replay must be bit-identical. *)
  let scenario = sc "sim/list/debra" in
  let mutant = Some Check.Mutant.Uaf_free_early in
  let report =
    Check.Engine.explore ~jobs:1 scenario ~spec:random_walk ~strategy:"random-walk" ~budget:3
      ~seed:1 ~mutant
  in
  Alcotest.(check bool) "uaf caught" true (report.Check.Engine.failing > 0);
  let trace = List.hd report.Check.Engine.failures in
  Alcotest.(check string) "caught by the SMR safety oracle" Check.Oracle.smr_safety
    trace.Check.Trace.failure;
  let shrunk, _attempts = Check.Engine.shrink ~max_attempts:50 scenario trace in
  Alcotest.(check bool) "shrinking never grows the trace" true
    (List.length shrunk.Check.Trace.decisions <= List.length trace.Check.Trace.decisions);
  let outcome, identical = Check.Engine.replay scenario shrunk in
  Alcotest.(check bool) "shrunk trace still fails" true (Check.Oracle.failed outcome);
  Alcotest.(check (option string)) "same oracle" (Some trace.Check.Trace.failure)
    (Check.Oracle.first_failure outcome);
  Alcotest.(check bool) "replay is bit-identical" true identical

let test_par_mutant_caught () =
  (* The real-multicore protocols, model-checked through the simulator:
     freeing with no grace period must be seen by the slab-sequence probe. *)
  let report =
    Check.Engine.explore ~jobs:1 (sc "par/ebr/batch") ~spec:random_walk
      ~strategy:"random-walk" ~budget:40 ~seed:1 ~mutant:(Some Check.Mutant.Uaf_free_early)
  in
  Alcotest.(check bool) "par uaf caught" true (report.Check.Engine.failing > 0);
  let trace = List.hd report.Check.Engine.failures in
  Alcotest.(check string) "smr-safety oracle" Check.Oracle.smr_safety trace.Check.Trace.failure;
  let _, identical = Check.Engine.replay (sc "par/ebr/batch") trace in
  Alcotest.(check bool) "replayable" true identical

let test_lost_callback_breaks_conservation () =
  let report =
    Check.Engine.explore ~jobs:1 (sc "sim/abtree/debra_af") ~spec:random_walk
      ~strategy:"random-walk" ~budget:2 ~seed:1 ~mutant:(Some Check.Mutant.Lost_callback)
  in
  Alcotest.(check bool) "leak caught" true (report.Check.Engine.failing > 0);
  let trace = List.hd report.Check.Engine.failures in
  Alcotest.(check string) "conservation oracle" Check.Oracle.conservation
    trace.Check.Trace.failure

let test_parallel_exploration_deterministic () =
  (* Fan-out over the domain pool must report exactly what a sequential
     exploration does — same digests, same failures. *)
  let spec = random_walk in
  let run jobs =
    let r =
      Check.Engine.explore ~jobs (sc "sim/skiplist/token") ~spec ~strategy:"random-walk"
        ~budget:6 ~seed:1 ~mutant:None
    in
    (r.Check.Engine.distinct, r.Check.Engine.failing, r.Check.Engine.ops)
  in
  Alcotest.(check (triple int int int)) "jobs:4 = jobs:1" (run 1) (run 4)

let test_explore_rejects_empty_budget () =
  match
    Check.Engine.explore ~jobs:1 (sc "sim/list/debra") ~spec:random_walk ~strategy:"random-walk"
      ~budget:0 ~seed:1 ~mutant:None
  with
  | _ -> Alcotest.fail "explored a budget of 0"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "error names the budget" true (Helpers.contains msg "budget 0")

let suite =
  ( "check",
    [
      Helpers.quick "strategy_deterministic" test_strategy_deterministic;
      Helpers.quick "strategy_seeds_differ" test_strategy_seeds_differ;
      Helpers.quick "strategy_replay_reproduces_decisions" test_strategy_replay_reproduces_decisions;
      Helpers.quick "lin_flags_semantic_mismatch" test_lin_flags_semantic_mismatch;
      Helpers.quick "lin_flags_realtime_inversion" test_lin_flags_realtime_inversion;
      Helpers.quick "lin_accepts_valid_history" test_lin_accepts_valid_history;
      Helpers.quick "liveness_stall_budget" test_liveness_stall_budget;
      Helpers.quick "liveness_pending_contract" test_liveness_pending_contract;
      Helpers.quick "trace_json_round_trip" test_trace_json_round_trip;
      Helpers.quick "trace_rejects_garbage" test_trace_rejects_garbage;
      Helpers.quick "clean_scenarios_pass" test_clean_scenarios_pass;
      Helpers.quick "mutant_caught_shrunk_and_replayed" test_mutant_caught_shrunk_and_replayed;
      Helpers.quick "par_mutant_caught" test_par_mutant_caught;
      Helpers.quick "lost_callback_breaks_conservation" test_lost_callback_breaks_conservation;
      Helpers.quick "parallel_exploration_deterministic" test_parallel_exploration_deterministic;
      Helpers.quick "explore_rejects_empty_budget" test_explore_rejects_empty_budget;
      Helpers.quick "scenario_outcomes_pinned" test_scenario_outcomes_pinned;
      Helpers.quick "scoped_mutants_are_genuine_elsewhere"
        test_scoped_mutants_are_genuine_elsewhere;
    ] )
