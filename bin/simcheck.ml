(* simcheck: the schedule-exploration model checker CLI.

     dune exec bin/simcheck.exe -- list                     # scenarios, strategies, mutants
     dune exec bin/simcheck.exe -- run --budget 400         # explore everything
     dune exec bin/simcheck.exe -- run --scenario sim/list/debra --strategy random-walk
     dune exec bin/simcheck.exe -- run --mutant uaf-free-early   # seeded-bug hunt
     dune exec bin/simcheck.exe -- replay simcheck-traces/some-trace.json
     dune exec bin/simcheck.exe -- shrink simcheck-traces/some-trace.json
     dune exec bin/simcheck.exe -- selftest                 # oracles catch seeded bugs

   `run` explores [budget] schedules per (scenario, strategy) pair, fanned
   out across domains; any failing schedule is shrunk to a minimal
   decision list, saved as a JSON trace under --trace-dir and immediately
   replay-verified (the replayed outcome digest must equal the recorded
   one — bit-identical reproduction). Exit status 1 signals at least one
   violation; `selftest` exits 1 when a seeded mutant escapes its oracle,
   so a green selftest is evidence the checker can actually fail. *)

open Cmdliner

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt
let check_out ?dir ~flag path =
  Result.iter_error (die "simcheck: %s") (Runtime.Out_path.check ?dir ~flag path)

let scenario_arg =
  Arg.(
    value & opt string "all"
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:"Scenario to explore (see $(b,list)), or $(b,all).")

let strategy_arg =
  Arg.(
    value & opt string "all"
    & info [ "strategy" ] ~docv:"NAME"
        ~doc:"Exploration strategy (see $(b,list)), or $(b,all).")

let budget_arg =
  Arg.(
    value & opt Jobs.at_least_one 40
    & info [ "budget" ] ~docv:"N"
        ~doc:"Schedules to explore per (scenario, strategy) pair; at least 1.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"First workload seed.")

let jobs_arg = Jobs.term ~over:"schedules"

let mutant_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mutant" ] ~docv:"NAME"
        ~doc:"Seed a protocol bug (see $(b,list) for each one and where it bites).")

let trace_dir_arg =
  Arg.(
    value & opt string "simcheck-traces"
    & info [ "trace-dir" ] ~docv:"DIR" ~doc:"Where counterexample traces are written.")

let max_traces_arg =
  Arg.(
    value & opt (Jobs.at_least 0) 2
    & info [ "max-traces" ] ~docv:"N"
        ~doc:"Counterexamples to shrink and save per (scenario, strategy) pair; 0 saves none.")

let no_shrink_arg =
  Arg.(value & flag & info [ "no-shrink" ] ~doc:"Save counterexamples without shrinking.")

let resolve_scenarios name =
  if name = "all" then Check.Scenario.all
  else
    match Check.Scenario.of_name name with
    | Some s -> [ s ]
    | None ->
        die "simcheck: unknown scenario %S (known: %s)" name
          (String.concat ", " Check.Scenario.names)

let resolve_strategies name =
  if name = "all" then Check.Strategy.defaults
  else
    match Check.Strategy.of_name name with
    | Some spec -> [ (name, spec) ]
    | None ->
        die "simcheck: unknown strategy %S (known: %s)" name
          (String.concat ", " Check.Strategy.names)

let resolve_mutant = function
  | None -> None
  | Some name -> (
      match Check.Mutant.of_name name with
      | Some m -> Some m
      | None ->
          die "simcheck: unknown mutant %S (known: %s)" name
            (String.concat ", " Check.Mutant.names))

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let sanitize name = String.map (fun c -> if c = '/' then '-' else c) name

let trace_path ~dir (t : Check.Trace.t) =
  Filename.concat dir
    (Printf.sprintf "%s--%s--%s--seed%d.json" (sanitize t.Check.Trace.scenario)
       (sanitize t.Check.Trace.strategy)
       (Option.fold ~none:"genuine" ~some:Check.Mutant.to_name t.Check.Trace.mutant)
       t.Check.Trace.seed)

(* Shrink, save and replay-verify one counterexample; returns false when
   the replay is not bit-identical (a determinism bug in the checker
   itself, which must fail the run loudly). *)
let emit_trace ~dir ~shrink sc (t : Check.Trace.t) =
  let t, shrink_note =
    if shrink then begin
      let before = List.length t.Check.Trace.decisions in
      let t, attempts = Check.Engine.shrink sc t in
      ( t,
        Printf.sprintf ", shrunk %d -> %d decisions in %d replays" before
          (List.length t.Check.Trace.decisions)
          attempts )
    end
    else (t, "")
  in
  let path = trace_path ~dir t in
  Check.Trace.save path t;
  let _, identical = Check.Engine.replay sc t in
  Printf.printf "    counterexample %s: %s (seed %d%s) -> %s\n" path t.Check.Trace.failure
    t.Check.Trace.seed shrink_note
    (if identical then "replay bit-identical" else "REPLAY DIVERGED");
  identical

let run_cmd =
  let run scenario strategy budget seed jobs mutant_name trace_dir max_traces no_shrink =
    check_out ~dir:true ~flag:"--trace-dir" trace_dir;
    let scenarios = resolve_scenarios scenario in
    let strategies = resolve_strategies strategy in
    let mutant = resolve_mutant mutant_name in
    let any_failure = ref false and diverged = ref false in
    List.iter
      (fun sc ->
        List.iter
          (fun (label, spec) ->
            let r = Check.Engine.explore ~jobs sc ~spec ~strategy:label ~budget ~seed ~mutant in
            Printf.printf "%-24s %-14s %5d runs  %5d distinct schedules  %8d ops  %d failing\n%!"
              r.Check.Engine.scenario r.Check.Engine.strategy r.Check.Engine.runs
              r.Check.Engine.distinct r.Check.Engine.ops r.Check.Engine.failing;
            if r.Check.Engine.failing > 0 then begin
              any_failure := true;
              ensure_dir trace_dir;
              List.iteri
                (fun i t ->
                  if i < max_traces then
                    if not (emit_trace ~dir:trace_dir ~shrink:(not no_shrink) sc t) then
                      diverged := true)
                r.Check.Engine.failures
            end)
          strategies)
      scenarios;
    if !diverged then exit 3;
    if !any_failure then exit 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Explore schedules; shrink, save and replay-verify any counterexample. Exits 1 on \
          violations, 3 if a replay diverges.")
    Term.(
      const run $ scenario_arg $ strategy_arg $ budget_arg $ seed_arg $ jobs_arg $ mutant_arg
      $ trace_dir_arg $ max_traces_arg $ no_shrink_arg)

let load_trace path =
  match Check.Trace.load path with Ok t -> t | Error msg -> die "simcheck: %s" msg

let scenario_of_trace (t : Check.Trace.t) =
  match Check.Scenario.of_name t.Check.Trace.scenario with
  | Some sc -> sc
  | None -> die "simcheck: trace references unknown scenario %S" t.Check.Trace.scenario

let replay_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"Trace file to replay.")
  in
  let event_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Also record the replayed schedule's virtual-time events and write them as a \
             Chrome trace-event JSON file to $(docv) (open in Perfetto). Recording never \
             perturbs the replay: the outcome digest is unchanged.")
  in
  let run file event_trace =
    Option.iter (check_out ~flag:"--trace") event_trace;
    let t = load_trace file in
    let sc = scenario_of_trace t in
    let tracer =
      match event_trace with
      | None -> Simcore.Tracer.disabled
      | Some _ -> Simcore.Tracer.create ()
    in
    let outcome, identical = Check.Engine.replay ~tracer sc t in
    Format.printf "%a@." Check.Oracle.pp_outcome outcome;
    (match event_trace with
    | Some path ->
        Simtrace.Chrome.write_file path tracer;
        Printf.printf "event trace written to %s (%d events, %d dropped)\n" path
          (Simcore.Tracer.retained tracer)
          (Simcore.Tracer.dropped tracer)
    | None -> ());
    let reproduced = Check.Oracle.first_failure outcome = Some t.Check.Trace.failure in
    Printf.printf "recorded failure %s: %s; outcome digest: %s\n" t.Check.Trace.failure
      (if reproduced then "reproduced" else "NOT reproduced")
      (if identical then "bit-identical" else "DIVERGED");
    if not (reproduced && identical) then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a trace; exits 0 iff the recorded failure reproduces bit-identically.")
    Term.(const run $ file_arg $ event_trace_arg)

let shrink_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"Trace file to shrink.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output path (defaults to the input, in place).")
  in
  let run file out =
    Option.iter (check_out ~flag:"--out") out;
    let t = load_trace file in
    let sc = scenario_of_trace t in
    let before = List.length t.Check.Trace.decisions in
    let shrunk, attempts = Check.Engine.shrink sc t in
    let path = Option.value ~default:file out in
    Check.Trace.save path shrunk;
    let _, identical = Check.Engine.replay sc shrunk in
    Printf.printf "%s: %d -> %d decisions in %d replays; %s\n" path before
      (List.length shrunk.Check.Trace.decisions)
      attempts
      (if identical then "replay bit-identical" else "REPLAY DIVERGED");
    if not identical then exit 3
  in
  Cmd.v
    (Cmd.info "shrink" ~doc:"Greedily shrink a trace's decision list, preserving its failure.")
    Term.(const run $ file_arg $ out_arg)

let list_cmd =
  let run () =
    Printf.printf "scenarios:\n";
    List.iter
      (fun (s : Check.Scenario.t) ->
        Printf.printf "  %-24s %s\n" s.Check.Scenario.name s.Check.Scenario.summary)
      Check.Scenario.all;
    Printf.printf "strategies:\n";
    List.iter
      (fun (name, _) -> Printf.printf "  %s\n" name)
      Check.Strategy.defaults;
    Printf.printf "mutants (seeded bugs for self-tests):\n";
    List.iter
      (fun name ->
        match Check.Mutant.of_name name with
        | Some m -> Printf.printf "  %-18s %s\n" name (Check.Mutant.describe m)
        | None -> ())
      Check.Mutant.names;
    Printf.printf "reclaimers (sim scenarios; each also accepts an _af suffix):\n";
    List.iter
      (fun name ->
        Printf.printf "  %-18s %s\n" name
          (Option.value ~default:"" (Smr.Smr_registry.describe name)))
      Smr.Smr_registry.names
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List scenarios, strategies, mutants and reclaimers.")
    Term.(const run $ const ())

(* The self-test matrix: every mutant must be caught by its oracle within
   the stated budget, and the shrunk counterexample must replay
   bit-identically. The matrix spans both stacks (simulated and real
   protocols) and both free-policy modes. *)
let selftest_matrix =
  [
    ("sim/list/debra", "random-walk", "uaf-free-early", 20);
    ("sim/list/debra_af", "random-walk", "uaf-short-grace", 40);
    ("sim/skiplist/token", "random-walk", "uaf-free-early", 20);
    ("sim/abtree/debra_af", "random-walk", "lost-callback", 20);
    ("par/ebr/batch", "random-walk", "uaf-free-early", 120);
    ("par/token/af", "delay-inject", "uaf-free-early", 120);
    ("par/ebr/af", "random-walk", "lost-callback", 20);
    (* The HP-specific mutants only bite in the hazard-pointer scenarios:
       skipping the validate is a use-after-free the slab sequence probe
       observes; dropping retire-list entries is a leak conservation
       counts after the final flush. *)
    ("sim/list/hazard", "random-walk", "uaf-free-early", 20);
    ("par/hp/batch", "random-walk", "hp-skip-validate", 20);
    ("par/hp/af", "random-walk", "hp-drop-retired", 20);
    (* The churn mutants break the thread-teardown chain and only bite in
       the churn scenarios: skipping the reclaimer's deregistration leaves
       the token with a dead holder — the ring stalls and the quiet tail
       blows the scenario's stall budget; dropping the dying thread's
       freeable backlog removes objects from every ledger at once, which
       conservation counts after the run. *)
    ("sim/churn/token-holder", "random-walk", "churn-skip-handoff", 20);
    ("sim/churn/ebr-stalled-reader", "random-walk", "churn-skip-death-flush", 40);
  ]

let selftest_cmd =
  let run jobs seed trace_dir =
    check_out ~dir:true ~flag:"--trace-dir" trace_dir;
    let failures = ref 0 in
    List.iter
      (fun (scen, strat, mut, budget) ->
        let sc =
          match Check.Scenario.of_name scen with Some s -> s | None -> die "bad matrix: %s" scen
        in
        let spec = Option.get (Check.Strategy.of_name strat) in
        let mutant = Option.get (Check.Mutant.of_name mut) in
        let r =
          Check.Engine.explore ~jobs sc ~spec ~strategy:strat ~budget ~seed
            ~mutant:(Some mutant)
        in
        match r.Check.Engine.failures with
        | [] ->
            incr failures;
            Printf.printf "FAIL %-22s %-14s %-16s escaped %d schedules\n%!" scen strat mut budget
        | t :: _ ->
            ensure_dir trace_dir;
            let ok = emit_trace ~dir:trace_dir ~shrink:true sc t in
            if not ok then incr failures;
            Printf.printf "%s %-22s %-14s %-16s caught as %s (%d/%d schedules failing)\n%!"
              (if ok then "ok  " else "FAIL")
              scen strat mut t.Check.Trace.failure r.Check.Engine.failing r.Check.Engine.runs)
      selftest_matrix;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "selftest"
       ~doc:
         "Verify the oracles catch every seeded mutant and that shrunk counterexamples replay \
          bit-identically.")
    Term.(const run $ jobs_arg $ seed_arg $ trace_dir_arg)

let () =
  let doc = "Schedule-exploration model checker for the reclamation protocols" in
  let info = Cmd.info "simcheck" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; replay_cmd; shrink_cmd; list_cmd; selftest_cmd ]))
