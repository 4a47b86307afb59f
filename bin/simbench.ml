(* simbench: the deterministic regression harness CLI.

     dune exec bin/simbench.exe -- run                # run suite, write results JSON
     dune exec bin/simbench.exe -- check --exact      # digest gate (bit-exact determinism)
     dune exec bin/simbench.exe -- check --perf       # tolerance gate (throughput / garbage)
     dune exec bin/simbench.exe -- bless              # regenerate regress/baselines/
     dune exec bin/simbench.exe -- list | manifest

   The suite of record is regress/suite.json (builtin fallback when the
   file is absent); golden files live under regress/baselines/, one JSON
   per entry. `check` exits non-zero on any gate failure and prints a
   per-metric diff. All output files are canonical JSON: running the same
   suite twice produces byte-identical bytes, which is itself the
   determinism contract the exact gate enforces. *)

open Cmdliner

let default_suite_path = "regress/suite.json"
let default_baselines_dir = "regress/baselines"
let default_out = "simbench-results.json"
let default_bench_out = "BENCH_simbench.json"

let suite_arg =
  Arg.(
    value
    & opt string default_suite_path
    & info [ "suite" ] ~docv:"FILE"
        ~doc:"Suite manifest. When the default path is absent the builtin suite is used.")

let baselines_arg =
  Arg.(
    value
    & opt string default_baselines_dir
    & info [ "baselines" ] ~docv:"DIR" ~doc:"Directory of golden baseline files.")

let out_arg =
  Arg.(
    value
    & opt string default_out
    & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the run's results as JSON.")

let seeds_arg =
  Arg.(
    value & opt int 3
    & info [ "seeds" ] ~docv:"K"
        ~doc:"Seeds per entry used to derive perf tolerances when blessing.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains to fan entries out over. Defaults to \\$(b,EPOCHS_JOBS) when set, else the \
           recommended domain count. Parallelism is bit-identical to sequential execution: it \
           changes nothing but wall-clock time.")

let bench_out_arg =
  Arg.(
    value
    & opt string default_bench_out
    & info [ "bench-out" ] ~docv:"FILE"
        ~doc:"Where to write wall-clock self-measurements (per-entry and total wall_ns).")

let trace_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"DIR"
        ~doc:
          "Record every entry's run and write one Chrome trace-event JSON file per entry to \
           $(docv)/<id>.trace.json (open in Perfetto). Tracing never perturbs virtual time: \
           the results JSON stays byte-identical to an untraced run.")

let tier_arg =
  Arg.(
    value
    & opt string Regress.Suite.default_tier
    & info [ "tier" ] ~docv:"TIER"
        ~doc:
          "Suite tier to select: $(b,pr) (small per-PR entries, the default), $(b,paper) \
           (192-thread paper-scale entries), or $(b,all).")

let only_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "only" ] ~docv:"IDS"
        ~doc:"Comma-separated entry ids to run, looked up across every tier. Overrides --tier.")

let resolve_jobs = function Some j -> max 1 j | None -> Runtime.Pool.default_jobs ()

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let select_entries ~tier ~only entries =
  match only with
  | Some ids ->
      let ids =
        String.split_on_char ',' ids |> List.map String.trim |> List.filter (fun s -> s <> "")
      in
      let missing =
        List.filter
          (fun id -> not (List.exists (fun (e : Regress.Suite.entry) -> e.id = id) entries))
          ids
      in
      if missing <> [] then die "simbench: unknown entry id(s): %s" (String.concat ", " missing);
      List.filter (fun (e : Regress.Suite.entry) -> List.mem e.Regress.Suite.id ids) entries
  | None -> (
      match Regress.Suite.filter_tier ~tier entries with
      | [] ->
          die "simbench: no entries in tier %S (tiers present: %s)" tier
            (String.concat ", " (Regress.Suite.tier_names entries))
      | es -> es)

(* Wall-clock and GC self-measurement. Virtual-time results are
   deterministic; wall_ns and the allocation counters are the deliberately
   non-deterministic outputs, which is why they go to a separate file
   (--bench-out) and never into the canonical results JSON the exact gate
   compares. Gc counters are per-domain in OCaml 5, and each entry's
   closure runs inside its worker domain, so per-entry minor/promoted
   words are attributed correctly even under --jobs parallelism. *)
let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

type measure = { wall_ns : int; minor_words : float; promoted_words : float }

let timed f =
  (* [Gc.minor_words ()] reads the allocation pointer and is precise;
     [quick_stat]'s minor counter only refreshes at minor collections.
     Promotion happens exactly at minor collections, so [quick_stat] is
     accurate for promoted_words by construction. *)
  let m0 = Gc.minor_words () in
  let s0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let r = f () in
  let wall_ns = Int64.to_int (Int64.sub (now_ns ()) t0) in
  let s1 = Gc.quick_stat () in
  ( r,
    {
      wall_ns;
      minor_words = Gc.minor_words () -. m0;
      promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    } )

let bench_json ~suite_label ~jobs ~total_wall_ns timings =
  Json.Assoc
    [
      ("schema_version", Json.Int 2);
      ("suite", Json.String suite_label);
      ("jobs", Json.Int jobs);
      ("total_wall_ns", Json.Int total_wall_ns);
      ( "entries",
        Json.List
          (List.map
             (fun (id, m) ->
               Json.Assoc
                 [
                   ("id", Json.String id);
                   ("wall_ns", Json.Int m.wall_ns);
                   ("minor_words", Json.Int (int_of_float m.minor_words));
                   ("promoted_words", Json.Int (int_of_float m.promoted_words));
                 ])
             timings) );
    ]

let write_bench ~bench_out ~suite_label ~jobs ~total_wall_ns timings =
  Out_channel.with_open_bin bench_out (fun oc ->
      Out_channel.output_string oc
        (Json.render (bench_json ~suite_label ~jobs ~total_wall_ns timings)));
  Printf.printf "wall-clock measurements written to %s (total %.1f ms on %d domain%s)\n" bench_out
    (float_of_int total_wall_ns /. 1e6)
    jobs
    (if jobs = 1 then "" else "s")

(* Load the suite of record: an explicit or default manifest file when
   present, the builtin suite otherwise. Returns the entries and a label
   recorded in the results file. *)
let load_suite path =
  if Sys.file_exists path then
    match Regress.Suite.load path with
    | Ok entries -> (entries, path)
    | Error msg -> die "simbench: %s" msg
  else if path <> default_suite_path then die "simbench: suite manifest %s does not exist" path
  else (Regress.Suite.builtin, "builtin")

let run_entry ?trace_dir (e : Regress.Suite.entry) =
  let cfg = e.Regress.Suite.config in
  let tracer =
    match trace_dir with
    | None -> Simcore.Tracer.disabled
    | Some _ -> Simcore.Tracer.create ()
  in
  let trial = Runtime.Runner.run_trial ~tracer cfg ~seed:cfg.Runtime.Config.seed in
  (match trace_dir with
  | Some dir ->
      Simtrace.Chrome.write_file
        (Filename.concat dir (e.Regress.Suite.id ^ ".trace.json"))
        tracer
  | None -> ());
  (trial, Regress.Baseline.of_trial ~id:e.Regress.Suite.id trial)

let results_json ~suite_label results =
  Json.Assoc
    [
      ("schema_version", Json.Int Regress.Baseline.schema_version);
      ("suite", Json.String suite_label);
      ( "results",
        Json.List
          (List.map
             (fun (trial, res) ->
               match Regress.Baseline.to_json res with
               | Json.Assoc fields ->
                   Json.Assoc (fields @ [ ("trial", Runtime.Trial.to_json trial) ])
               | j -> j)
             results) );
    ]

let write_results ~out ~suite_label results =
  Out_channel.with_open_bin out (fun oc ->
      Out_channel.output_string oc (Json.render (results_json ~suite_label results)));
  Printf.printf "results written to %s\n" out

let summary_table results =
  let table =
    Report.Table.create
      [ "entry"; "ops/s"; "peak garbage"; "end garbage"; "op p99"; "viol"; "digest" ]
  in
  List.iter
    (fun ((trial : Runtime.Trial.t), (res : Regress.Baseline.result)) ->
      Report.Table.add_row table
        [
          res.Regress.Baseline.id;
          Report.Table.mops trial.Runtime.Trial.throughput;
          Report.Table.count trial.Runtime.Trial.peak_epoch_garbage;
          Report.Table.count trial.Runtime.Trial.end_garbage;
          Report.Table.count (Runtime.Trial.op_p trial 99.);
          string_of_int trial.Runtime.Trial.violations;
          String.sub res.Regress.Baseline.digest 0 12;
        ])
    results;
  Report.Table.render table

(* Run the suite's entries across [jobs] domains. Pool.map reassembles in
   submission order, so results (and every file derived from them) are
   byte-identical whatever the parallelism; only the wall_ns timings vary. *)
let run_suite ?trace_dir ~jobs entries =
  let (results, timings), total =
    timed (fun () ->
        let timed_results =
          Runtime.Pool.map ~jobs
            (fun (e : Regress.Suite.entry) ->
              Printf.eprintf "simbench: running %s (%s)\n%!" e.Regress.Suite.id
                (Runtime.Config.label e.Regress.Suite.config);
              timed (fun () -> run_entry ?trace_dir e))
            entries
        in
        ( List.map fst timed_results,
          List.map2
            (fun (e : Regress.Suite.entry) (_, m) -> (e.Regress.Suite.id, m))
            entries timed_results ))
  in
  (results, timings, total.wall_ns)

let run_cmd =
  let run suite out bench_out jobs trace_dir tier only =
    let jobs = resolve_jobs jobs in
    (match trace_dir with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    let entries, suite_label = load_suite suite in
    let entries = select_entries ~tier ~only entries in
    let results, timings, total_wall_ns = run_suite ?trace_dir ~jobs entries in
    print_string (summary_table results);
    write_results ~out ~suite_label results;
    write_bench ~bench_out ~suite_label ~jobs ~total_wall_ns timings;
    match trace_dir with
    | Some dir ->
        Printf.printf "traces written to %s (%d files)\n" dir (List.length entries)
    | None -> ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the suite and write its results as canonical JSON.")
    Term.(
      const run $ suite_arg $ out_arg $ bench_out_arg $ jobs_arg $ trace_dir_arg $ tier_arg
      $ only_arg)

let check_cmd =
  let exact_flag = Arg.(value & flag & info [ "exact" ] ~doc:"Digest gate: bit-exact determinism.") in
  let perf_flag =
    Arg.(value & flag & info [ "perf" ] ~doc:"Tolerance gate: throughput and peak garbage.")
  in
  let run suite baselines out bench_out jobs exact perf tier only =
    (* No mode flag means both gates. *)
    let exact, perf = if exact || perf then (exact, perf) else (true, true) in
    let jobs = resolve_jobs jobs in
    let entries, suite_label = load_suite suite in
    let entries = select_entries ~tier ~only entries in
    let results, timings, total_wall_ns = run_suite ~jobs entries in
    let findings =
      List.concat_map
        (fun (_, (res : Regress.Baseline.result)) ->
          match Regress.Baseline.load ~dir:baselines res.Regress.Baseline.id with
          | Error msg -> [ Regress.Gate.error ~id:res.Regress.Baseline.id msg ]
          | Ok expected ->
              (if exact then Regress.Gate.exact ~expected ~got:res else [])
              @ (if perf then Regress.Gate.perf ~expected ~got:res else []))
        results
    in
    print_endline (Regress.Gate.render findings);
    write_results ~out ~suite_label results;
    write_bench ~bench_out ~suite_label ~jobs ~total_wall_ns timings;
    if Regress.Gate.all_ok findings then
      Printf.printf "simbench check: %d findings, all ok\n" (List.length findings)
    else begin
      let failed = List.length (List.filter (fun f -> not f.Regress.Gate.ok) findings) in
      Printf.printf "simbench check: %d of %d findings FAILED\n" failed (List.length findings);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run the suite and compare against the golden baselines.")
    Term.(
      const run $ suite_arg $ baselines_arg $ out_arg $ bench_out_arg $ jobs_arg $ exact_flag
      $ perf_flag $ tier_arg $ only_arg)

let bless_cmd =
  let run suite baselines seeds jobs tier only =
    if seeds < 1 then die "simbench: --seeds must be at least 1";
    let jobs = resolve_jobs jobs in
    let entries, _ = load_suite suite in
    let entries = select_entries ~tier ~only entries in
    (* Fan the full (entry, seed) cross product out at once: the variance
       estimation is seeds x entries independent trials, the widest
       parallelism this command has to offer. *)
    let tasks =
      List.concat_map
        (fun (e : Regress.Suite.entry) ->
          List.init seeds (fun i -> (e, e.Regress.Suite.config.Runtime.Config.seed + i)))
        entries
    in
    let runs =
      Runtime.Pool.map ~jobs
        (fun ((e : Regress.Suite.entry), seed) ->
          Printf.eprintf "simbench: blessing %s seed %d\n%!" e.Regress.Suite.id seed;
          Regress.Baseline.of_trial ~id:e.Regress.Suite.id
            (Runtime.Runner.run_trial e.Regress.Suite.config ~seed))
        tasks
    in
    List.iter
      (fun (e : Regress.Suite.entry) ->
        let id = e.Regress.Suite.id in
        let runs = List.filter (fun r -> r.Regress.Baseline.id = id) runs in
        let tol = Regress.Baseline.derive_tolerance runs in
        let blessed = Regress.Baseline.with_tolerance tol (List.hd runs) in
        Regress.Baseline.save ~dir:baselines blessed;
        Printf.printf "blessed %-18s seed %d  tol: throughput -%.1f%%, garbage +%.1f%%+%d\n" id
          blessed.Regress.Baseline.seed
          (tol.Regress.Baseline.max_throughput_drop *. 100.)
          (tol.Regress.Baseline.max_garbage_rise *. 100.)
          tol.Regress.Baseline.garbage_slack)
      entries;
    Printf.printf "baselines written to %s\n" baselines
  in
  Cmd.v
    (Cmd.info "bless" ~doc:"Regenerate the golden baselines (with multi-seed tolerances).")
    Term.(const run $ suite_arg $ baselines_arg $ seeds_arg $ jobs_arg $ tier_arg $ only_arg)

(* Wall-clock trajectory comparison. Advisory by default (wall times on
   shared CI runners are noisy); with --gate PCT any entry more than PCT%
   slower than the previous --bench-out file fails the command. A missing
   previous file (first run, cold cache) is never an error. *)
let bench_diff_cmd =
  let prev_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PREV" ~doc:"Previous --bench-out file (e.g. restored from cache).")
  in
  let cur_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CUR" ~doc:"Current --bench-out file.")
  in
  let load path =
    let s = In_channel.with_open_bin path In_channel.input_all in
    match Json.parse s with
    | Ok j -> j
    | Error msg -> die "simbench: %s: %s" path msg
  in
  let entries j =
    List.map
      (fun e ->
        let opt name = match Json.member name e with Json.Null -> None | v -> Some (Json.to_int v) in
        ( Json.to_string (Json.member "id" e),
          (Json.to_int (Json.member "wall_ns" e), opt "minor_words") ))
      (Json.to_list (Json.member "entries" j))
  in
  let gate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "gate" ] ~docv:"PCT"
          ~doc:
            "Fail (exit 1) when any entry is more than $(docv)% slower than in PREV. Without \
             this flag the comparison is advisory and always exits 0. A commit can opt out \
             of the CI gate with $(b,[bench-skip]) in its message.")
  in
  let ms ns = Printf.sprintf "%.1f" (float_of_int ns /. 1e6) in
  let run prev cur gate =
    if not (Sys.file_exists cur) then die "simbench: %s does not exist" cur;
    if not (Sys.file_exists prev) then
      Printf.printf
        "bench-diff: no previous measurements at %s; nothing to compare (first run?)\n" prev
    else begin
      let pj = load prev and cj = load cur in
      let pe = entries pj in
      let limit = match gate with Some pct -> 1.0 +. (pct /. 100.) | None -> infinity in
      let regressions = ref [] in
      let table =
        Report.Table.create [ "entry"; "prev ms"; "cur ms"; "ratio"; "minor words"; "" ]
      in
      List.iter
        (fun (id, ((cur_ns, cur_words) : int * int option)) ->
          match List.assoc_opt id pe with
          | None -> Report.Table.add_row table [ id; "-"; ms cur_ns; "-"; "-"; "new entry" ]
          | Some (prev_ns, prev_words) ->
              let ratio = float_of_int cur_ns /. float_of_int (max 1 prev_ns) in
              if ratio > limit then regressions := (id, ratio) :: !regressions;
              let words =
                match (prev_words, cur_words) with
                | Some p, Some c -> Printf.sprintf "%d -> %d" p c
                | _ -> "-"
              in
              let note =
                if ratio > limit then "REGRESSION"
                else if ratio > 1.25 then "slower"
                else if ratio < 0.80 then "faster"
                else ""
              in
              Report.Table.add_row table
                [ id; ms prev_ns; ms cur_ns; Printf.sprintf "%.2fx" ratio; words; note ])
        (entries cj);
      print_string (Report.Table.render table);
      let total j = Json.to_int (Json.member "total_wall_ns" j) in
      Printf.printf "total: %s ms -> %s ms (%.2fx)\n" (ms (total pj)) (ms (total cj))
        (float_of_int (total cj) /. float_of_int (max 1 (total pj)));
      match gate with
      | None -> print_endline "bench-diff is advisory: wall-clock movement never gates."
      | Some pct ->
          let regs = List.rev !regressions in
          if regs = [] then
            Printf.printf "bench-diff gate: no entry regressed more than %.0f%%\n" pct
          else begin
            Printf.printf "bench-diff gate FAILED: %d entr%s regressed more than %.0f%%:\n"
              (List.length regs)
              (if List.length regs = 1 then "y" else "ies")
              pct;
            List.iter (fun (id, r) -> Printf.printf "  %-22s %.2fx\n" id r) regs;
            print_endline
              "If the slowdown is expected (new work per entry, intentional trade-off), put \
               [bench-skip] in the commit message to skip this gate for one commit.";
            exit 1
          end
    end
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Wall-clock comparison of two --bench-out files: advisory by default, a hard gate \
          with --gate PCT.")
    Term.(const run $ prev_arg $ cur_arg $ gate_arg)

let list_cmd =
  let run suite tier =
    let entries, suite_label = load_suite suite in
    let entries = Regress.Suite.filter_tier ~tier entries in
    Printf.printf "suite: %s (%d entries, tier %s)\n" suite_label (List.length entries) tier;
    List.iter
      (fun (e : Regress.Suite.entry) ->
        Printf.printf "  %-22s %-6s %s\n" e.Regress.Suite.id e.Regress.Suite.tier
          (Runtime.Config.label e.Regress.Suite.config))
      entries
  in
  Cmd.v (Cmd.info "list" ~doc:"List the suite entries.") Term.(const run $ suite_arg $ tier_arg)

let manifest_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the manifest to $(docv) instead of stdout.")
  in
  let run out =
    let manifest = Regress.Suite.to_manifest Regress.Suite.builtin in
    match out with
    | None -> print_string (Json.render manifest)
    | Some path ->
        Regress.Suite.save path Regress.Suite.builtin;
        Printf.printf "manifest written to %s\n" path
  in
  Cmd.v
    (Cmd.info "manifest" ~doc:"Emit the builtin suite as a manifest (the format of regress/suite.json).")
    Term.(const run $ out_arg)

let () =
  let doc = "Deterministic regression harness: golden baselines and perf gates" in
  let info = Cmd.info "simbench" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; check_cmd; bless_cmd; bench_diff_cmd; list_cmd; manifest_cmd ]))
