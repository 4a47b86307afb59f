(* simbench: the deterministic regression harness CLI.

     dune exec bin/simbench.exe -- run     # run suite, write results JSON
     dune exec bin/simbench.exe -- check   # the gate: seed, digest, zero violations
     dune exec bin/simbench.exe -- bless   # regenerate regress/baselines/
     dune exec bin/simbench.exe -- list | manifest

   The suite of record is regress/suite.json (builtin fallback when the
   file is absent); golden files live under regress/baselines/, one JSON
   per entry. `check` exits non-zero on any gate failure and prints a
   per-metric diff; `bless` writes nothing when a run would fail `check`.
   All output files are canonical JSON: running the same suite twice
   produces byte-identical bytes, which is itself the determinism contract
   the gate enforces. *)

open Cmdliner

let default_suite_path = "regress/suite.json"
let default_baselines_dir = "regress/baselines"
let default_out = "simbench-results.json"

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

let jobs_arg = Jobs.term ~over:"entries"

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

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt
let check_out ?dir ~flag path =
  Result.iter_error (die "simbench: %s") (Runtime.Out_path.check ?dir ~flag path)

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
   byte-identical whatever the parallelism. *)
let run_suite ?trace_dir ~jobs entries =
  Runtime.Pool.map ~jobs
    (fun (e : Regress.Suite.entry) ->
      Printf.eprintf "simbench: running %s (%s)\n%!" e.Regress.Suite.id
        (Runtime.Config.label e.Regress.Suite.config);
      run_entry ?trace_dir e)
    entries

let run_cmd =
  let run suite out jobs trace_dir tier only =
    check_out ~flag:"--out" out;
    Option.iter (check_out ~dir:true ~flag:"--trace") trace_dir;
    (match trace_dir with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    let entries, suite_label = load_suite suite in
    let entries = select_entries ~tier ~only entries in
    let results = run_suite ?trace_dir ~jobs entries in
    print_string (summary_table results);
    write_results ~out ~suite_label results;
    match trace_dir with
    | Some dir ->
        Printf.printf "traces written to %s (%d files)\n" dir (List.length entries)
    | None -> ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the suite and write its results as canonical JSON.")
    Term.(
      const run $ suite_arg $ out_arg $ jobs_arg $ trace_dir_arg $ tier_arg $ only_arg)

let check_cmd =
  let run suite baselines out jobs tier only =
    check_out ~flag:"--out" out;
    let entries, suite_label = load_suite suite in
    let entries = select_entries ~tier ~only entries in
    let results = run_suite ~jobs entries in
    let findings =
      List.concat_map
        (fun (_, (res : Regress.Baseline.result)) ->
          match Regress.Baseline.load ~dir:baselines res.Regress.Baseline.id with
          | Error msg -> [ Regress.Gate.error ~id:res.Regress.Baseline.id msg ]
          | Ok expected -> Regress.Gate.exact ~expected ~got:res)
        results
    in
    print_endline (Regress.Gate.render findings);
    write_results ~out ~suite_label results;
    if Regress.Gate.all_ok findings then
      Printf.printf "simbench check: %d findings, all ok\n" (List.length findings)
    else begin
      let failed = List.length (List.filter (fun f -> not f.Regress.Gate.ok) findings) in
      Printf.printf "simbench check: %d of %d findings FAILED\n" failed (List.length findings);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the suite and gate each entry against its golden baseline: same seed, same \
          digest, zero grace-period violations.")
    Term.(const run $ suite_arg $ baselines_arg $ out_arg $ jobs_arg $ tier_arg $ only_arg)

let bless_cmd =
  let run suite baselines jobs tier only =
    let entries, _ = load_suite suite in
    let entries = select_entries ~tier ~only entries in
    let blessed = List.map snd (run_suite ~jobs entries) in
    (* Gate each run against itself, which leaves only the checks a
       baseline cannot excuse: a run that `check` would fail is never
       written. *)
    let failed =
      List.concat_map (fun r -> Regress.Gate.exact ~expected:r ~got:r) blessed
      |> List.filter (fun f -> not f.Regress.Gate.ok)
    in
    if failed <> [] then begin
      print_endline (Regress.Gate.render failed);
      Printf.printf "simbench bless: %d findings FAILED; no baseline written\n"
        (List.length failed);
      exit 1
    end;
    List.iter
      (fun (r : Regress.Baseline.result) ->
        Regress.Baseline.save ~dir:baselines r;
        Printf.printf "blessed %-18s seed %d\n" r.Regress.Baseline.id r.Regress.Baseline.seed)
      blessed;
    Printf.printf "baselines written to %s\n" baselines
  in
  Cmd.v
    (Cmd.info "bless"
       ~doc:
         "Regenerate the golden baselines: one run per entry at its seed. Writes nothing when a \
          run would fail $(b,check).")
    Term.(const run $ suite_arg $ baselines_arg $ jobs_arg $ tier_arg $ only_arg)

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
  let doc = "Deterministic regression harness: golden baselines and their gate" in
  let info = Cmd.info "simbench" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [ run_cmd; check_cmd; bless_cmd; list_cmd; manifest_cmd ]))
