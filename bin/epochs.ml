(* Command line interface: run a single experiment configuration and print
   its results, optionally with timeline graphs and garbage traces.

     dune exec bin/epochs.exe -- run --ds abtree --smr token_af --threads 192
     dune exec bin/epochs.exe -- sweep --smr debra,debra_af --threads 48,96,192
     dune exec bin/epochs.exe -- list

   The full paper reproduction lives in bench/main.exe; this tool is for
   exploring individual configurations. *)

open Cmdliner

let ds_arg =
  Arg.(value & opt string "abtree" & info [ "ds" ] ~docv:"NAME" ~doc:"Data structure (abtree, occtree, dgt, skiplist, list).")

let smr_arg =
  Arg.(
    value
    & opt string "debra"
    & info [ "smr" ] ~docv:"NAME"
        ~doc:"Reclaimer; append _af for amortized freeing (e.g. token_af).")

let alloc_arg =
  Arg.(value & opt string "jemalloc" & info [ "alloc" ] ~docv:"NAME" ~doc:"Allocator model (jemalloc, tcmalloc, mimalloc, leak).")

let threads_arg =
  Arg.(value & opt int 48 & info [ "threads"; "n" ] ~docv:"N" ~doc:"Simulated thread count.")

let machine_arg =
  Arg.(value & opt string "intel" & info [ "machine" ] ~docv:"NAME" ~doc:"Machine model (intel, intel144, amd).")

let keys_arg =
  Arg.(value & opt int (1 lsl 14) & info [ "keys" ] ~docv:"K" ~doc:"Key range.")

let duration_arg =
  Arg.(value & opt int 30 & info [ "duration" ] ~docv:"MS" ~doc:"Measured window, virtual milliseconds.")

let trials_arg = Arg.(value & opt int 1 & info [ "trials" ] ~docv:"T" ~doc:"Trials per configuration.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")
let validate_arg = Arg.(value & flag & info [ "validate" ] ~doc:"Enable the grace-period safety validator.")
let timeline_arg = Arg.(value & flag & info [ "timeline" ] ~doc:"Record and print timeline graphs.")
let garbage_arg = Arg.(value & flag & info [ "garbage" ] ~doc:"Print the garbage-per-epoch trace.")

let drain_arg =
  Arg.(value & opt int 1 & info [ "af-drain" ] ~docv:"K" ~doc:"Objects freed per operation under AF.")

let svg_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "svg" ] ~docv:"PATH"
        ~doc:"With --timeline, also write the reclamation timeline as an SVG figure to $(docv).")

let zipf_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "zipf" ] ~docv:"THETA" ~doc:"Zipf-skew the key distribution with exponent $(docv).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains to fan independent trials out over. Defaults to \\$(b,EPOCHS_JOBS) when set, \
           else the recommended domain count. Results are bit-identical to a sequential run.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the first trial's virtual-time events and write them as a Chrome \
           trace-event JSON file to $(docv) (open in Perfetto or about://tracing; timestamps \
           are virtual ns shown as \xc2\xb5s). Also prints the perf-style profile recomputed \
           from the trace. Tracing never changes results: the trial is bit-identical with it \
           on or off.")

let trace_capacity_arg =
  Arg.(
    value
    & opt int (1 lsl 20)
    & info [ "trace-capacity" ] ~docv:"N"
        ~doc:
          "Ring-buffer capacity of the trace recorder, in events; the newest $(docv) events \
           are kept and older ones are dropped.")

let churn_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "churn" ] ~docv:"SPEC"
        ~doc:
          "Thread-churn plan: $(b,rolling:FIRST_NS:EVERY_NS:DOWN_NS) (rolling restart), \
           $(b,resize:AT_NS:KEEP:DOWN_NS) (shrink to KEEP threads) or \
           $(b,failover:AT_NS:SOCKET:DOWN_NS) (lose a socket). Times are virtual ns from \
           the start of the measured window; DOWN_NS < 0 means never respawn.")

let resolve_jobs = function Some j -> max 1 j | None -> Runtime.Pool.default_jobs ()

(* Report a bad command line and exit 2, as cmdliner does for its own
   usage errors — never with an uncaught exception. *)
let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("epochs: " ^ msg); exit 2) fmt

let config ?churn ?(smr_flag = "--smr") ds smr alloc threads machine keys duration trials seed
    validate timeline af_drain zipf =
  let topology =
    match Simcore.Topology.by_name machine with
    | Some t -> t
    | None -> die "--machine: unknown machine %S (`epochs list` names them)" machine
  in
  let churn =
    Option.map
      (fun spec ->
        match Runtime.Config.churn_of_spec spec with
        | plan -> plan
        | exception Failure msg -> die "%s" msg)
      churn
  in
  let cfg =
    {
      Runtime.Config.default with
      Runtime.Config.ds;
      smr;
      alloc;
      threads;
      topology;
      key_range = keys;
      duration_ns = duration * 1_000_000;
      grace_ns = duration * 1_000_000;
      trials;
      seed;
      validate;
      timeline;
      af_drain;
      key_dist =
        (match zipf with None -> Runtime.Config.Uniform | Some theta -> Runtime.Config.Zipf theta);
      churn;
    }
  in
  match Runtime.Config.check cfg with
  | Ok () -> cfg
  | Error msg -> (
      (* [check] names the config field it rejects; name the flag that set it too. *)
      let flags =
        [
          ("ds", "--ds", ds);
          ("smr", smr_flag, smr);
          ("alloc", "--alloc", alloc);
          ("threads", "--threads", string_of_int threads);
          ("key_range", "--keys", string_of_int keys);
          ("duration_ns", "--duration", string_of_int duration);
          ("trials", "--trials", string_of_int trials);
          ("af_drain", "--af-drain", string_of_int af_drain);
        ]
      in
      match
        List.find_opt (fun (field, _, _) -> String.starts_with ~prefix:(field ^ " ") msg) flags
      with
      | Some (_, flag, v) -> die "%s %s: %s" flag v msg
      | None -> die "%s" msg)

(* [run] refuses --svg without --timeline, so a trial asked for a figure
   always has its reclamation timeline. *)
let maybe_write_svg (t : Runtime.Trial.t) = function
  | None -> ()
  | Some path ->
      Option.iter
        (fun tl ->
          Timeline.Svg.write_file path
            (Timeline.Svg.render ~title:t.Runtime.Trial.config_label
               ~t0:t.Runtime.Trial.measure_start ~t1:t.Runtime.Trial.deadline tl);
          Printf.printf "timeline figure written to %s\n" path)
        t.Runtime.Trial.timeline_reclaim

let print_trial (t : Runtime.Trial.t) ~timeline ~garbage =
  Printf.printf "%s\n" t.Runtime.Trial.config_label;
  Printf.printf "  throughput     %s ops/s (%d ops in %.1f ms)\n"
    (Report.Table.mops t.Runtime.Trial.throughput)
    t.Runtime.Trial.ops
    (float_of_int t.Runtime.Trial.duration_ns /. 1e6);
  Printf.printf "  peak memory    %s mapped, %s live\n"
    (Report.Table.bytes t.Runtime.Trial.peak_mapped_bytes)
    (Report.Table.bytes t.Runtime.Trial.peak_live_bytes);
  Printf.printf "  freed          %s objects (%s retired, %s allocated)\n"
    (Report.Table.count t.Runtime.Trial.freed)
    (Report.Table.count t.Runtime.Trial.retired)
    (Report.Table.count t.Runtime.Trial.allocs);
  Printf.printf "  epochs         %d   end garbage %s\n" t.Runtime.Trial.epochs
    (Report.Table.count t.Runtime.Trial.end_garbage);
  Printf.printf "  %%free %.1f  %%flush %.1f  %%lock %.1f  %%ds %.1f\n"
    t.Runtime.Trial.pct_free t.Runtime.Trial.pct_flush t.Runtime.Trial.pct_lock
    t.Runtime.Trial.pct_ds;
  Printf.printf "  op latency     p50 %s  p99 %s  p99.9 %s  max %s\n"
    (Report.Table.count (Runtime.Trial.op_p t 50.))
    (Report.Table.count (Runtime.Trial.op_p t 99.))
    (Report.Table.count (Runtime.Trial.op_p t 99.9))
    (Report.Table.count (Simcore.Histogram.max_value t.Runtime.Trial.op_hist));
  Printf.printf "  final size     %d   violations %d\n" t.Runtime.Trial.final_size
    t.Runtime.Trial.violations;
  if t.Runtime.Trial.thread_retires > 0 || t.Runtime.Trial.thread_spawns > 0 then
    Printf.printf "  churn          %d retires, %d respawns, %s objects death-flushed\n"
      t.Runtime.Trial.thread_retires t.Runtime.Trial.thread_spawns
      (Report.Table.count t.Runtime.Trial.teardown_frees);
  if garbage then begin
    Printf.printf "  garbage by epoch:\n";
    List.iter
      (fun (e, c) -> Printf.printf "    epoch %4d: %s\n" e (Report.Table.count c))
      t.Runtime.Trial.garbage_by_epoch
  end;
  if timeline then begin
    (match t.Runtime.Trial.timeline_reclaim with
    | Some tl when Timeline.total_events tl > 0 ->
        Printf.printf "\n  batch reclamation timeline (measured window):\n%s\n"
          (Timeline.render ~t0:t.Runtime.Trial.measure_start ~t1:t.Runtime.Trial.deadline tl)
    | Some _ | None -> ());
    match t.Runtime.Trial.timeline_free with
    | Some tl when Timeline.total_events tl > 0 ->
        Printf.printf "\n  individual free calls >= %s:\n%s\n" "1us"
          (Timeline.render ~t0:t.Runtime.Trial.measure_start ~t1:t.Runtime.Trial.deadline tl)
    | Some _ | None -> ()
  end

let run_cmd =
  let run ds smr alloc threads machine keys duration trials seed validate timeline garbage
      af_drain zipf svg jobs trace trace_capacity churn =
    (* Flags only this command reads, refused before any trial runs. *)
    (match svg with
    | Some path when not timeline -> die "--svg %s requires --timeline" path
    | _ -> ());
    if trace_capacity < 1 then
      die "--trace-capacity %d is out of range; it must be >= 1" trace_capacity;
    let cfg =
      config ?churn ds smr alloc threads machine keys duration trials seed validate timeline
        af_drain zipf
    in
    let trials =
      match trace with
      | None -> Runtime.Runner.run ~jobs:(resolve_jobs jobs) cfg
      | Some path ->
          (* Trace the first trial; the rest run untraced as usual. *)
          let tracer = Simcore.Tracer.create ~capacity:trace_capacity () in
          let first = Runtime.Runner.run_trial ~tracer cfg ~seed:cfg.Runtime.Config.seed in
          let rest =
            List.init
              (max 0 (cfg.Runtime.Config.trials - 1))
              (fun i -> Runtime.Runner.run_trial cfg ~seed:(cfg.Runtime.Config.seed + 1 + i))
          in
          Simtrace.Chrome.write_file path tracer;
          Printf.printf "trace written to %s (%d events, %d dropped)\n" path
            (Simcore.Tracer.retained tracer)
            (Simcore.Tracer.dropped tracer);
          Format.printf "%a@.@." Simtrace.Profile.pp (Simtrace.Profile.of_tracer tracer);
          first :: rest
    in
    List.iter (print_trial ~timeline ~garbage) trials;
    (match trials with t :: _ -> maybe_write_svg t svg | [] -> ());
    if List.length trials > 1 then begin
      let s = Runtime.Trial.throughput_summary trials in
      Printf.printf "mean throughput %s (min %s, max %s)\n"
        (Report.Table.mops s.Runtime.Trial.mean)
        (Report.Table.mops s.Runtime.Trial.min)
        (Report.Table.mops s.Runtime.Trial.max)
    end
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one configuration.")
    Term.(
      const run $ ds_arg $ smr_arg $ alloc_arg $ threads_arg $ machine_arg $ keys_arg
      $ duration_arg $ trials_arg $ seed_arg $ validate_arg $ timeline_arg $ garbage_arg
      $ drain_arg $ zipf_arg $ svg_arg $ jobs_arg $ trace_arg $ trace_capacity_arg
      $ churn_arg)

let comma_list s = String.split_on_char ',' s |> List.map String.trim

let sweep_cmd =
  let smrs_arg =
    Arg.(
      value
      & opt string "debra,debra_af,token_af"
      & info [ "smr" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated reclaimers; $(b,all) expands to every registered reclaimer, \
             $(b,all_af) to every amortized-free variant.")
  in
  let threads_list_arg =
    Arg.(
      value
      & opt (list int) [ 12; 24; 48; 96; 144; 192 ]
      & info [ "threads" ] ~docv:"NS" ~doc:"Comma-separated thread counts.")
  in
  let run ds smrs alloc threads machine keys duration trials seed jobs churn =
    let jobs = resolve_jobs jobs in
    (* [all] / [all_af] expand from the registry, so a newly registered
       reclaimer shows up in sweeps without touching the CLI. *)
    let smrs =
      List.concat_map
        (function
          | "all" -> Smr.Smr_registry.names
          | "all_af" -> List.map (fun n -> n ^ "_af") Smr.Smr_registry.names
          | s -> [ s ])
        (comma_list smrs)
    in
    let table = Report.Table.create ("smr \\ n" :: List.map string_of_int threads) in
    (* Every (smr, n) cell is independent: fan the whole grid out at once
       (cell-level beats trial-level here — the grid is much wider than
       trials-per-cell) and let Pool reassemble it in grid order. *)
    let cells =
      Runtime.Pool.map ~jobs
        (fun cfg ->
          let s = Runtime.Trial.throughput_summary (Runtime.Runner.run ~jobs:1 cfg) in
          Report.Table.mops s.Runtime.Trial.mean)
        (* Built (and checked) before any worker starts, so a bad --churn exits
           from the main domain. *)
        (List.concat_map
           (fun smr ->
             List.map
               (fun n ->
                 config ?churn ds smr alloc n machine keys duration trials seed false false 1 None)
               threads)
           smrs)
    in
    List.iteri
      (fun i smr ->
        let row = List.filteri (fun j _ -> j / List.length threads = i) cells in
        Report.Table.add_row table (smr :: row))
      smrs;
    print_string (Report.Table.render table)
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Throughput sweep over thread counts and reclaimers.")
    Term.(
      const run $ ds_arg $ smrs_arg $ alloc_arg $ threads_list_arg $ machine_arg $ keys_arg
      $ duration_arg $ trials_arg $ seed_arg $ jobs_arg $ churn_arg)

let compare_cmd =
  let smr_a = Arg.(value & pos 0 string "debra" & info [] ~docv:"SMR_A") in
  let smr_b = Arg.(value & pos 1 string "debra_af" & info [] ~docv:"SMR_B") in
  let run smr_a smr_b ds alloc threads machine keys duration trials seed =
    (* Both configs are checked before either runs. *)
    let cfg smr_flag smr =
      config ~smr_flag ds smr alloc threads machine keys duration trials seed false false 1 None
    in
    let cfg_a = cfg "SMR_A" smr_a in
    let cfg_b = cfg "SMR_B" smr_b in
    let a = List.hd (Runtime.Runner.run cfg_a) and b = List.hd (Runtime.Runner.run cfg_b) in
    let row label f g =
      Printf.printf "%-16s %14s %14s
" label (f a) (g a b)
    in
    Printf.printf "%-16s %14s %14s
" "" smr_a smr_b;
    Printf.printf "%s
" (String.make 46 '-');
    let t (x : Runtime.Trial.t) = Report.Table.mops x.Runtime.Trial.throughput in
    row "ops/s" t (fun _ b -> t b);
    row "%free"
      (fun x -> Report.Table.pct x.Runtime.Trial.pct_free)
      (fun _ b -> Report.Table.pct b.Runtime.Trial.pct_free);
    row "%lock"
      (fun x -> Report.Table.pct x.Runtime.Trial.pct_lock)
      (fun _ b -> Report.Table.pct b.Runtime.Trial.pct_lock);
    row "peak memory"
      (fun x -> Report.Table.bytes x.Runtime.Trial.peak_mapped_bytes)
      (fun _ b -> Report.Table.bytes b.Runtime.Trial.peak_mapped_bytes);
    row "op p99.9"
      (fun x -> Report.Table.count (Runtime.Trial.op_p x 99.9))
      (fun _ b -> Report.Table.count (Runtime.Trial.op_p b 99.9));
    Printf.printf "
%s is %.2fx the throughput of %s
" smr_b
      (b.Runtime.Trial.throughput /. a.Runtime.Trial.throughput)
      smr_a
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare two reclaimers on the same configuration.")
    Term.(
      const run $ smr_a $ smr_b $ ds_arg $ alloc_arg $ threads_arg $ machine_arg $ keys_arg
      $ duration_arg $ trials_arg $ seed_arg)

let list_cmd =
  let run () =
    Printf.printf "data structures: %s\n" (String.concat ", " Ds.Ds_registry.names);
    Printf.printf "reclaimers:      %s (+ _af variants)\n" (String.concat ", " Smr.Smr_registry.names);
    Printf.printf "allocators:      %s\n" (String.concat ", " Alloc.Registry.names);
    Printf.printf "machines:        %s\n"
      (String.concat ", " (List.map (fun t -> t.Simcore.Topology.name) Simcore.Topology.all))
  in
  Cmd.v (Cmd.info "list" ~doc:"List available components.") Term.(const run $ const ())

let validate_trace_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Chrome trace-event JSON file to check.")
  in
  let run file =
    let ic = open_in_bin file in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.parse text with
    | Error msg ->
        Printf.eprintf "%s: JSON parse error: %s\n" file msg;
        exit 1
    | Ok doc -> (
        match Simtrace.Chrome.validate doc with
        | [] ->
            let events =
              match Json.member "traceEvents" doc with Json.List l -> List.length l | _ -> 0
            in
            Printf.printf "%s: valid (%d events)\n" file events
        | errors ->
            List.iter (fun e -> Printf.eprintf "%s: %s\n" file e) errors;
            exit 1)
  in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:
         "Schema-check a trace written by $(b,--trace): required event fields, monotone \
          timestamps, properly nested spans. Exits 1 on any problem.")
    Term.(const run $ file_arg)

let () =
  let doc = "Epoch-based reclamation vs allocator interaction simulator" in
  let info = Cmd.info "epochs" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; sweep_cmd; compare_cmd; list_cmd; validate_trace_cmd ]))
