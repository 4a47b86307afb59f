(* Shared plumbing for the paper-reproduction benchmarks: scaled-down
   default parameters, config construction, result caching (so figures that
   share data points do not re-simulate them), and printing helpers. *)

let quick = match Sys.getenv_opt "QUICK" with Some ("1" | "true") -> true | _ -> false
let full = match Sys.getenv_opt "FULL" with Some ("1" | "true") -> true | _ -> false

(* Trial fan-out width: EPOCHS_JOBS when set, else the recommended domain
   count. Parallel trials are bit-identical to sequential ones, so figures
   and shape checks are unaffected. A malformed EPOCHS_JOBS is a usage
   error, as it is for the -j term of the other binaries. *)
let jobs =
  match Runtime.Pool.default_jobs () with
  | n -> n
  | exception Invalid_argument msg ->
      prerr_endline ("bench: " ^ msg);
      exit 124

let trials = if quick then 1 else if full then 3 else 2
let duration_ms = if quick then 15 else if full then 40 else 25

let thread_counts =
  if quick then [ 24; 96; 192 ] else [ 12; 24; 48; 96; 144; 192 ]

(* The ten reclaimers of the paper's evaluation plus the leaky baseline, in
   the paper's presentation order. *)
let all_reclaimers =
  [ "token_af"; "debra_af"; "nbr+"; "nbr"; "ibr"; "rcu"; "qsbr"; "debra"; "wfe"; "he"; "hazard"; "none" ]

let base =
  {
    Runtime.Config.default with
    Runtime.Config.key_range = 16384;
    duration_ns = duration_ms * 1_000_000;
    grace_ns = duration_ms * 1_000_000;
    warmup_ns = 2_000_000;
    trials;
  }

let cfg ?(ds = "abtree") ?(smr = "debra") ?(alloc = "jemalloc") ?(threads = 192)
    ?(topology = Simcore.Topology.intel_192t) ?(timeline = false) ?key_range ?af_drain
    ?token_period ?buffer_size ?alloc_config () =
  {
    base with
    Runtime.Config.ds;
    smr;
    alloc;
    threads;
    topology;
    timeline;
    key_range = Option.value key_range ~default:base.Runtime.Config.key_range;
    af_drain = Option.value af_drain ~default:base.Runtime.Config.af_drain;
    token_period = Option.value token_period ~default:base.Runtime.Config.token_period;
    buffer_size = Option.value buffer_size ~default:base.Runtime.Config.buffer_size;
    alloc_config = Option.value alloc_config ~default:base.Runtime.Config.alloc_config;
  }

(* Memoised trial results: several figures reuse the same configurations.
   A config is keyed by its own JSON, which holds every field a manifest
   can set, plus the allocator settings the JSON leaves out. The cost
   model, the one other field the JSON omits, is the default in every
   figure. *)
let cache : (string, Runtime.Trial.t list) Hashtbl.t = Hashtbl.create 64

let cache_key (c : Runtime.Config.t) =
  let a = c.Runtime.Config.alloc_config in
  Printf.sprintf "%s/cap%d/ff%h/rb%d/pg%d"
    (Json.render ~minify:true (Runtime.Config.to_json c))
    a.Alloc.Alloc_intf.tcache_cap a.Alloc.Alloc_intf.flush_fraction
    a.Alloc.Alloc_intf.refill_batch a.Alloc.Alloc_intf.page_bytes

let run c =
  let key = cache_key c in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
      let r = Runtime.Runner.run ~jobs c in
      Hashtbl.replace cache key r;
      r

let mean_throughput c = (Runtime.Trial.throughput_summary (run c)).Runtime.Trial.mean
let mean_peak_mem c = (Runtime.Trial.peak_memory_summary (run c)).Runtime.Trial.mean
let first_trial c = List.hd (run c)

(* Optional raw-data export: EXPORT=1 writes each chart's series to
   results/<slug>.csv for external plotting. *)
let export = match Sys.getenv_opt "EXPORT" with Some ("1" | "true") -> true | _ -> false

let slug s =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c else '-')
    (String.lowercase_ascii s)

let export_csv ~title ~header rows =
  if export then begin
    (try Unix.mkdir "results" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat "results" (slug title ^ ".csv") in
    let oc = open_out path in
    output_string oc (header ^ "\n");
    List.iter (fun row -> output_string oc (row ^ "\n")) rows;
    close_out oc;
    Printf.printf "(raw data: %s)\n%!" path
  end

let section title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n%!"

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* Throughput-vs-threads chart for a list of (label, configs by n). *)
let sweep_chart ~title ~series_of () =
  let data =
    List.map
      (fun (label, cfg_of_n) ->
        (label, List.map (fun n -> (float_of_int n, mean_throughput (cfg_of_n n))) thread_counts))
      series_of
  in
  let series = Report.Chart.make_series data in
  Printf.printf "%s\n%s%!" title
    (Report.Chart.render ~y_label:"throughput (M ops/s)" ~x_label:"threads" series);
  export_csv ~title ~header:"series,threads,ops_per_sec"
    (List.concat_map
       (fun (label, pts) ->
         List.map (fun (x, y) -> Printf.sprintf "%s,%.0f,%.0f" label x y) pts)
       data)

let memory_chart ~title ~series_of () =
  let data =
    List.map
      (fun (label, cfg_of_n) ->
        (label, List.map (fun n -> (float_of_int n, mean_peak_mem (cfg_of_n n))) thread_counts))
      series_of
  in
  let series = Report.Chart.make_series data in
  Printf.printf "%s\n%s%!" title
    (Report.Chart.render ~y_label:"peak memory (MB)" ~x_label:"threads" series);
  export_csv ~title ~header:"series,threads,peak_bytes"
    (List.concat_map
       (fun (label, pts) ->
         List.map (fun (x, y) -> Printf.sprintf "%s,%.0f,%.0f" label x y) pts)
       data)

(* Render both timelines of a timeline-enabled trial. *)
let print_timelines ?(rows = 12) label (t : Runtime.Trial.t) =
  let window = (t.Runtime.Trial.deadline - t.Runtime.Trial.measure_start) / 2 in
  let t0 = t.Runtime.Trial.measure_start and t1 = t.Runtime.Trial.measure_start + window in
  (match t.Runtime.Trial.timeline_reclaim with
  | Some tl when Timeline.total_events tl > 0 ->
      Printf.printf "%s — batch reclamation events (first half of window):\n%s\n" label
        (Timeline.render ~threads:rows ~t0 ~t1 tl)
  | Some _ | None -> note "%s: no batch reclamation events (amortized freeing)" label);
  match t.Runtime.Trial.timeline_free with
  | Some tl when Timeline.total_events tl > 0 ->
      Printf.printf "%s — individual free calls >= 1us:\n%s\n" label
        (Timeline.render ~threads:rows ~t0 ~t1 tl)
  | Some _ | None -> note "%s: no free calls above the recording threshold" label

(* Summarise a garbage-per-epoch trace like the paper's lower panels. *)
let print_garbage label (t : Runtime.Trial.t) =
  let trace = t.Runtime.Trial.garbage_by_epoch in
  note "%s: %d epochs traced, garbage per epoch avg %s peak %s" label (List.length trace)
    (Report.Table.count (int_of_float t.Runtime.Trial.avg_epoch_garbage))
    (Report.Table.count t.Runtime.Trial.peak_epoch_garbage);
  if trace <> [] then begin
    let series =
      Report.Chart.make_series
        [ ("garbage", List.map (fun (e, c) -> (float_of_int e, float_of_int c)) trace) ]
    in
    print_string (Report.Chart.render ~height:8 ~y_label:"garbage nodes (M)" ~x_label:"epoch" series)
  end

let ratio a b = if b = 0. then Float.nan else a /. b

(* Compare a measured ratio against the paper's, qualitatively. *)
let shape_check ~what ~paper ~measured =
  let verdict =
    if (paper > 1.05 && measured > 1.0) || (paper < 0.95 && measured < 1.0)
       || (paper >= 0.95 && paper <= 1.05 && measured > 0.8 && measured < 1.25)
    then "SHAPE OK"
    else "SHAPE MISMATCH"
  in
  note "  %-52s paper %.2fx  measured %.2fx  [%s]" what paper measured verdict
