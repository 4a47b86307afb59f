(* The benchmark: workloads, the untraced run behind the end-to-end metrics,
   and the traced run behind the per-layer ledger. Why each workload was
   chosen is recorded in BENCHMARK.json and perf/README.md. *)

type kind =
  | Sim of string list  (** suite entry ids; one pass is a trial of each *)
  | Offheap of { ops : int }  (** stack operations per configuration *)

type workload = { name : string; kind : kind }

let workloads =
  [
    { name = "je-batch-192"; kind = Sim [ "paper-je-ebr-n192" ] };
    { name = "je-af-192"; kind = Sim [ "paper-je-ebr-af-n192" ] };
    { name = "leak-token-192"; kind = Sim [ "paper-leak-token-n192" ] };
    {
      name = "pr-32";
      kind = Sim [ "occ-ebr-n32"; "sl-token-n32"; "occ-hp-n32"; "occ-token-af-n32" ];
    };
    (* One domain: on two, a pass took 60 ms when the host ran the domains
       one at a time and 180-250 ms when it ran them at once, so the
       run-to-run spread reached 25%; see perf/README.md. *)
    { name = "offheap-1d"; kind = Offheap { ops = 200_000 } };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

type metric = { name : string; value : float; unit_ : string }

type result = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  info : (string * Json.t) list;  (** sample counts, samples, virtual throughput *)
}

let correct r = r.failed = 0

let m name value unit_ = { name; value; unit_ }

(* A run sweeps [seeds_per_run] consecutive seeds from [--seed], pass [i]
   taking seed [seed + i mod seeds_per_run]: a trial's work and heap peak
   depend on its seed, and a run that covers several seeds reads about the
   same whichever it starts from. *)
let seeds_per_run = 4

let seed_of ~seed i = seed + (i mod seeds_per_run)

(* What the untraced loop measured. [ops] is each pass's operations:
   measured-window [Trial.ops] summed over the entries, or real stack
   operations. *)
type measured = {
  samples : Stats.samples;
  ops : int list;
  heap_mb : float;
  trials : Runtime.Trial.t list;  (** the first pass's, for simulated workloads *)
}

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* The loop, recording the heap peak when the first sweep of the seeds
   ends. A pass is deterministic, so the sweep reaches the peak; later
   passes only add the collector's fragmentation drift, which differs by
   seed (up to 6% between runs at the 40th pass, against 1% after the
   sweep) and would let the time box move the peak. *)
let sampled reference ~seconds ~min_passes ~setup ~pass =
  let peak = ref None in
  let samples =
    Stats.loop reference ~sweep:seeds_per_run ~min_passes ~seconds ~setup ~pass:(fun i ->
        let ms = pass i in
        if i = seeds_per_run - 1 then peak := Some (heap_peak_mb ());
        ms)
  in
  (samples, match !peak with Some p -> p | None -> heap_peak_mb ())

let measure_sim reference c ~seed ~seconds ~min_passes entries =
  let first = ref [] and ops = ref [] in
  let samples, heap_mb =
    sampled reference ~seconds ~min_passes
      ~setup:(fun i -> Sim.setup_ms ~seed:(seed_of ~seed i) entries)
      ~pass:(fun i ->
        let ms, trials = Sim.pass c ~seed:(seed_of ~seed i) entries in
        if i = 0 then first := trials;
        let pass_ops = List.fold_left (fun a (t : Runtime.Trial.t) -> a + t.Runtime.Trial.ops) 0 in
        ops := pass_ops trials :: !ops;
        ms)
  in
  { samples; ops = List.rev !ops; heap_mb; trials = !first }

(* Offheap passes are judged whole: a pass is one unit of the tally. *)
let measure_offheap reference tally ~seed ~seconds ~min_passes ~ops =
  let samples, heap_mb =
    sampled reference ~seconds ~min_passes
      ~setup:(fun _ -> Offheap.setup_ms ())
      ~pass:(fun i ->
        let p = Offheap.pass ~seed:(seed_of ~seed i) ~ops in
        Stats.note tally p.Offheap.ok;
        p.Offheap.ms)
  in
  let per_pass = List.length Offheap.configs * ops in
  { samples; ops = List.map (fun _ -> per_pass) samples.Stats.pass_ms; heap_mb; trials = [] }

(* Timings are scaled to reference speed (see [Stats.scaled]); the
   throughput is each pass's operations over its scaled time, median over
   passes. *)
let end_to_end r =
  let pass_ms, setup_ms = Stats.scaled r.samples in
  let kops = List.map2 (fun ops ms -> float_of_int ops /. ms) r.ops pass_ms in
  [
    m "pass_ms_p50" (Stats.median pass_ms) "ms";
    m "pass_ms_p75" (Stats.p75 pass_ms) "ms";
    m "kops_per_host_s" (Stats.median kops) "kops/s";
    m "setup_s" (Stats.median setup_ms /. 1e3) "s";
    m "heap_peak_mb" r.heap_mb "MB";
  ]

let samples_info r =
  let s = r.samples in
  let floats l = Json.List (List.map (fun x -> Json.Float x) l) in
  [
    ("samples", Json.Int (List.length s.Stats.pass_ms));
    ("seeds_per_run", Json.Int seeds_per_run);
    ("wall_pass_ms_p50", Json.Float (Stats.median s.Stats.pass_ms));
    ("pass_ms", floats s.Stats.pass_ms);
    ("setup_ms", floats s.Stats.setup_ms);
    ("probe_ms", floats s.Stats.probe_ms);
  ]

(* Virtual throughput of each entry, next to the paper's figure where the
   paper reports the same configuration. A change here is a model change. *)
let sim_info ids trials =
  [
    ( "sim_mops",
      Json.Assoc
        (List.map2
           (fun id t ->
             ( id,
               Json.Assoc
                 (("sim", Json.Float (Runtime.Trial.mops t))
                 ::
                 (match List.assoc_opt id Sim.paper_mops with
                 | Some p -> [ ("paper", Json.Float p) ]
                 | None -> [])) ))
           ids trials) );
  ]

(* -- the traced run ------------------------------------------------------- *)

type micros = {
  yield_ns : float;
  dispatch_n192 : float;
  dispatch_n32 : float;
  handoff_ns : float;
  malloc_free_ns : float;
  flush_ns_per_obj : float;
  smr_ns : (string * float) list;
  ds_ns : (string * float) list;
  cycle_ns : (Offheap.reclaimer * float) list;
}

let smr_families = [ "debra"; "token"; "hazard" ]

(* Key ranges of the suite entries that run each structure. *)
let ds_ranges = [ ("abtree", 8192); ("occtree", 4096); ("skiplist", 4096) ]

(* Every unit cost is scaled to reference speed by the probes around it,
   like the passes it is set against. *)
let micros reference ~threads ~alloc =
  let scaled f =
    let ns, k = Stats.at_reference reference f in
    ns *. k
  in
  {
    yield_ns = scaled (fun () -> Layers.yield_ns ~threads);
    dispatch_n192 = scaled (fun () -> Layers.dispatch_ns ~n:192);
    dispatch_n32 = scaled (fun () -> Layers.dispatch_ns ~n:32);
    handoff_ns = scaled Layers.handoff_ns;
    malloc_free_ns = scaled (fun () -> Layers.malloc_free_ns alloc);
    flush_ns_per_obj = scaled (fun () -> Layers.flush_ns_per_obj alloc);
    smr_ns = List.map (fun s -> (s, scaled (fun () -> Layers.smr_op_ns s ~threads))) smr_families;
    ds_ns =
      List.map
        (fun (d, key_range) -> (d, scaled (fun () -> Layers.ds_op_ns d ~key_range)))
        ds_ranges;
    cycle_ns = List.map (fun r -> (r, scaled (fun () -> Layers.cycle_ns r))) Offheap.reclaimers;
  }

let lookup what l k =
  match List.assoc_opt k l with
  | Some v -> v
  | None -> failwith (Printf.sprintf "no %s micro-benchmark for %s" what k)

(* What the traced run gathered besides the micros. *)
type traced = {
  counts : Layers.counts;
  per_entry : (Runtime.Config.t * int) list;  (** each entry's operations, traced trial *)
  cycles : int;  (** offheap: push+pop cycles per reclaimer in a pass *)
  gc : Layers.gc;
  traced_ms : float;  (** the traced pass; 0 when the workload has no tracer *)
  retired : int;
  released : int;
  ops : int;  (** operations in one pass, set-up and prefill included *)
}

let ms_of_ns count ns = float_of_int count *. ns /. 1e6

(* The ledger: each layer's count times its unit cost. A yield's round trip
   includes one dispatch, which is charged to the event queue. *)
let ledger ~threads t u =
  let dispatch = if threads > 32 then u.dispatch_n192 else u.dispatch_n32 in
  let c = t.counts in
  let per_entry f = List.fold_left (fun a (cfg, ops) -> a +. f cfg ops) 0. t.per_entry in
  [
    ("sched", ms_of_ns c.Layers.yields (u.yield_ns -. dispatch));
    ("event_queue", ms_of_ns c.Layers.yields dispatch);
    ("sim_mutex", ms_of_ns c.Layers.acquires u.handoff_ns);
    ( "alloc",
      ms_of_ns c.Layers.frees u.malloc_free_ns +. ms_of_ns c.Layers.flushed u.flush_ns_per_obj );
    ( "smr",
      per_entry (fun cfg ops ->
          let smr, _af = Smr.Smr_registry.parse cfg.Runtime.Config.smr in
          ms_of_ns ops (lookup "smr" u.smr_ns smr)) );
    ("ds", per_entry (fun cfg ops -> ms_of_ns ops (lookup "ds" u.ds_ns cfg.Runtime.Config.ds)));
    ("gc", t.gc.Layers.minor_ms +. t.gc.Layers.major_ms);
    ("parallel", List.fold_left (fun a (_, ns) -> a +. ms_of_ns t.cycles ns) 0. u.cycle_ns);
  ]

(* [p50] is [pass_ms_p50] of the same run: the time the ledger explains
   and the base of the tracing overhead. *)
let per_layer ~p50 t u layers =
  let c = t.counts in
  let explained = List.fold_left (fun a (_, ms) -> a +. ms) 0. layers in
  let count name n = m name (float_of_int n) "count" in
  let ns name v = m name v "ns" in
  [
    ns "sched.yield_ns" u.yield_ns;
    count "sched.yields" c.Layers.yields;
    count "sched.elided_yields" c.Layers.elided;
    ns "event_queue.dispatch_ns.n192" u.dispatch_n192;
    ns "event_queue.dispatch_ns.n32" u.dispatch_n32;
    ns "sim_mutex.handoff_ns" u.handoff_ns;
    count "sim_mutex.acquires" c.Layers.acquires;
    count "sim_mutex.contended" c.Layers.contended;
    ns "alloc.malloc_free_ns" u.malloc_free_ns;
    ns "alloc.flush_ns_per_obj" u.flush_ns_per_obj;
    count "alloc.frees" c.Layers.frees;
    count "alloc.flushes" c.Layers.flushes;
    count "alloc.remote_frees" c.Layers.remote_frees;
  ]
  @ List.map (fun (s, v) -> ns (Printf.sprintf "smr.%s.op_ns" s) v) u.smr_ns
  @ [
      count "smr.epochs" c.Layers.epochs;
      count "smr.reclaimed" c.Layers.reclaimed;
      count "smr.hp_scans" c.Layers.hp_scans;
    ]
  @ List.map (fun (d, v) -> ns (Printf.sprintf "ds.%s.op_ns" d) v) u.ds_ns
  @ [
      count "ds.ops" t.ops;
      m "gc.minor_words_per_op" (t.gc.Layers.minor_words /. float_of_int t.ops) "words/op";
      m "gc.minor_ms" t.gc.Layers.minor_ms "ms";
      m "gc.major_ms" t.gc.Layers.major_ms "ms";
      count "tracer.events" c.Layers.events;
      m "tracer.overhead_pct"
        (if t.traced_ms > 0. then (t.traced_ms /. p50 -. 1.) *. 100. else 0.)
        "%";
    ]
  @ List.map
      (fun (r, v) -> ns (Printf.sprintf "parallel.%s.cycle_ns" (Offheap.name r)) v)
      u.cycle_ns
  @ [ count "parallel.retired" t.retired; count "parallel.released" t.released ]
  @ List.map (fun (l, ms) -> m (Printf.sprintf "ledger.%s_ms" l) ms "ms") layers
  @ [ m "ledger.pass_ms" p50 "ms"; m "ledger.residual_pct" ((p50 -. explained) /. p50 *. 100.) "%" ]

let trace_info t layers =
  let largest =
    List.fold_left (fun (l, v) (l', v') -> if v' > v then (l', v') else (l, v)) ("", 0.) layers
  in
  [
    ("dropped", Json.Int t.counts.Layers.dropped);
    ("traced_ms", Json.Float t.traced_ms);
    ("gc_lost_events", Json.Int t.gc.Layers.lost);
    ("largest_layer", Json.String (fst largest));
  ]

(* GC time of one untraced pass, scaled to reference speed. *)
let gc_pass reference pass =
  let (r, gc), k = Stats.at_reference reference (fun () -> Layers.gc_of pass) in
  (r, { gc with Layers.minor_ms = gc.Layers.minor_ms *. k; major_ms = gc.Layers.major_ms *. k })

(* Simulated workloads: a GC-instrumented untraced pass, then one traced
   pass whose trials must reproduce the untraced digests. *)
let trace_sim reference c ~seed entries =
  let _, gc = gc_pass reference (fun () -> Sim.pass c ~seed entries) in
  let counts = Layers.counts () in
  let (traced_ms, per_entry), k =
    Stats.at_reference reference (fun () ->
        List.fold_left
          (fun (ms, acc) (e : Sim.entry) ->
            let tracer = Simcore.Tracer.create ~capacity:(1 lsl 21) () in
            let t_ms, _ = Sim.trial ~tracer c ~seed e in
            (ms +. t_ms, acc @ [ (e.Sim.config, Layers.count counts tracer) ]))
          (0., []) entries)
  in
  {
    counts;
    per_entry;
    cycles = 0;
    gc;
    traced_ms = traced_ms *. k;
    retired = 0;
    released = 0;
    ops = List.fold_left (fun a (_, ops) -> a + ops) 0 per_entry;
  }

let trace_offheap reference tally ~seed ~ops =
  let p, gc = gc_pass reference (fun () -> Offheap.pass ~seed ~ops) in
  Stats.note tally p.Offheap.ok;
  {
    counts = Layers.counts ();
    per_entry = [];
    cycles = ops;
    gc;
    traced_ms = 0.;
    retired = p.Offheap.retired;
    released = p.Offheap.released;
    ops = List.length Offheap.configs * ops;
  }

(* One run of workload [w]: the untraced loop, then with [traced] the
   traced pass and the micros. Host times are scaled by the probes of
   [reference]. *)
let run reference ~root ~seed ~seconds ~min_passes ~traced (w : workload) =
  let tally = Stats.tally () in
  let r, threads, alloc, trace, info =
    match w.kind with
    | Sim ids ->
        let entries = Sim.load ~root ids in
        let c = Sim.checker ~tally entries in
        let r = measure_sim reference c ~seed ~seconds ~min_passes entries in
        ( r,
          List.fold_left
            (fun a (e : Sim.entry) -> max a e.Sim.config.Runtime.Config.threads)
            0 entries,
          (List.hd entries).Sim.config.Runtime.Config.alloc,
          (fun () -> trace_sim reference c ~seed entries),
          sim_info ids r.trials )
    | Offheap { ops } ->
        (* Every per-layer metric is reported for every workload; the
           simulator's unit costs are taken at the paper's scale here. *)
        ( measure_offheap reference tally ~seed ~seconds ~min_passes ~ops,
          192,
          "jemalloc",
          (fun () -> trace_offheap reference tally ~seed ~ops),
          [] )
  in
  let metrics, trace_info =
    if traced then begin
      let t = trace () in
      let u = micros reference ~threads ~alloc in
      let layers = ledger ~threads t u in
      let pass_ms, _ = Stats.scaled r.samples in
      (per_layer ~p50:(Stats.median pass_ms) t u layers, trace_info t layers)
    end
    else (end_to_end r, [])
  in
  {
    workload = w.name;
    seed;
    traced;
    attempted = tally.Stats.attempted;
    failed = tally.Stats.failed;
    metrics;
    info = samples_info r @ info @ trace_info;
  }

let metric_json x =
  (x.name, Json.Assoc [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ])

(* The result line: the last line a run prints. *)
let summary_json r =
  Json.Assoc
    [
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Assoc (List.map metric_json r.metrics));
    ]

(* The record kept under perf/out/ and in trajectory files. *)
let out_json r =
  Json.Assoc
    [
      ("workload", Json.String r.workload);
      ("mode", Json.String (if r.traced then "trace" else "run"));
      ("seed", Json.Int r.seed);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("result", summary_json r);
      ("info", Json.Assoc r.info);
    ]
