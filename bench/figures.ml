(* One function per table and figure of the paper. Each prints the measured
   rows/series in the paper's format, together with the paper's own numbers
   where the paper states them, and a qualitative shape check. *)

open Exp

(* ------------------------------------------------------------------ *)
(* Figure 1: ABtree vs OCCtree under DEBRA vs leaking, JEmalloc.      *)
(* ------------------------------------------------------------------ *)
let fig1 () =
  section "Figure 1: throughput and peak memory, DEBRA (a,b) vs leak (c,d)";
  sweep_chart ~title:"(a) throughput with DEBRA"
    ~series_of:
      [
        ("abtree/debra", fun n -> cfg ~ds:"abtree" ~smr:"debra" ~threads:n ());
        ("occtree/debra", fun n -> cfg ~ds:"occtree" ~smr:"debra" ~threads:n ());
      ]
    ();
  memory_chart ~title:"(b) peak memory with DEBRA"
    ~series_of:
      [
        ("abtree/debra", fun n -> cfg ~ds:"abtree" ~smr:"debra" ~threads:n ());
        ("occtree/debra", fun n -> cfg ~ds:"occtree" ~smr:"debra" ~threads:n ());
      ]
    ();
  sweep_chart ~title:"(c) throughput when leaking"
    ~series_of:
      [
        ("abtree/none", fun n -> cfg ~ds:"abtree" ~smr:"none" ~threads:n ());
        ("occtree/none", fun n -> cfg ~ds:"occtree" ~smr:"none" ~threads:n ());
      ]
    ();
  memory_chart ~title:"(d) peak memory when leaking"
    ~series_of:
      [
        ("abtree/none", fun n -> cfg ~ds:"abtree" ~smr:"none" ~threads:n ());
        ("occtree/none", fun n -> cfg ~ds:"occtree" ~smr:"none" ~threads:n ());
      ]
    ();
  let ab48 = mean_throughput (cfg ~ds:"abtree" ~smr:"debra" ~threads:48 ()) in
  let ab192 = mean_throughput (cfg ~ds:"abtree" ~smr:"debra" ~threads:192 ()) in
  let occ48 = mean_throughput (cfg ~ds:"occtree" ~smr:"debra" ~threads:48 ()) in
  let occ192 = mean_throughput (cfg ~ds:"occtree" ~smr:"debra" ~threads:192 ()) in
  let leak_ab192 = mean_peak_mem (cfg ~ds:"abtree" ~smr:"none" ~threads:192 ()) in
  let debra_ab192 = mean_peak_mem (cfg ~ds:"abtree" ~smr:"debra" ~threads:192 ()) in
  note "Shape checks (paper Fig 1):";
  shape_check ~what:"ABtree+DEBRA stops scaling 48->192" ~paper:1.21 ~measured:(ratio ab192 ab48);
  shape_check ~what:"OCCtree+DEBRA keeps scaling 48->192" ~paper:2.5
    ~measured:(ratio occ192 occ48);
  shape_check ~what:"leaking maps far more memory than DEBRA (ABtree,192)" ~paper:8.
    ~measured:(ratio leak_ab192 debra_ab192)

(* ------------------------------------------------------------------ *)
(* Figure 2: timeline graphs of batch frees, 96 vs 192 threads.       *)
(* ------------------------------------------------------------------ *)
let fig2 () =
  section "Figure 2: timelines of batch-free (reclamation) events, DEBRA/JEmalloc";
  List.iter
    (fun n ->
      let t = first_trial (cfg ~smr:"debra" ~threads:n ~timeline:true ()) in
      print_timelines (Printf.sprintf "%d threads" n) t)
    [ 96; 192 ]

(* ------------------------------------------------------------------ *)
(* Table 1: JEmalloc free overhead across thread counts.              *)
(* ------------------------------------------------------------------ *)
let paper_tab1 = [ (48, 35.9, 12631, 11.5, 9.9, 4.9); (96, 45.3, 5176, 39.3, 38.3, 24.6); (192, 43.4, 1980, 59.5, 58.8, 39.8) ]

let tab1 () =
  section "Table 1: JEmalloc free overhead (ABtree, DEBRA, batch free)";
  let table =
    Report.Table.create [ "threads"; "ops/s"; "epochs"; "% free"; "% flush"; "% lock"; "paper ops/s"; "paper %free" ]
  in
  List.iter
    (fun (n, p_ops, _p_epochs, p_free, _p_flush, _p_lock) ->
      let t = first_trial (cfg ~smr:"debra" ~threads:n ()) in
      Report.Table.add_row table
        [
          string_of_int n;
          Report.Table.mops t.Runtime.Trial.throughput;
          string_of_int t.Runtime.Trial.epochs;
          Report.Table.pct t.Runtime.Trial.pct_free;
          Report.Table.pct t.Runtime.Trial.pct_flush;
          Report.Table.pct t.Runtime.Trial.pct_lock;
          Printf.sprintf "%.1fM" p_ops;
          Report.Table.pct p_free;
        ])
    paper_tab1;
  print_string (Report.Table.render table);
  let f48 = (first_trial (cfg ~smr:"debra" ~threads:48 ())).Runtime.Trial.pct_free in
  let f192 = (first_trial (cfg ~smr:"debra" ~threads:192 ())).Runtime.Trial.pct_free in
  note "Shape checks (paper Tab 1):";
  shape_check ~what:"%free grows steeply from 1 to 4 sockets" ~paper:(59.5 /. 11.5)
    ~measured:(ratio f192 f48)

(* ------------------------------------------------------------------ *)
(* Figure 3: individual free calls, batch vs amortized.               *)
(* ------------------------------------------------------------------ *)
let fig3 () =
  section "Figure 3: timelines of individual free calls, batch vs amortized (192 threads)";
  let batch = first_trial (cfg ~smr:"debra" ~threads:192 ~timeline:true ()) in
  let af = first_trial (cfg ~smr:"debra_af" ~threads:192 ~timeline:true ()) in
  print_timelines "(a) batch free" batch;
  print_timelines "(b) amortized free" af;
  let long t = Simcore.Histogram.count_above t.Runtime.Trial.free_hist 65536 in
  note "free calls > ~65us: batch %d vs amortized %d" (long batch) (long af);
  shape_check ~what:"batch free has many more high-latency free calls" ~paper:10.
    ~measured:(ratio (float_of_int (1 + long batch)) (float_of_int (1 + long af)))

(* ------------------------------------------------------------------ *)
(* Table 2: amortized vs batch free at 192 threads.                   *)
(* ------------------------------------------------------------------ *)
let tab2 () =
  section "Table 2: amortized free vs batch free (ABtree, DEBRA, JEmalloc, 192 threads)";
  let batch = first_trial (cfg ~smr:"debra" ~threads:192 ()) in
  let af = first_trial (cfg ~smr:"debra_af" ~threads:192 ()) in
  let table = Report.Table.create [ "approach"; "ops/s"; "freed"; "% free"; "% flush"; "% lock" ] in
  let row name (t : Runtime.Trial.t) =
    Report.Table.add_row table
      [
        name;
        Report.Table.mops t.Runtime.Trial.throughput;
        Report.Table.count t.Runtime.Trial.freed;
        Report.Table.pct t.Runtime.Trial.pct_free;
        Report.Table.pct t.Runtime.Trial.pct_flush;
        Report.Table.pct t.Runtime.Trial.pct_lock;
      ]
  in
  row "JE batch" batch;
  row "JE amortized" af;
  print_string (Report.Table.render table);
  note "Paper: JE batch 43.4M ops/s (59.5/58.8/39.8), JE amortized 111.3M (19.2/17.6/5.5)";
  note "Shape checks (paper Tab 2):";
  shape_check ~what:"amortized free throughput gain" ~paper:2.56
    ~measured:(ratio af.Runtime.Trial.throughput batch.Runtime.Trial.throughput);
  shape_check ~what:"amortized frees more objects (higher throughput)" ~paper:2.56
    ~measured:(ratio (float_of_int af.Runtime.Trial.freed) (float_of_int batch.Runtime.Trial.freed));
  shape_check ~what:"lock time collapses under AF" ~paper:(39.8 /. 5.5)
    ~measured:(ratio batch.Runtime.Trial.pct_lock (Float.max 0.1 af.Runtime.Trial.pct_lock))

(* ------------------------------------------------------------------ *)
(* Figure 4: garbage per epoch, batch vs amortized.                   *)
(* ------------------------------------------------------------------ *)
let fig4 () =
  section "Figure 4: unreclaimed garbage per epoch, batch (upper) vs amortized (lower)";
  let batch = first_trial (cfg ~smr:"debra" ~threads:192 ()) in
  let af = first_trial (cfg ~smr:"debra_af" ~threads:192 ()) in
  print_garbage "batch" batch;
  print_garbage "amortized" af;
  shape_check ~what:"AF smooths garbage peaks" ~paper:0.5
    ~measured:
      (ratio (float_of_int af.Runtime.Trial.peak_epoch_garbage)
         (float_of_int (max 1 batch.Runtime.Trial.peak_epoch_garbage)))

(* ------------------------------------------------------------------ *)
(* Table 3: TCmalloc and MImalloc, batch vs amortized.                *)
(* ------------------------------------------------------------------ *)
let tab3 () =
  section "Table 3: additional allocators, batch vs amortized (192 threads)";
  let table = Report.Table.create [ "approach"; "ops/s"; "freed"; "% free"; "paper ops/s" ] in
  let row name alloc smr paper =
    let t = first_trial (cfg ~alloc ~smr ~threads:192 ()) in
    Report.Table.add_row table
      [
        name;
        Report.Table.mops t.Runtime.Trial.throughput;
        Report.Table.count t.Runtime.Trial.freed;
        Report.Table.pct t.Runtime.Trial.pct_free;
        paper;
      ];
    t
  in
  let tc_b = row "TC batch" "tcmalloc" "debra" "25.7M" in
  let tc_a = row "TC amortized" "tcmalloc" "debra_af" "83.5M" in
  let mi_b = row "MI batch" "mimalloc" "debra" "104M" in
  let mi_a = row "MI amortized" "mimalloc" "debra_af" "95.0M" in
  print_string (Report.Table.render table);
  note "Shape checks (paper Tab 3):";
  shape_check ~what:"TCmalloc: AF helps" ~paper:3.25
    ~measured:(ratio tc_a.Runtime.Trial.throughput tc_b.Runtime.Trial.throughput);
  let mi_ratio = ratio mi_a.Runtime.Trial.throughput mi_b.Runtime.Trial.throughput in
  note "  %-52s paper 0.91x  measured %.2fx  [%s]"
    "MImalloc: AF gives no real improvement (sidesteps RBF)" mi_ratio
    (if mi_ratio < 1.15 then "SHAPE OK" else "SHAPE MISMATCH");
  let je_b = first_trial (cfg ~smr:"debra" ~threads:192 ()) in
  shape_check ~what:"MImalloc batch beats JEmalloc batch" ~paper:2.4
    ~measured:(ratio mi_b.Runtime.Trial.throughput je_b.Runtime.Trial.throughput);
  shape_check ~what:"TCmalloc batch is the slowest batch allocator" ~paper:0.59
    ~measured:(ratio tc_b.Runtime.Trial.throughput je_b.Runtime.Trial.throughput)

(* ------------------------------------------------------------------ *)
(* Figures 5-10 + Table 4: the Token-EBR development.                 *)
(* ------------------------------------------------------------------ *)
let token_variants =
  [ ("naive", "token-naive"); ("pass-first", "token-passfirst"); ("periodic", "token"); ("amortized", "token_af") ]

let fig5 () =
  section "Figure 5: Naive Token-EBR, throughput and peak memory vs DEBRA";
  sweep_chart ~title:"(a) throughput"
    ~series_of:
      [
        ("token-naive", fun n -> cfg ~smr:"token-naive" ~threads:n ());
        ("debra", fun n -> cfg ~smr:"debra" ~threads:n ());
      ]
    ();
  memory_chart ~title:"(b) peak memory"
    ~series_of:
      [
        ("token-naive", fun n -> cfg ~smr:"token-naive" ~threads:n ());
        ("debra", fun n -> cfg ~smr:"debra" ~threads:n ());
      ]
    ();
  let naive = first_trial (cfg ~smr:"token-naive" ~threads:192 ()) in
  let debra = first_trial (cfg ~smr:"debra" ~threads:192 ()) in
  note "Shape checks (paper Fig 5):";
  shape_check ~what:"naive token looks faster (it barely reclaims)" ~paper:1.7
    ~measured:(ratio naive.Runtime.Trial.throughput debra.Runtime.Trial.throughput);
  shape_check ~what:"...but leaves far more unreclaimed garbage" ~paper:10.
    ~measured:
      (ratio (float_of_int (1 + naive.Runtime.Trial.end_garbage))
         (float_of_int (1 + debra.Runtime.Trial.end_garbage)))

let fig6_9 () =
  section "Figures 6-9: timelines and garbage for the Token-EBR variants (192 threads)";
  List.iter
    (fun (label, smr) ->
      let t = first_trial (cfg ~smr ~threads:192 ~timeline:true ()) in
      note "--- %s (Fig %s) ---" label
        (match label with
        | "naive" -> "6"
        | "pass-first" -> "7"
        | "periodic" -> "8"
        | _ -> "9");
      print_timelines label t;
      print_garbage label t)
    token_variants

let fig10_tab4 () =
  section "Figure 10 + Table 4: Token-EBR variants";
  sweep_chart ~title:"Fig 10a: throughput"
    ~series_of:
      (List.map (fun (label, smr) -> (label, fun n -> cfg ~smr ~threads:n ())) token_variants)
    ();
  memory_chart ~title:"Fig 10b: peak memory"
    ~series_of:
      (List.map (fun (label, smr) -> (label, fun n -> cfg ~smr ~threads:n ())) token_variants)
    ();
  let table = Report.Table.create [ "algorithm"; "ops/s"; "% free"; "freed"; "paper ops/s"; "paper %free" ] in
  let paper = [ ("naive", "73.7M", "3.3"); ("pass-first", "52.4M", "45.4"); ("periodic", "54.4M", "47.1"); ("amortized", "123.7M", "14.7") ] in
  let results =
    List.map
      (fun (label, smr) ->
        let t = first_trial (cfg ~smr ~threads:192 ()) in
        let p_ops, p_free =
          match List.assoc_opt label (List.map (fun (l, a, b) -> (l, (a, b))) paper) with
          | Some (a, b) -> (a, b)
          | None -> ("?", "?")
        in
        Report.Table.add_row table
          [
            label;
            Report.Table.mops t.Runtime.Trial.throughput;
            Report.Table.pct t.Runtime.Trial.pct_free;
            Report.Table.count t.Runtime.Trial.freed;
            p_ops;
            p_free;
          ];
        (label, t))
      token_variants
  in
  print_string (Report.Table.render table);
  let get l = List.assoc l results in
  note "Shape checks (paper Tab 4):";
  shape_check ~what:"naive frees almost nothing vs periodic" ~paper:(7. /. 118.)
    ~measured:
      (ratio (float_of_int (get "naive").Runtime.Trial.freed)
         (float_of_int (max 1 (get "periodic").Runtime.Trial.freed)));
  shape_check ~what:"amortized beats periodic" ~paper:2.27
    ~measured:
      (ratio (get "amortized").Runtime.Trial.throughput (get "periodic").Runtime.Trial.throughput);
  shape_check ~what:"amortized frees the most objects" ~paper:(323. /. 118.)
    ~measured:
      (ratio (float_of_int (get "amortized").Runtime.Trial.freed)
         (float_of_int (max 1 (get "periodic").Runtime.Trial.freed)))

(* ------------------------------------------------------------------ *)
(* Experiment 1 (Fig 11a): token_af vs the field.                     *)
(* ------------------------------------------------------------------ *)
let fig11a ?(ds = "abtree") ?(topology = Simcore.Topology.intel_192t) ?(counts = thread_counts) () =
  section
    (Printf.sprintf "Figure 11a / Experiment 1: all reclaimers across threads (%s, %s)" ds
       topology.Simcore.Topology.name);
  let table = Report.Table.create ("smr \\ n" :: List.map string_of_int counts) in
  let results =
    List.map
      (fun smr ->
        let per_n =
          List.map (fun n -> (n, mean_throughput (cfg ~ds ~smr ~threads:n ~topology ()))) counts
        in
        Report.Table.add_row table
          (smr :: List.map (fun (_, v) -> Report.Table.mops v) per_n);
        (smr, per_n))
      all_reclaimers
  in
  print_string (Report.Table.render table);
  let at192 smr = List.assoc (List.hd (List.rev counts)) (List.assoc smr results) in
  note "Shape checks (paper Fig 11a, at the highest thread count):";
  shape_check ~what:"token_af beats nbr+ (paper ~1.7x avg)" ~paper:1.7
    ~measured:(ratio (at192 "token_af") (at192 "nbr+"));
  shape_check ~what:"token_af beats hazard by a large factor (7-9x)" ~paper:8.
    ~measured:(ratio (at192 "token_af") (at192 "hazard"));
  shape_check ~what:"token_af beats leaking (none)" ~paper:1.35
    ~measured:(ratio (at192 "token_af") (at192 "none"));
  shape_check ~what:"debra_af also beats none" ~paper:1.2
    ~measured:(ratio (at192 "debra_af") (at192 "none"))

(* ------------------------------------------------------------------ *)
(* Experiment 2 (Fig 11b): ORIG vs AF for all ten algorithms.         *)
(* ------------------------------------------------------------------ *)
let orig_algorithms = [ "debra"; "hazard"; "he"; "ibr"; "nbr"; "nbr+"; "qsbr"; "rcu"; "token"; "wfe" ]

let fig11b ?(ds = "abtree") ?(topology = Simcore.Topology.intel_192t) ?(threads = 192) () =
  section
    (Printf.sprintf "Figure 11b / Experiment 2: ORIG vs AF at %d threads (%s, %s)" threads ds
       topology.Simcore.Topology.name);
  let table = Report.Table.create [ "algorithm"; "ORIG ops/s"; "AF ops/s"; "AF/ORIG" ] in
  let improved = ref 0 in
  List.iter
    (fun smr ->
      let orig = mean_throughput (cfg ~ds ~smr ~threads ~topology ()) in
      let af = mean_throughput (cfg ~ds ~smr:(smr ^ "_af") ~threads ~topology ()) in
      if af > orig then incr improved;
      Report.Table.add_row table
        [ smr; Report.Table.mops orig; Report.Table.mops af; Printf.sprintf "%.2fx" (ratio af orig) ])
    orig_algorithms;
  print_string (Report.Table.render table);
  note "Paper: AF improves 9 of 10 algorithms (up to 2.3x); he does not improve.";
  note "Measured: AF improves %d of 10." !improved

(* ------------------------------------------------------------------ *)
(* Appendix C (Fig 12): ORIG vs AF across thread counts.              *)
(* ------------------------------------------------------------------ *)
let fig12 ?(ds = "abtree") () =
  section (Printf.sprintf "Figure 12 / Appendix C: ORIG vs AF across threads (%s)" ds);
  let counts = if quick then [ 48; 192 ] else [ 24; 48; 96; 192 ] in
  let table = Report.Table.create ("algorithm" :: List.concat_map (fun n -> [ Printf.sprintf "ORIG@%d" n; Printf.sprintf "AF@%d" n ]) counts) in
  List.iter
    (fun smr ->
      let cells =
        List.concat_map
          (fun n ->
            [
              Report.Table.mops (mean_throughput (cfg ~ds ~smr ~threads:n ()));
              Report.Table.mops (mean_throughput (cfg ~ds ~smr:(smr ^ "_af") ~threads:n ()));
            ])
          counts
      in
      Report.Table.add_row table (smr :: cells))
    orig_algorithms;
  print_string (Report.Table.render table)

(* Appendix D: the DGT external BST. *)
let fig13 () = fig12 ~ds:"dgt" ()
let fig14 () = fig11a ~ds:"dgt" ()

(* Appendix E: other machines. *)
let fig15 () =
  let topology = Simcore.Topology.intel_144c in
  let counts = if quick then [ 36; 144 ] else [ 18; 36; 72; 108; 144 ] in
  fig11a ~topology ~counts ();
  fig11b ~topology ~threads:144 ()

let fig16 () =
  let topology = Simcore.Topology.amd_256c in
  let counts = if quick then [ 64; 256 ] else [ 32; 64; 128; 192; 256 ] in
  fig11a ~topology ~counts ();
  fig11b ~topology ~threads:256 ()

(* ------------------------------------------------------------------ *)
(* Appendix F (Fig 17): the visible free calls.                       *)
(* ------------------------------------------------------------------ *)
let fig17 () =
  section "Figure 17 / Appendix F: free calls visible at >= 0.1 ms (192 threads)";
  let batch = first_trial (cfg ~smr:"debra" ~threads:192 ()) in
  let af = first_trial (cfg ~smr:"debra_af" ~threads:192 ()) in
  let visible t = Simcore.Histogram.count_above t.Runtime.Trial.free_hist 131072 in
  let p99 t = Simcore.Histogram.percentile t.Runtime.Trial.free_hist 99.9 in
  note "batch:     %8d visible calls, p99.9 %7dns, max %dns" (visible batch)
    (p99 batch) (Simcore.Histogram.max_value batch.Runtime.Trial.free_hist);
  note "amortized: %8d visible calls, p99.9 %7dns, max %dns" (visible af) (p99 af)
    (Simcore.Histogram.max_value af.Runtime.Trial.free_hist);
  shape_check ~what:"batch has far more visible (>=0.1ms) free calls" ~paper:10.
    ~measured:(ratio (float_of_int (1 + visible batch)) (float_of_int (1 + visible af)))

(* ------------------------------------------------------------------ *)
(* Appendix G (Figs 18-29): DEBRA timelines per allocator.            *)
(* ------------------------------------------------------------------ *)
let fig_g () =
  section "Figures 18-29 / Appendix G: DEBRA timelines, JE/TC/MI at 48/96/192/240 threads";
  note "(240 threads oversubscribe the 192-thread machine: threads share CPUs and";
  note " are preempted for whole timeslices, stalling announcements.)";
  List.iter
    (fun alloc ->
      List.iter
        (fun n ->
          let t = first_trial (cfg ~smr:"debra" ~alloc ~threads:n ~timeline:true ()) in
          note "--- %s, %d threads: %s ops/s, %%free %.1f ---" alloc n
            (Report.Table.mops t.Runtime.Trial.throughput)
            t.Runtime.Trial.pct_free;
          print_timelines ~rows:8 (Printf.sprintf "%s/%d" alloc n) t)
        (if quick then [ 192 ] else [ 48; 96; 192; 240 ]))
    [ "jemalloc"; "tcmalloc"; "mimalloc" ]

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §5).                                          *)
(* ------------------------------------------------------------------ *)
let ablate_tcache () =
  section "Ablation: JEmalloc thread-cache capacity (DEBRA, 192 threads)";
  let table = Report.Table.create [ "tcache cap"; "batch ops/s"; "AF ops/s"; "AF/batch" ] in
  List.iter
    (fun cap ->
      let ac = { Alloc.Alloc_intf.default_config with Alloc.Alloc_intf.tcache_cap = cap } in
      let b = mean_throughput (cfg ~smr:"debra" ~threads:192 ~alloc_config:ac ()) in
      let a = mean_throughput (cfg ~smr:"debra_af" ~threads:192 ~alloc_config:ac ()) in
      Report.Table.add_row table
        [ string_of_int cap; Report.Table.mops b; Report.Table.mops a; Printf.sprintf "%.2fx" (ratio a b) ])
    [ 16; 48; 96; 192; 384 ];
  print_string (Report.Table.render table);
  note "Bigger caches absorb bigger batches: the RBF gap narrows as cap grows."

let ablate_af_drain () =
  section "Ablation: amortized-free drain rate (objects freed per op, token_af, 192 threads)";
  let table = Report.Table.create [ "drain k"; "ops/s"; "end garbage" ] in
  List.iter
    (fun k ->
      let t = first_trial (cfg ~smr:"token_af" ~threads:192 ~af_drain:k ()) in
      Report.Table.add_row table
        [
          string_of_int k;
          Report.Table.mops t.Runtime.Trial.throughput;
          Report.Table.count t.Runtime.Trial.end_garbage;
        ])
    [ 1; 2; 4; 8; 32 ];
  print_string (Report.Table.render table);
  note "Paper §7: the drain rate should match the structure's allocation rate (~1 for the ABtree)."

let ablate_token_period () =
  section "Ablation: Periodic Token-EBR check interval k (paper uses 100)";
  let table = Report.Table.create [ "k"; "batch ops/s"; "peak mem" ] in
  List.iter
    (fun k ->
      let t = first_trial (cfg ~smr:"token" ~threads:192 ~token_period:k ()) in
      Report.Table.add_row table
        [
          string_of_int k;
          Report.Table.mops t.Runtime.Trial.throughput;
          Report.Table.bytes t.Runtime.Trial.peak_mapped_bytes;
        ])
    [ 10; 100; 1000; 10000 ];
  print_string (Report.Table.render table)

let ablate_buffer () =
  section "Ablation: buffered-reclaimer batch size (nbr, 192 threads; paper: 32K at 5s scale)";
  let table = Report.Table.create [ "batch"; "ORIG ops/s"; "AF ops/s"; "AF/ORIG" ] in
  List.iter
    (fun b ->
      let orig = mean_throughput (cfg ~smr:"nbr" ~threads:192 ~buffer_size:b ()) in
      let af = mean_throughput (cfg ~smr:"nbr_af" ~threads:192 ~buffer_size:b ()) in
      Report.Table.add_row table
        [ string_of_int b; Report.Table.mops orig; Report.Table.mops af; Printf.sprintf "%.2fx" (ratio af orig) ])
    [ 64; 192; 384; 1024; 4096 ];
  print_string (Report.Table.render table);
  note "Bigger batches amortize pass costs but worsen the RBF hit that AF then repairs."

let ablate_alloc_fix () =
  section "Extension: fixing the allocator instead (footnotes 3-4 of the paper)";
  let table = Report.Table.create [ "allocator"; "batch ops/s"; "AF ops/s"; "AF/batch" ] in
  List.iter
    (fun alloc ->
      let b = mean_throughput (cfg ~smr:"debra" ~alloc ~threads:192 ()) in
      let a = mean_throughput (cfg ~smr:"debra_af" ~alloc ~threads:192 ()) in
      Report.Table.add_row table
        [ alloc; Report.Table.mops b; Report.Table.mops a; Printf.sprintf "%.2fx" (ratio a b) ])
    [ "jemalloc"; "jemalloc-ba"; "jemalloc-pool"; "mimalloc" ];
  print_string (Report.Table.render table);
  note "jemalloc-ba (batch-aware flushing, footnote 3) and jemalloc-pool";
  note "(VBR-style object pooling, footnote 4) both make batch free harmless:";
  note "AF's advantage should shrink to ~1x on them, as it does on MImalloc."

(* Extra (not part of the default regeneration): skewed workloads. *)
let ablate_zipf () =
  section "Extension: Zipf-skewed keys (theta=0.99) vs uniform (debra, 192 threads)";
  let table = Report.Table.create [ "distribution"; "batch ops/s"; "AF ops/s"; "AF/batch" ] in
  List.iter
    (fun (label, dist) ->
      let with_dist c = { c with Runtime.Config.key_dist = dist } in
      let b = mean_throughput (with_dist (cfg ~smr:"debra" ~threads:192 ())) in
      let a = mean_throughput (with_dist (cfg ~smr:"debra_af" ~threads:192 ())) in
      Report.Table.add_row table
        [ label; Report.Table.mops b; Report.Table.mops a; Printf.sprintf "%.2fx" (ratio a b) ])
    [ ("uniform", Runtime.Config.Uniform); ("zipf-0.99", Runtime.Config.Zipf 0.99) ];
  print_string (Report.Table.render table);
  note "Skew concentrates updates on hot leaves but the RBF mechanism (and";
  note "the AF fix) persists: batch disposes still overflow the thread cache."

(* Operation tail latency: batch frees ride inside unlucky operations, so
   the reclamation policy dominates p99.9 (cf. Mitake et al., the paper's
   related work on EBR and database tail latencies). *)
let latency () =
  section "Extension: operation latency percentiles (ABtree, 192 threads)";
  let table = Report.Table.create [ "smr"; "ops/s"; "p50"; "p99"; "p99.9"; "max" ] in
  List.iter
    (fun smr ->
      let t = first_trial (cfg ~smr ~threads:192 ()) in
      Report.Table.add_row table
        [
          smr;
          Report.Table.mops t.Runtime.Trial.throughput;
          Report.Table.count (Runtime.Trial.op_p t 50.);
          Report.Table.count (Runtime.Trial.op_p t 99.);
          Report.Table.count (Runtime.Trial.op_p t 99.9);
          Report.Table.count (Simcore.Histogram.max_value t.Runtime.Trial.op_hist);
        ])
    [ "debra"; "debra_af"; "token"; "token_af"; "none" ];
  print_string (Report.Table.render table);
  let batch = first_trial (cfg ~smr:"debra" ~threads:192 ()) in
  let af = first_trial (cfg ~smr:"debra_af" ~threads:192 ()) in
  shape_check ~what:"AF slashes p99.9 operation latency" ~paper:10.
    ~measured:
      (ratio
         (float_of_int (Runtime.Trial.op_p batch 99.9))
         (float_of_int (max 1 (Runtime.Trial.op_p af 99.9))))

let extras = [ ("ablate-zipf", ablate_zipf); ("latency", latency) ]

let all_figures =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("tab1", tab1);
    ("fig3", fig3);
    ("tab2", tab2);
    ("fig4", fig4);
    ("tab3", tab3);
    ("fig5", fig5);
    ("fig6-9", fig6_9);
    ("fig10+tab4", fig10_tab4);
    ("fig11a", fun () -> fig11a ());
    ("fig11b", fun () -> fig11b ());
    ("fig12", fun () -> fig12 ());
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("fig17", fig17);
    ("figG", fig_g);
    ("ablate-tcache", ablate_tcache);
    ("ablate-af", ablate_af_drain);
    ("ablate-k", ablate_token_period);
    ("ablate-batch", ablate_buffer);
    ("ablate-allocfix", ablate_alloc_fix);
  ]
