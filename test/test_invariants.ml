(* Whole-stack invariant fuzzing: random (reclaimer, structure, allocator,
   thread count) configurations must all produce trials whose accounting is
   internally consistent and, for grace-period reclaimers, safe. *)

let config_gen =
  QCheck.Gen.(
    let* smr =
      oneofl
        [ "debra"; "debra_af"; "qsbr"; "token"; "token_af"; "token-naive"; "token-passfirst";
          "hazard"; "he"; "wfe"; "ibr"; "rcu"; "nbr"; "nbr+"; "hyaline"; "none" ]
    in
    let* ds = oneofl [ "abtree"; "occtree"; "dgt"; "skiplist" ] in
    let* alloc = oneofl [ "jemalloc"; "tcmalloc"; "mimalloc"; "jemalloc-ba"; "jemalloc-pool" ] in
    let* threads = int_range 2 8 in
    let* key_range = oneofl [ 256; 1024 ] in
    let* seed = int_range 1 1000 in
    return (smr, ds, alloc, threads, key_range, seed))

let config_arb =
  QCheck.make
    ~print:(fun (smr, ds, alloc, n, k, s) ->
      Printf.sprintf "%s/%s/%s n=%d k=%d seed=%d" smr ds alloc n k s)
    config_gen

let check_trial (smr, ds, alloc, threads, key_range, seed) =
  let cfg =
    {
      Runtime.Config.default with
      Runtime.Config.smr;
      ds;
      alloc;
      threads;
      key_range;
      warmup_ns = 100_000;
      duration_ns = 1_500_000;
      grace_ns = 1_500_000;
      trials = 1;
      validate = true;
    }
  in
  let t = Runtime.Runner.run_trial cfg ~seed in
  let ok msg cond = if not cond then QCheck.Test.fail_reportf "%s (%s)" msg t.Runtime.Trial.config_label in
  ok "made progress" (t.Runtime.Trial.ops > 0);
  ok "throughput consistent with ops" (t.Runtime.Trial.throughput > 0.);
  ok "size bounded by range" (t.Runtime.Trial.final_size <= key_range);
  (* freed/retired are measured-window deltas; backlog retired during
     warmup may be freed inside the window, so freed can exceed retired by
     at most that backlog — bounded by everything allocated before and
     during the run. *)
  ok "counters non-negative"
    (t.Runtime.Trial.freed >= 0 && t.Runtime.Trial.retired >= 0 && t.Runtime.Trial.allocs >= 0);
  ok "percentages within bounds"
    (t.Runtime.Trial.pct_free >= 0. && t.Runtime.Trial.pct_free <= 100.
    && t.Runtime.Trial.pct_lock >= 0.
    && t.Runtime.Trial.pct_lock <= 100.);
  ok "flush time within free time is sane" (t.Runtime.Trial.pct_flush <= t.Runtime.Trial.pct_free +. 1e-6);
  ok "garbage accounting non-negative" (t.Runtime.Trial.end_garbage >= 0);
  ok "no grace-period violations" (t.Runtime.Trial.violations = 0);
  ok "peak memory covers live memory"
    (t.Runtime.Trial.peak_mapped_bytes >= t.Runtime.Trial.peak_live_bytes);
  true

let prop_trial_invariants =
  Helpers.prop ~count:40 "whole-stack trial invariants hold for random configs" config_arb
    check_trial

let suite = ("invariants", [ prop_trial_invariants ])
