(* A miniature Experiment 1: compare every reclaimer on the same workload.

     dune exec examples/reclaimer_shootout.exe -- [threads] [ds]

   Defaults to 96 threads on the ABtree. Sorts the field by throughput and
   flags the amortized-free variants. *)

let () =
  let threads = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 96 in
  let ds = if Array.length Sys.argv > 2 then Sys.argv.(2) else "abtree" in
  let config =
    {
      Runtime.Config.default with
      Runtime.Config.ds;
      threads;
      key_range = 8192;
      duration_ns = 15_000_000;
      grace_ns = 15_000_000;
      trials = 1;
    }
  in
  let reclaimers =
    [ "token_af"; "debra_af"; "nbr+"; "nbr"; "ibr"; "rcu"; "qsbr"; "debra"; "token"; "wfe"; "he"; "hazard"; "none" ]
  in
  Printf.printf "Reclaimer shootout: %s, %d threads, 50%% insert / 50%% delete\n\n%!" ds threads;
  let results =
    List.map
      (fun smr ->
        let t = Runtime.Runner.run_trial { config with Runtime.Config.smr } ~seed:5 in
        Printf.printf "  %-18s done\n%!" smr;
        (smr, t))
      reclaimers
  in
  let sorted =
    List.sort
      (fun (_, a) (_, b) -> compare b.Runtime.Trial.throughput a.Runtime.Trial.throughput)
      results
  in
  Printf.printf "\n%-18s %10s %8s %8s %12s\n" "reclaimer" "ops/s" "%free" "%lock" "peak memory";
  Printf.printf "%s\n" (String.make 60 '-');
  List.iter
    (fun (smr, (t : Runtime.Trial.t)) ->
      Printf.printf "%-18s %10s %8.1f %8.1f %12s\n" smr
        (Report.Table.mops t.Runtime.Trial.throughput)
        t.Runtime.Trial.pct_free t.Runtime.Trial.pct_lock
        (Report.Table.bytes t.Runtime.Trial.peak_mapped_bytes))
    sorted
