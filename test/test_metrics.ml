open Simcore

let test_inclusive_accounting () =
  (* Time inside a free call counts toward free_ns; inside a flush toward
     both; lock waits land in lock_ns regardless. *)
  let m = Metrics.create () in
  Metrics.add m ~in_free:false ~in_flush:false Metrics.Ds 100;
  Metrics.add m ~in_free:true ~in_flush:false Metrics.Alloc 10;
  Metrics.add m ~in_free:true ~in_flush:true Metrics.Flush 20;
  Metrics.add m ~in_free:true ~in_flush:true Metrics.Lock 30;
  Alcotest.(check int) "total" 160 m.Metrics.total_ns;
  Alcotest.(check int) "free inclusive" 60 m.Metrics.free_ns;
  Alcotest.(check int) "flush inclusive" 50 m.Metrics.flush_ns;
  Alcotest.(check int) "lock" 30 m.Metrics.lock_ns;
  Alcotest.(check int) "ds" 100 m.Metrics.ds_ns

let test_percentages () =
  let m = Metrics.create () in
  Metrics.add m ~in_free:true ~in_flush:false Metrics.Free 25;
  Metrics.add m ~in_free:false ~in_flush:false Metrics.Ds 75;
  Alcotest.(check (float 0.001)) "pct free" 25.0 (Metrics.pct_free m);
  Alcotest.(check (float 0.001)) "pct flush" 0.0 (Metrics.pct_flush m)

let test_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  a.Metrics.ops <- 10;
  b.Metrics.ops <- 5;
  Metrics.add a ~in_free:false ~in_flush:false Metrics.Ds 100;
  Metrics.add b ~in_free:false ~in_flush:false Metrics.Ds 50;
  Metrics.merge a b;
  Alcotest.(check int) "merged ops" 15 a.Metrics.ops;
  Alcotest.(check int) "merged total" 150 a.Metrics.total_ns

let test_copy_diff () =
  let m = Metrics.create () in
  m.Metrics.ops <- 100;
  m.Metrics.frees <- 7;
  Metrics.add m ~in_free:false ~in_flush:false Metrics.Ds 1000;
  let snap = Metrics.copy m in
  m.Metrics.ops <- 160;
  m.Metrics.frees <- 10;
  Metrics.add m ~in_free:false ~in_flush:false Metrics.Ds 500;
  let d = Metrics.diff ~before:snap ~after:m in
  Alcotest.(check int) "ops in window" 60 d.Metrics.ops;
  Alcotest.(check int) "frees in window" 3 d.Metrics.frees;
  Alcotest.(check int) "time in window" 500 d.Metrics.total_ns;
  (* The snapshot is independent of later mutation. *)
  Alcotest.(check int) "snapshot frozen" 100 snap.Metrics.ops

let test_scheduler_counters_merge_diff () =
  (* The yield counters follow the same merge/diff discipline as
     the allocator counters. *)
  let a = Metrics.create () and b = Metrics.create () in
  a.Metrics.yields <- 10;
  a.Metrics.elided_yields <- 4;
  b.Metrics.yields <- 1;
  b.Metrics.elided_yields <- 2;
  Metrics.merge a b;
  Alcotest.(check int) "merged yields" 11 a.Metrics.yields;
  Alcotest.(check int) "merged elided" 6 a.Metrics.elided_yields;
  let snap = Metrics.copy a in
  a.Metrics.yields <- 20;
  a.Metrics.elided_yields <- 9;
  let d = Metrics.diff ~before:snap ~after:a in
  Alcotest.(check int) "yields in window" 9 d.Metrics.yields;
  Alcotest.(check int) "elided in window" 3 d.Metrics.elided_yields

let test_pct_zero_total () =
  let m = Metrics.create () in
  Alcotest.(check (float 0.001)) "no division by zero" 0.0 (Metrics.pct_free m)

let suite =
  ( "metrics",
    [
      Helpers.quick "inclusive_accounting" test_inclusive_accounting;
      Helpers.quick "percentages" test_percentages;
      Helpers.quick "merge" test_merge;
      Helpers.quick "copy_diff" test_copy_diff;
      Helpers.quick "scheduler_counters_merge_diff" test_scheduler_counters_merge_diff;
      Helpers.quick "pct_zero_total" test_pct_zero_total;
    ] )
