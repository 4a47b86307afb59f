(* Protocol-level properties that the paper's analysis rests on:
   - Naive Token-EBR serializes reclamation (no two batch frees overlap);
   - time accounting is conserved (a thread's clock equals its attributed
     time);
   - the free policy conserves objects under arbitrary dispose/tick
     interleavings. *)

open Simcore

(* Drive a retire-heavy workload (each op allocates and retires a burst of
   objects) so token bags are big enough to produce real batch frees. *)
let collect_reclaim_events ?(per_op = 60) smr_name =
  let ctx, sched = Helpers.make_ctx ~n:4 ~mode:Smr.Free_policy.Batch ~validate:false () in
  let smr = Smr.Smr_registry.make smr_name ctx in
  let alloc = ctx.Smr.Smr_intf.alloc in
  let events = ref [] in
  Array.iter
    (fun (th : Sched.thread) ->
      th.Sched.hooks.Sched.on_reclaim_event <-
        (fun ~start ~stop ~count:_ -> events := (th.Sched.tid, start, stop) :: !events);
      Sched.spawn sched th (fun th ->
          for _ = 1 to 800 do
            smr.Smr.Smr_intf.begin_op th;
            Sched.work th Metrics.Ds 500;
            for _ = 1 to per_op do
              smr.Smr.Smr_intf.retire th (alloc.Alloc.Alloc_intf.malloc th 240)
            done;
            smr.Smr.Smr_intf.end_op th;
            Sched.checkpoint th
          done))
    (Sched.threads sched);
  Sched.run sched;
  (sched, List.rev !events)

let overlapping (t1, a1, b1) (t2, a2, b2) = t1 <> t2 && a1 < b2 && a2 < b1

(* Total pairwise overlap divided by total event duration: 0 = perfectly
   serialized reclamation, higher = concurrent reclamation. *)
let overlap_fraction events =
  let overlap (_, a1, b1) (_, a2, b2) = max 0 (min b1 b2 - max a1 a2) in
  let total = List.fold_left (fun acc (_, a, b) -> acc + (b - a)) 0 events in
  let shared = ref 0 in
  List.iteri
    (fun i e1 ->
      List.iteri (fun j e2 -> if i < j && overlapping e1 e2 then shared := !shared + overlap e1 e2) events)
    events;
  if total = 0 then 0. else float_of_int !shared /. float_of_int total

let test_naive_token_serializes () =
  let _, all_events = collect_reclaim_events "token-naive" in
  let events = List.filter (fun (_, a, b) -> b - a >= 1000) all_events in
  Alcotest.(check bool) "several reclamation events happened" true (List.length events > 4);
  (* Free-before-pass: reclamation is (near-)serialized. The bound is not
     exactly zero because a token pass can land one lock-to-lock segment
     "in the past" of a lagging thread's clock. *)
  let f = overlap_fraction events in
  if f > 0.05 then Alcotest.failf "naive token reclamation overlaps %.1f%%" (100. *. f)

let test_passfirst_token_overlaps () =
  (* Pass-first exists precisely to let threads free concurrently: its
     overlap fraction must be far above naive's. *)
  let _, naive_events = collect_reclaim_events "token-naive" in
  let _, pf_events = collect_reclaim_events "token-passfirst" in
  let keep = List.filter (fun (_, a, b) -> b - a >= 1000) in
  let naive = overlap_fraction (keep naive_events) in
  let pf = overlap_fraction (keep pf_events) in
  Alcotest.(check bool)
    (Printf.sprintf "pass-first overlaps (%.2f) far more than naive (%.2f)" pf naive)
    true
    (pf > 0.1 && pf > (4. *. naive) +. 0.05)

let test_clock_equals_attributed_time () =
  let sched, _ = collect_reclaim_events "debra" in
  Array.iter
    (fun (th : Sched.thread) ->
      Alcotest.(check int)
        (Printf.sprintf "thread %d: clock = attributed ns" th.Sched.tid)
        th.Sched.clock th.Sched.metrics.Metrics.total_ns)
    (Sched.threads sched)

(* Random interleavings of dispose and tick conserve objects: everything
   disposed is eventually freed, exactly once. *)
let prop_policy_conservation =
  Helpers.prop ~count:60 "free policy conserves objects"
    QCheck.(pair (int_range 1 4) (list (int_range 0 12)))
    (fun (drain, batches) ->
      Helpers.in_sim (fun sched th ->
          let alloc = Alloc.Registry.make "jemalloc" sched in
          let policy =
            Smr.Free_policy.create ~mode:(Smr.Free_policy.Amortized drain) ~alloc
              ~n:(Sched.n_threads sched) ()
          in
          let disposed = ref 0 in
          List.iter
            (fun k ->
              let bag = Vec.create () in
              for _ = 1 to k do
                Vec.push bag (alloc.Alloc.Alloc_intf.malloc th 64)
              done;
              disposed := !disposed + k;
              Smr.Free_policy.dispose policy th bag;
              Smr.Free_policy.tick policy th)
            batches;
          (* Drain to empty. *)
          while Smr.Free_policy.pending policy th.Sched.tid > 0 do
            Smr.Free_policy.tick policy th
          done;
          th.Sched.metrics.Metrics.frees = !disposed
          && Alloc.Obj_table.live_count alloc.Alloc.Alloc_intf.table = 0))

(* The whole-trial determinism property, across reclaimers. *)
let prop_trial_determinism =
  Helpers.prop ~count:8 "whole trials are deterministic"
    (QCheck.oneofl [ "debra"; "token_af"; "hazard"; "nbr" ])
    (fun smr ->
      let cfg =
        {
          Runtime.Config.default with
          Runtime.Config.smr;
          threads = 6;
          key_range = 512;
          warmup_ns = 100_000;
          duration_ns = 1_000_000;
          grace_ns = 1_000_000;
          trials = 1;
        }
      in
      let a = Runtime.Runner.run_trial cfg ~seed:7 in
      let b = Runtime.Runner.run_trial cfg ~seed:7 in
      a.Runtime.Trial.ops = b.Runtime.Trial.ops
      && a.Runtime.Trial.freed = b.Runtime.Trial.freed
      && a.Runtime.Trial.epochs = b.Runtime.Trial.epochs)

let suite =
  ( "protocol",
    [
      Helpers.quick "naive_token_serializes" test_naive_token_serializes;
      Helpers.quick "passfirst_token_overlaps" test_passfirst_token_overlaps;
      Helpers.quick "clock_equals_attributed_time" test_clock_equals_attributed_time;
      prop_policy_conservation;
      prop_trial_determinism;
    ] )
