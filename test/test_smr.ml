(* Reclaimer protocol tests: a miniature workload drives each algorithm
   inside the simulator with the grace-period validator armed, and the
   structural behaviours the paper relies on are asserted: epochs advance,
   garbage is bounded, AF defers, the token circulates, buffered reclaimers
   pass at their threshold, and a deliberately unsafe reclaimer is caught. *)

open Simcore

(* Drive [ops_per_thread] operations on a shared ABtree under [smr_name]. *)
let drive ?(n = 4) ?(ops_per_thread = 3000) ?(mode = Smr.Free_policy.Batch) smr_name =
  let ctx, sched = Helpers.make_ctx ~n ~mode () in
  let smr = Smr.Smr_registry.make ~buffer_size:64 smr_name ctx in
  let ds_ctx =
    {
      Ds.Ds_intf.alloc = ctx.Smr.Smr_intf.alloc;
      retire = smr.Smr.Smr_intf.retire;
      node_cost = 10;
    }
  in
  let ds = ref None in
  Sched.spawn sched (Sched.thread sched 0) (fun th ->
      ds := Some (Ds.Abtree.make ds_ctx th));
  Sched.run sched;
  let ds = Option.get !ds in
  Array.iter
    (fun (th : Sched.thread) ->
      Sched.spawn sched th (fun th ->
          for _ = 1 to ops_per_thread do
            (match ctx.Smr.Smr_intf.safety with
            | Some s -> Smr.Safety.note_op_begin s ~tid:th.Sched.tid ~time:(Sched.now th)
            | None -> ());
            smr.Smr.Smr_intf.begin_op th;
            let key = Rng.int_below th.Sched.rng 256 in
            (Sched.atomically th (fun () ->
                 if Rng.bool th.Sched.rng then ignore (ds.Ds.Ds_intf.insert th key)
                 else ignore (ds.Ds.Ds_intf.delete th key)));
            smr.Smr.Smr_intf.end_op th;
            Sched.checkpoint th
          done;
          match ctx.Smr.Smr_intf.safety with
          | Some s -> Smr.Safety.note_quiescent s ~tid:th.Sched.tid
          | None -> ()))
    (Sched.threads sched);
  Sched.run sched;
  (ctx, sched, smr, ds)

let grace_period_names =
  [ "debra"; "qsbr"; "token"; "token-naive"; "token-passfirst"; "rcu"; "ibr"; "hazard" ]

let safety_test name =
  Helpers.quick ("safety_" ^ name) (fun () ->
      let ctx, _, smr, _ = drive name in
      ignore smr;
      match ctx.Smr.Smr_intf.safety with
      | Some s ->
          let v = Smr.Safety.violations s in
          (match v with
          | [] -> ()
          | x :: _ -> Alcotest.failf "%d violations, first: %a" (List.length v) Smr.Safety.pp_violation x);
          Alcotest.(check bool) "frees were actually checked" true (Smr.Safety.checked_frees s > 0)
      | None -> Alcotest.fail "validator missing")

let safety_test_af name =
  Helpers.quick ("safety_" ^ name ^ "_af") (fun () ->
      let ctx, _, _, _ = drive ~mode:(Smr.Free_policy.Amortized 1) name in
      match ctx.Smr.Smr_intf.safety with
      | Some s -> Alcotest.(check int) "no violations under AF" 0 (Smr.Safety.violation_count s)
      | None -> Alcotest.fail "validator missing")

let test_unsafe_immediate_caught () =
  let ctx, _, _, _ = drive ~n:4 ~ops_per_thread:500 "unsafe-immediate" in
  match ctx.Smr.Smr_intf.safety with
  | Some s ->
      Alcotest.(check bool) "the validator catches free-at-retire" true
        (Smr.Safety.violation_count s > 0)
  | None -> Alcotest.fail "validator missing"

let test_leak_freedom name =
  Helpers.quick ("leak_freedom_" ^ name) (fun () ->
      let ctx, _, smr, ds = drive name in
      let live = Alloc.Obj_table.live_count ctx.Smr.Smr_intf.alloc.Alloc.Alloc_intf.table in
      Alcotest.(check int) "live = reachable + unreclaimed"
        (ds.Ds.Ds_intf.node_count () + smr.Smr.Smr_intf.total_garbage ())
        live)

let test_epochs_advance () =
  let _, sched, _, _ = drive "debra" in
  let total = Array.fold_left (fun acc (th : Sched.thread) -> acc + th.Sched.metrics.Metrics.epochs) 0 (Sched.threads sched) in
  Alcotest.(check bool) "debra advanced epochs" true (total > 3)

let test_debra_reclaims () =
  let _, sched, _, _ = drive "debra" in
  let freed = Array.fold_left (fun acc (th : Sched.thread) -> acc + th.Sched.metrics.Metrics.frees) 0 (Sched.threads sched) in
  Alcotest.(check bool) "objects were freed" true (freed > 100)

let test_none_never_frees () =
  let _, sched, smr, _ = drive "none" in
  let freed = Array.fold_left (fun acc (th : Sched.thread) -> acc + th.Sched.metrics.Metrics.frees) 0 (Sched.threads sched) in
  Alcotest.(check int) "leaky reclaimer frees nothing" 0 freed;
  Alcotest.(check bool) "garbage only grows" true (smr.Smr.Smr_intf.total_garbage () > 0)

let test_token_rounds () =
  let _, sched, _, _ = drive "token" in
  (* Every thread must have received the token many times. *)
  Array.iter
    (fun (th : Sched.thread) ->
      Alcotest.(check bool) "token visited this thread" true
        (th.Sched.metrics.Metrics.epochs > 10))
    (Sched.threads sched)

let test_token_af_defers () =
  let ctx, _, _, _ = drive ~mode:(Smr.Free_policy.Amortized 1) "token" in
  (* Under AF the policy's freeable lists were used (splices happened); this
     is observable as pending counts that rose and drained. *)
  Alcotest.(check bool) "freeable lists mostly drained" true
    (Smr.Free_policy.total_pending ctx.Smr.Smr_intf.policy < 100_000)

let test_buffered_pass_at_threshold () =
  Helpers.in_sim ~n:1 (fun sched th ->
      let alloc = Alloc.Registry.make "jemalloc" sched in
      let policy = Smr.Free_policy.create ~mode:Smr.Free_policy.Batch ~alloc ~n:1 () in
      let ctx = { Smr.Smr_intf.sched; alloc; policy; safety = None } in
      let smr = Smr.Buffered.he ~buffer_size:10 ctx in
      (* Retire 10 objects: a pass fires at the threshold but frees the
         (empty) previous generation; 10 more trigger the second pass which
         frees the first 10. *)
      let retire_batch () =
        for _ = 1 to 10 do
          let h = alloc.Alloc.Alloc_intf.malloc th 64 in
          smr.Smr.Smr_intf.retire th h
        done;
        smr.Smr.Smr_intf.end_op th
      in
      retire_batch ();
      Alcotest.(check int) "first pass frees nothing (two generations)" 0
        th.Sched.metrics.Metrics.frees;
      Alcotest.(check int) "one pass happened" 1 th.Sched.metrics.Metrics.epochs;
      retire_batch ();
      Alcotest.(check int) "second pass frees the previous generation" 10
        th.Sched.metrics.Metrics.frees)

let test_nbr_pays_signals () =
  Helpers.in_sim ~n:4 (fun sched th ->
      let alloc = Alloc.Registry.make "jemalloc" sched in
      let policy = Smr.Free_policy.create ~mode:Smr.Free_policy.Batch ~alloc ~n:4 () in
      let ctx = { Smr.Smr_intf.sched; alloc; policy; safety = None } in
      let smr = Smr.Buffered.nbr ~buffer_size:4 ctx in
      let t0 = th.Sched.metrics.Metrics.smr_ns in
      for _ = 1 to 4 do
        smr.Smr.Smr_intf.retire th (alloc.Alloc.Alloc_intf.malloc th 64)
      done;
      smr.Smr.Smr_intf.end_op th;
      let cost = Sched.cost sched in
      Alcotest.(check bool) "a pass costs at least n signals" true
        (th.Sched.metrics.Metrics.smr_ns - t0 >= 4 * cost.Cost_model.signal))

let test_registry_af_parsing () =
  Alcotest.(check (pair string bool)) "af suffix" ("debra", true) (Smr.Smr_registry.parse "debra_af");
  Alcotest.(check (pair string bool)) "no suffix" ("nbr+", false) (Smr.Smr_registry.parse "nbr+");
  Alcotest.(check bool) "unknown name rejected" true
    (try
       let ctx, _ = Helpers.make_ctx () in
       ignore (Smr.Smr_registry.make "bogus" ctx);
       false
     with Invalid_argument _ -> true)

let test_grace_period_flags () =
  let ctx, _ = Helpers.make_ctx () in
  List.iter
    (fun name ->
      let smr = Smr.Smr_registry.make name ctx in
      Alcotest.(check bool) (name ^ " validates") true smr.Smr.Smr_intf.uses_grace_periods)
    (* "hazard" frees by an op-granularity rule that is exactly the
       validator's. *)
    [ "debra"; "qsbr"; "token"; "rcu"; "ibr"; "hazard" ];
  List.iter
    (fun name ->
      let smr = Smr.Smr_registry.make name ctx in
      Alcotest.(check bool) (name ^ " exempt") false smr.Smr.Smr_intf.uses_grace_periods)
    [ "he"; "wfe"; "nbr"; "nbr+"; "none" ]

(* The validator's [floor] fast path against a reference that scans every
   thread on every free. Scripts mix op begins whose times go backwards (a
   respawned thread), quiescence, never-begun threads, frees of handles
   that were never retired (some beyond the validator's initial table) and
   frees made before the grace period ends. Times follow a clock that
   advances 10 ns per step, each event landing up to 400 ns behind it or
   50 ns ahead. *)
type safety_op =
  | Begin of int * int  (* tid, time offset *)
  | Quiescent of int
  | Retire of int * int  (* handle, time offset *)
  | Free of int * int * int  (* tid, handle, time offset *)

let pp_safety_op = function
  | Begin (tid, d) -> Printf.sprintf "begin t%d %+d" tid d
  | Quiescent tid -> Printf.sprintf "quiescent t%d" tid
  | Retire (h, d) -> Printf.sprintf "retire #%d %+d" h d
  | Free (tid, h, d) -> Printf.sprintf "free t%d #%d %+d" tid h d

let safety_script n =
  let open QCheck.Gen in
  let tid = int_bound (n - 1) in
  let handle = frequency [ (8, int_bound 63); (1, int_range 1000 2100) ] in
  let offset = frequency [ (4, int_range 0 50); (1, int_range (-400) (-1)) ] in
  let op =
    frequency
      [
        (4, map2 (fun t d -> Begin (t, d)) tid offset);
        (1, map (fun t -> Quiescent t) tid);
        (3, map2 (fun h d -> Retire (h, d)) handle offset);
        (4, map3 (fun t h d -> Free (t, h, d)) tid handle offset);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_safety_op ops))
    (list_size (int_range 0 300) op)

(* Replay [ops] into [on_op] with absolute, non-negative times. *)
let replay_script ops on_op =
  List.iteri (fun i op -> on_op op (fun d -> max 0 ((10 * i) + d))) ops

let reference_violations n ops =
  let op_begin = Array.make n (-1) in
  let retired = Hashtbl.create 64 in
  let found = ref [] in
  replay_script ops (fun op at ->
      match op with
      | Begin (tid, d) -> op_begin.(tid) <- at d
      | Quiescent tid -> op_begin.(tid) <- max_int
      | Retire (h, d) -> Hashtbl.replace retired h (at d)
      | Free (tid, h, d) -> (
          match Hashtbl.find_opt retired h with
          | None -> ()
          | Some r ->
              for j = 0 to n - 1 do
                let b = op_begin.(j) in
                if j <> tid && b >= 0 && b <> max_int && b < r then
                  found :=
                    { Smr.Safety.handle = h; retired_at = r; freed_at = at d; blocking_thread = j }
                    :: !found
              done));
  List.rev !found

let prop_safety_matches_full_scan n =
  Helpers.prop (Printf.sprintf "safety floor = full scan n%d" n) (safety_script n) (fun ops ->
      let s = Smr.Safety.create ~n in
      replay_script ops (fun op at ->
          match op with
          | Begin (tid, d) -> Smr.Safety.note_op_begin s ~tid ~time:(at d)
          | Quiescent tid -> Smr.Safety.note_quiescent s ~tid
          | Retire (h, d) -> Smr.Safety.note_retire s ~handle:h ~time:(at d)
          | Free (tid, h, d) -> Smr.Safety.check_free s ~tid ~handle:h ~time:(at d));
      let frees = List.length (List.filter (function Free _ -> true | _ -> false) ops) in
      Smr.Safety.violations s = reference_violations n ops
      && Smr.Safety.checked_frees s = frees)

let suite =
  ( "smr",
    List.map safety_test grace_period_names
    @ List.map safety_test_af [ "debra"; "qsbr"; "token"; "hazard" ]
    @ List.map test_leak_freedom
        [ "debra"; "token"; "qsbr"; "nbr"; "hyaline"; "none"; "hazard" ]
    @ [
        Helpers.quick "unsafe_immediate_caught" test_unsafe_immediate_caught;
        Helpers.quick "epochs_advance" test_epochs_advance;
        Helpers.quick "debra_reclaims" test_debra_reclaims;
        Helpers.quick "none_never_frees" test_none_never_frees;
        Helpers.quick "token_rounds" test_token_rounds;
        Helpers.quick "token_af_defers" test_token_af_defers;
        Helpers.quick "buffered_pass_at_threshold" test_buffered_pass_at_threshold;
        Helpers.quick "nbr_pays_signals" test_nbr_pays_signals;
        Helpers.quick "registry_af_parsing" test_registry_af_parsing;
        Helpers.quick "grace_period_flags" test_grace_period_flags;
      ]
    @ List.map prop_safety_matches_full_scan [ 1; 2; 7; 192 ] )
