(* Shared test plumbing: build a small simulated world and run test bodies
   inside simulated threads (allocator and SMR calls perform effects, so
   they must run under the scheduler). *)

open Simcore

let make_sched ?(n = 4) ?(seed = 7) () =
  Sched.create ~topology:Topology.intel_192t ~n_threads:n ~seed ()

(* Run [body] on thread 0 of a fresh scheduler and return its result. *)
let in_sim ?n ?seed body =
  let sched = make_sched ?n ?seed () in
  let result = ref None in
  Sched.spawn sched (Sched.thread sched 0) (fun th -> result := Some (body sched th));
  Sched.run sched;
  match !result with Some r -> r | None -> Alcotest.fail "simulated body did not finish"

(* Run one body per thread. *)
let in_sim_all ?n ?seed body =
  let sched = make_sched ?n ?seed () in
  Array.iter (fun th -> Sched.spawn sched th (body sched)) (Sched.threads sched);
  Sched.run sched;
  sched

(* A full SMR context (allocator + policy + optional validator). *)
let make_ctx ?(n = 4) ?(seed = 7) ?(alloc = "jemalloc") ?(mode = Smr.Free_policy.Batch)
    ?(validate = true) () =
  let sched = make_sched ~n ~seed () in
  let alloc = Alloc.Registry.make alloc sched in
  let safety = if validate then Some (Smr.Safety.create ~n) else None in
  let policy = Smr.Free_policy.create ?safety ~mode ~alloc ~n () in
  ({ Smr.Smr_intf.sched; alloc; policy; safety }, sched)

(* Data structure context backed by a reclaimer that frees immediately
   through the policy (fine for single-threaded semantic tests). *)
let ds_ctx_collecting (ctx : Smr.Smr_intf.ctx) retired =
  {
    Ds.Ds_intf.alloc = ctx.Smr.Smr_intf.alloc;
    retire = (fun _th h -> retired := h :: !retired);
    node_cost = 10;
  }

let quick name f = Alcotest.test_case name `Quick f

(* QCheck integration: uniform trial count for property tests. *)
let prop ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

(* Substring search, for asserting on rendered output. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0
