(* Per-layer measurements for the traced run: event counts read back from a
   whole-trial trace, host unit costs from micro-benchmarks on each layer's
   public API, and OCaml GC time from [Runtime_events]. The ledger in
   [Bench] multiplies the first by the second. *)

open Simcore

(* -- counts ---------------------------------------------------------------- *)

(* Kinds counted over the whole trace, prefill included: the wall time the
   ledger explains covers the whole trial, not only the measured window
   [Simtrace.Profile] windows its sums to. *)
type counts = {
  mutable yields : int;  (** performed context switches *)
  mutable elided : int;  (** checkpoints that skipped the switch *)
  mutable acquires : int;
  mutable contended : int;  (** acquires that waited *)
  mutable frees : int;  (** allocator [free] calls *)
  mutable flushes : int;
  mutable flushed : int;  (** objects evicted by those flushes *)
  mutable remote_frees : int;
  mutable epochs : int;
  mutable reclaimed : int;  (** objects the SMR handed back, batch or amortized *)
  mutable hp_scans : int;
  mutable events : int;
  mutable dropped : int;  (** events lost to ring wraparound *)
}

let counts () =
  {
    yields = 0;
    elided = 0;
    acquires = 0;
    contended = 0;
    frees = 0;
    flushes = 0;
    flushed = 0;
    remote_frees = 0;
    epochs = 0;
    reclaimed = 0;
    hp_scans = 0;
    events = 0;
    dropped = 0;
  }

(* Add one trial's trace to [c] and return the operations it ran. Every
   operation ends in one checkpoint, and so does every lock acquisition
   outside an atomic section, so checkpoints minus acquisitions counts
   operations; locks taken inside an atomic section make it an undercount. *)
let count c tr =
  let checkpoints = c.yields + c.elided and acquires = c.acquires in
  Tracer.iter tr (fun e ->
      match e.Tracer.kind with
      | Tracer.Yield ->
          if e.Tracer.a = 1 then c.yields <- c.yields + 1 else c.elided <- c.elided + 1
      | Tracer.Lock_acquire -> c.acquires <- c.acquires + 1
      | Tracer.Lock_wait -> c.contended <- c.contended + 1
      | Tracer.Free_call -> c.frees <- c.frees + 1
      | Tracer.Overflow ->
          c.flushes <- c.flushes + 1;
          c.flushed <- c.flushed + e.Tracer.a
      | Tracer.Remote_free -> c.remote_frees <- c.remote_frees + e.Tracer.a
      | Tracer.Epoch_advance -> c.epochs <- c.epochs + 1
      | Tracer.Reclaim | Tracer.Af_drain -> c.reclaimed <- c.reclaimed + e.Tracer.a
      | Tracer.Hp_scan -> c.hp_scans <- c.hp_scans + 1
      | _ -> ());
  c.events <- c.events + Tracer.recorded tr;
  c.dropped <- c.dropped + Tracer.dropped tr;
  max 0 (c.yields + c.elided - checkpoints - (c.acquires - acquires))

(* -- micro-benchmarks ----------------------------------------------------- *)

(* Median of three runs of a micro that returns host ns per unit. *)
let median3 f = Stats.median (List.init 3 (fun _ -> f ()))

let world n = Sched.create ~topology:Topology.intel_192t ~n_threads:n ~seed:1 ()

let per_unit ms n = ms *. 1e6 /. float_of_int n

(* A performed yield, round trip: effect switch, enqueue and dispatch, with
   [threads] threads in flight. *)
let yield_ns ~threads =
  median3 (fun () ->
      let s = world threads in
      let per_thread = 400_000 / threads in
      Array.iter
        (fun th ->
          Sched.spawn s th (fun th ->
              for _ = 1 to per_thread do
                Sched.work th Metrics.Ds (100 + (th.Sched.tid land 7));
                Sched.checkpoint th
              done))
        (Sched.threads s);
      let ms, () = Stats.timed (fun () -> Sched.run s) in
      let yields =
        Array.fold_left (fun a th -> a + th.Sched.metrics.Metrics.yields) 0 (Sched.threads s)
      in
      per_unit ms yields)

(* Event-queue pop and re-push with [n] events in flight, each thread clock
   advancing a few hundred ns per event as in a trial. *)
let dispatch_ns ~n =
  let q = Event_queue.create ~kind:(Event_queue.default_kind ()) ~dummy:(-1) in
  let keys = Array.init n (fun i -> i * 211 mod 4096) in
  Array.iteri (fun i k -> Event_queue.push q ~key:k ~seq:i i) keys;
  let seq = ref n and steps = 300_000 in
  median3 (fun () ->
      let ms, () =
        Stats.timed (fun () ->
            for _ = 1 to steps do
              let x = Event_queue.pop_le_default q ~bound:max_int in
              incr seq;
              keys.(x) <- keys.(x) + 211 + (97 * (x land 7));
              Event_queue.push q ~key:keys.(x) ~seq:!seq x
            done)
      in
      per_unit ms steps)

(* A micro-benchmark on a fresh scheduler of [threads] threads: [make]
   builds it and returns the body simulated thread 0 runs, which performs
   [n] units and returns the wall ms it timed, so untimed set-up can sit
   inside it. Host ns per unit. *)
let micro ?(threads = 1) ~n make =
  median3 (fun () ->
      let s = world threads in
      let body = make s in
      let ms = ref 0. in
      Sched.spawn s (Sched.thread s 0) (fun th -> ms := body th);
      Sched.run s;
      per_unit !ms n)

(* [n] timed calls of [op th]. *)
let repeat n op th =
  fst
    (Stats.timed (fun () ->
         for _ = 1 to n do
           op th
         done))

(* Acquire and release of an uncontended [Sim_mutex]; the acquire's
   checkpoint is elided, so no yield is included. *)
let handoff_ns () =
  let n = 200_000 in
  micro ~n (fun _ ->
      let m = Sim_mutex.create () in
      repeat n (fun th ->
          Sim_mutex.lock m th;
          Sched.work th Metrics.Lock 10;
          Sim_mutex.unlock m th))

(* Thread-cache malloc+free pair of a 240-byte object (the ABtree node). *)
let malloc_free_ns alloc =
  let n = 100_000 in
  micro ~n (fun s ->
      let a = Alloc.Registry.make alloc s in
      repeat n (fun th -> a.Alloc.Alloc_intf.free th (a.Alloc.Alloc_intf.malloc th 240)))

(* Free of one object in batches of 256, which overflow the thread cache:
   the flush path per object. Only the frees are timed. *)
let flush_ns_per_obj alloc =
  let batches = 400 and size = 256 in
  micro ~n:(batches * size) (fun s ->
      let a = Alloc.Registry.make alloc s in
      fun th ->
        let ms = ref 0. in
        for _ = 1 to batches do
          let hs = Array.init size (fun _ -> a.Alloc.Alloc_intf.malloc th 240) in
          ms := !ms +. fst (Stats.timed (fun () -> Array.iter (a.Alloc.Alloc_intf.free th) hs))
        done;
        !ms)

(* One [begin_op]/[end_op] pair of reclaimer [smr] with [threads]
   participants, driven from thread 0. *)
let smr_op_ns smr ~threads =
  let n = 200_000 in
  micro ~threads ~n (fun s ->
      let alloc = Alloc.Registry.make "jemalloc" s in
      let policy = Smr.Free_policy.create ~mode:Smr.Free_policy.Batch ~alloc ~n:threads () in
      let c = Runtime.Config.default in
      let r =
        Smr.Smr_registry.make ~token_period:c.Runtime.Config.token_period
          ~buffer_size:c.Runtime.Config.buffer_size
          ~debra_check_every:c.Runtime.Config.debra_check_every smr
          { Smr.Smr_intf.sched = s; alloc; policy; safety = None }
      in
      repeat n (fun th ->
          r.Smr.Smr_intf.begin_op th;
          r.Smr.Smr_intf.end_op th))

(* One insert-or-delete of a uniform key on structure [ds] prefilled to half
   of [key_range], inside an atomic section as the runner does it. The leak
   allocator and a no-op retire keep allocator and SMR cost out of it. *)
let ds_op_ns ds ~key_range =
  let n = 100_000 in
  micro ~n (fun s ->
      let alloc = Alloc.Registry.make "leak" s in
      let ctx = { Ds.Ds_intf.alloc; retire = (fun _ _ -> ()); node_cost = 10 } in
      fun th ->
        let d = Ds.Ds_registry.make ds ctx th in
        let rng = th.Sched.rng in
        let size = ref 0 in
        while !size < key_range / 2 do
          if (d.Ds.Ds_intf.insert th (Rng.int_below rng key_range)).Ds.Ds_intf.changed then
            incr size
        done;
        repeat n
          (fun th ->
            let k = Rng.int_below rng key_range in
            Sched.atomic_enter th;
            ignore
              (if Rng.bool rng then d.Ds.Ds_intf.insert th k else d.Ds.Ds_intf.delete th k
                : Ds.Ds_intf.op_result);
            Sched.atomic_exit th)
          th)

(* A push+pop cycle of the off-heap stack under reclaimer [r], in both
   modes. *)
let cycle_ns r =
  let ops = 100_000 in
  median3 (fun () ->
      let ms =
        List.fold_left
          (fun acc batch ->
            let w = Offheap.world r ~batch in
            acc +. fst (Stats.timed (fun () -> Offheap.run w ~seed:1 ~ops)))
          0. [ true; false ]
      in
      (* [ops] operations in each mode are [ops] push+pop cycles in all. *)
      per_unit ms ops)

(* -- GC ----------------------------------------------------------------------- *)

type gc = {
  minor_ms : float;  (** minor collections, busiest domain *)
  major_ms : float;  (** major slices, busiest domain *)
  minor_words : float;
  lost : int;  (** runtime events overwritten before they were read *)
}

(* Run [f] with [Runtime_events] collecting GC phases. Phase time is summed
   per domain ring and the busiest ring is reported, which for a
   single-domain trial is the trial's own GC time. *)
let gc_of f =
  let module E = Runtime_events in
  E.start ();
  let cursor = E.create_cursor None in
  ignore (E.read_poll cursor (E.Callbacks.create ()) None : int);
  let opened = Hashtbl.create 8 and spent = Hashtbl.create 8 in
  let key ring = function
    | E.EV_MINOR -> Some (ring, true)
    | E.EV_MAJOR_SLICE -> Some (ring, false)
    | _ -> None
  in
  let ns t = Int64.to_int (E.Timestamp.to_int64 t) in
  let runtime_begin ring t phase =
    Option.iter (fun k -> Hashtbl.replace opened k (ns t)) (key ring phase)
  in
  let runtime_end ring t phase =
    Option.iter
      (fun k ->
        match Hashtbl.find_opt opened k with
        | Some t0 ->
            let sum = Option.value ~default:0 (Hashtbl.find_opt spent k) in
            Hashtbl.replace spent k (sum + ns t - t0)
        | None -> ())
      (key ring phase)
  in
  let lost = ref 0 in
  let callbacks =
    E.Callbacks.create ~runtime_begin ~runtime_end ~lost_events:(fun _ n -> lost := !lost + n) ()
  in
  let words () = (Gc.quick_stat ()).Gc.minor_words in
  let w0 = words () in
  let r = f () in
  let minor_words = words () -. w0 in
  ignore (E.read_poll cursor callbacks None : int);
  E.free_cursor cursor;
  E.pause ();
  let busiest minor =
    Hashtbl.fold (fun (_, m) ns acc -> if m = minor then max acc ns else acc) spent 0
  in
  ( r,
    {
      minor_ms = float_of_int (busiest true) /. 1e6;
      major_ms = float_of_int (busiest false) /. 1e6;
      minor_words;
      lost = !lost;
    } )
