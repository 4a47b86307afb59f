open Simcore

type lock_stat = {
  lock_name : string;
  acquires : int;
  contended : int;
  wait_ns : int;
  overhead_ns : int;
  hold_ns : int;
}

type t = {
  threads : int;
  dropped : int;
  metrics : Metrics.t;
  splices : int;
  reclaims : int;
  reclaimed : int;
  af_drained : int;
  hp_scan_ns : int;
  hp_freed : int;
  teardown_ns : int;
  locks : lock_stat list;
  max_epoch_gap_ns : int;
  garbage_by_epoch : (int * int) list;
  peak_epoch_garbage : int;
}

type lock_acc = {
  mutable l_acquires : int;
  mutable l_contended : int;
  mutable l_wait : int;
  mutable l_overhead : int;
  mutable l_hold : int;
}

(* Replay one event into its thread's counters: each kind feeds the counter
   its emitting site increments. [total_ns] follows the thread's clock: its
   [Thread_end] marker, or (a trace captured outside the runner) its latest
   event. *)
let replay (m : Metrics.t) (e : Tracer.event) =
  if e.Tracer.kind = Tracer.Thread_end then m.Metrics.total_ns <- e.Tracer.ts
  else m.Metrics.total_ns <- max m.Metrics.total_ns e.Tracer.ts;
  match e.Tracer.kind with
  | Tracer.Free_call ->
      m.Metrics.free_ns <- m.Metrics.free_ns + e.Tracer.dur;
      m.Metrics.frees <- m.Metrics.frees + 1
  | Tracer.Flush -> m.Metrics.flush_ns <- m.Metrics.flush_ns + e.Tracer.dur
  | Tracer.Lock_wait | Tracer.Lock_acquire -> m.Metrics.lock_ns <- m.Metrics.lock_ns + e.Tracer.a
  | Tracer.Overflow -> m.Metrics.flushes <- m.Metrics.flushes + 1
  | Tracer.Remote_free -> m.Metrics.remote_frees <- m.Metrics.remote_frees + e.Tracer.a
  | Tracer.Epoch_advance -> m.Metrics.epochs <- m.Metrics.epochs + 1
  | Tracer.Retire -> m.Metrics.retires <- m.Metrics.retires + 1
  | Tracer.Yield ->
      if e.Tracer.a = 1 then m.Metrics.yields <- m.Metrics.yields + 1
      else m.Metrics.elided_yields <- m.Metrics.elided_yields + 1
  | Tracer.Hp_scan -> m.Metrics.hp_scans <- m.Metrics.hp_scans + 1
  | Tracer.Hp_protect ->
      m.Metrics.hp_protect_retries <- m.Metrics.hp_protect_retries + e.Tracer.a
  | Tracer.Thread_spawn -> m.Metrics.thread_spawns <- m.Metrics.thread_spawns + 1
  | Tracer.Thread_retire -> m.Metrics.thread_retires <- m.Metrics.thread_retires + 1
  | Tracer.Teardown_flush -> m.Metrics.teardown_frees <- m.Metrics.teardown_frees + e.Tracer.a
  | Tracer.Run | Tracer.Stall | Tracer.Preempt | Tracer.Lock_hold | Tracer.Refill
  | Tracer.Reclaim | Tracer.Splice | Tracer.Af_drain | Tracer.Epoch_garbage
  | Tracer.Measure_start | Tracer.Thread_end ->
      ()

let of_tracer tr =
  let evs = Tracer.events tr in
  let n = 1 + Array.fold_left (fun m (e : Tracer.event) -> max m e.Tracer.tid) (-1) evs in
  (* A thread's window opens at its first Measure_start; one without a
     marker contributes its whole timeline, as in the runner. *)
  let ms_seq = Array.make n (-1) in
  Array.iter
    (fun (e : Tracer.event) ->
      if e.Tracer.kind = Tracer.Measure_start && ms_seq.(e.Tracer.tid) < 0 then
        ms_seq.(e.Tracer.tid) <- e.Tracer.seq)
    evs;
  let live = Array.init n (fun _ -> Metrics.create ()) in
  let snaps = Array.make n None in
  let splices = ref 0
  and reclaims = ref 0
  and reclaimed = ref 0
  and af_drained = ref 0
  and hp_scan_ns = ref 0
  and hp_freed = ref 0
  and teardown_ns = ref 0
  and advances = ref [] in
  let locks : (int, lock_acc) Hashtbl.t = Hashtbl.create 8 in
  let lock_acc id =
    match Hashtbl.find_opt locks id with
    | Some acc -> acc
    | None ->
        let acc =
          { l_acquires = 0; l_contended = 0; l_wait = 0; l_overhead = 0; l_hold = 0 }
        in
        Hashtbl.add locks id acc;
        acc
  in
  let garbage : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (e : Tracer.event) ->
      let tid = e.Tracer.tid in
      replay live.(tid) e;
      (* The runner's snapshot, a copy of the counters at the clock where
         the thread crossed into the measured window. *)
      if e.Tracer.seq = ms_seq.(tid) then
        snaps.(tid) <- Some { live.(tid) with Metrics.total_ns = e.Tracer.ts };
      (* The per-epoch garbage trace spans the whole run, like the
         runner's. *)
      if e.Tracer.kind = Tracer.Epoch_garbage then
        Hashtbl.replace garbage e.Tracer.b
          (e.Tracer.a + Option.value ~default:0 (Hashtbl.find_opt garbage e.Tracer.b));
      if e.Tracer.seq > ms_seq.(tid) then
        match e.Tracer.kind with
        | Tracer.Lock_wait ->
            let acc = lock_acc e.Tracer.b in
            acc.l_contended <- acc.l_contended + 1;
            acc.l_wait <- acc.l_wait + e.Tracer.a
        | Tracer.Lock_acquire ->
            let acc = lock_acc e.Tracer.b in
            acc.l_acquires <- acc.l_acquires + 1;
            acc.l_overhead <- acc.l_overhead + e.Tracer.a
        | Tracer.Lock_hold ->
            let acc = lock_acc e.Tracer.b in
            acc.l_hold <- acc.l_hold + e.Tracer.dur
        | Tracer.Epoch_advance -> advances := e.Tracer.ts :: !advances
        | Tracer.Splice -> incr splices
        | Tracer.Reclaim ->
            incr reclaims;
            reclaimed := !reclaimed + e.Tracer.a
        | Tracer.Af_drain -> af_drained := !af_drained + e.Tracer.a
        | Tracer.Hp_scan ->
            hp_scan_ns := !hp_scan_ns + e.Tracer.dur;
            hp_freed := !hp_freed + e.Tracer.a
        | Tracer.Teardown_flush -> teardown_ns := !teardown_ns + e.Tracer.dur
        | _ -> ())
    evs;
  let metrics = Metrics.create () in
  Array.iteri
    (fun tid after ->
      let before = match snaps.(tid) with Some s -> s | None -> Metrics.create () in
      Metrics.merge metrics (Metrics.diff ~before ~after))
    live;
  let max_epoch_gap_ns =
    let ts = List.sort compare !advances in
    let rec gaps acc = function
      | a :: (b :: _ as rest) -> gaps (max acc (b - a)) rest
      | _ -> acc
    in
    gaps 0 ts
  in
  let lock_stats =
    Hashtbl.fold
      (fun id acc l ->
        {
          lock_name = Tracer.name tr id;
          acquires = acc.l_acquires;
          contended = acc.l_contended;
          wait_ns = acc.l_wait;
          overhead_ns = acc.l_overhead;
          hold_ns = acc.l_hold;
        }
        :: l)
      locks []
    |> List.sort (fun a b ->
           compare (b.wait_ns + b.overhead_ns, b.lock_name) (a.wait_ns + a.overhead_ns, a.lock_name))
  in
  let garbage_by_epoch =
    List.sort compare (Hashtbl.fold (fun epoch count l -> (epoch, count) :: l) garbage [])
  in
  {
    threads = n;
    dropped = Tracer.dropped tr;
    metrics;
    splices = !splices;
    reclaims = !reclaims;
    reclaimed = !reclaimed;
    af_drained = !af_drained;
    hp_scan_ns = !hp_scan_ns;
    hp_freed = !hp_freed;
    teardown_ns = !teardown_ns;
    locks = lock_stats;
    max_epoch_gap_ns;
    garbage_by_epoch;
    peak_epoch_garbage = List.fold_left (fun m (_, c) -> max m c) 0 garbage_by_epoch;
  }

let pp ppf p =
  let ms ns = float_of_int ns /. 1e6 in
  let m = p.metrics in
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "# trace profile: %d threads, %.3f ms measured virtual time" p.threads
    (ms m.Metrics.total_ns);
  if p.dropped > 0 then
    Fmt.pf ppf "@,# WARNING: %d events dropped to ring wraparound; sums are partial"
      p.dropped;
  Fmt.pf ppf "@,@,%%free  %6.2f%%  (%.3f ms inclusive, %d calls)" (Metrics.pct_free m)
    (ms m.Metrics.free_ns) m.Metrics.frees;
  Fmt.pf ppf "@,%%flush %6.2f%%  (%.3f ms inclusive, %d overflow events)" (Metrics.pct_flush m)
    (ms m.Metrics.flush_ns) m.Metrics.flushes;
  Fmt.pf ppf "@,%%lock  %6.2f%%  (%.3f ms waiting+transfer)" (Metrics.pct_lock m)
    (ms m.Metrics.lock_ns);
  Fmt.pf ppf "@,@,remote frees %d, epoch advances %d, splices %d" m.Metrics.remote_frees
    m.Metrics.epochs p.splices;
  Fmt.pf ppf "@,reclaim passes %d (%d objects), amortized drain %d objects" p.reclaims
    p.reclaimed p.af_drained;
  Fmt.pf ppf "@,yields %d performed, %d elided" m.Metrics.yields m.Metrics.elided_yields;
  if m.Metrics.hp_scans > 0 || m.Metrics.hp_protect_retries > 0 then
    Fmt.pf ppf "@,hazard scans %d (%.3f ms, %d objects reclaimable), protect retries %d"
      m.Metrics.hp_scans (ms p.hp_scan_ns) p.hp_freed m.Metrics.hp_protect_retries;
  if m.Metrics.thread_retires > 0 || m.Metrics.thread_spawns > 0 then
    Fmt.pf ppf "@,thread churn: %d retires, %d respawns, %d objects death-flushed (%.3f ms)"
      m.Metrics.thread_retires m.Metrics.thread_spawns m.Metrics.teardown_frees
      (ms p.teardown_ns);
  Fmt.pf ppf "@,longest epoch stall %.3f ms, peak epoch garbage %d" (ms p.max_epoch_gap_ns)
    p.peak_epoch_garbage;
  if p.locks <> [] then begin
    Fmt.pf ppf "@,@,%-24s %9s %9s %12s %12s %12s" "lock" "acquires" "contended" "wait ms"
      "overhead ms" "hold ms";
    List.iter
      (fun l ->
        Fmt.pf ppf "@,%-24s %9d %9d %12.3f %12.3f %12.3f" l.lock_name l.acquires l.contended
          (ms l.wait_ns) (ms l.overhead_ns) (ms l.hold_ns))
      p.locks
  end;
  Fmt.pf ppf "@]"
