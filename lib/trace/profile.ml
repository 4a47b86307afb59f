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
  total_ns : int;
  free_ns : int;
  flush_ns : int;
  lock_ns : int;
  pct_free : float;
  pct_flush : float;
  pct_lock : float;
  frees : int;
  flushes : int;
  remote_frees : int;
  epochs : int;
  splices : int;
  reclaims : int;
  reclaimed : int;
  af_drained : int;
  yields : int;
  elided_yields : int;
  hp_scans : int;
  hp_scan_ns : int;
  hp_freed : int;
  hp_protect_retries : int;
  thread_spawns : int;
  thread_retires : int;
  teardown_frees : int;
  teardown_ns : int;
  locks : lock_stat list;
  max_epoch_gap_ns : int;
  peak_epoch_garbage : int;
}

type lock_acc = {
  mutable l_acquires : int;
  mutable l_contended : int;
  mutable l_wait : int;
  mutable l_overhead : int;
  mutable l_hold : int;
}

let of_tracer tr =
  let evs = Tracer.events tr in
  let max_tid = Array.fold_left (fun m (e : Tracer.event) -> max m e.Tracer.tid) (-1) evs in
  let n = max_tid + 1 in
  (* Window markers, mirroring the runner: a thread with no Measure_start
     snapshot contributes its whole timeline (ms_seq = -1, ms_ts = 0). *)
  let ms_seq = Array.make (max n 1) (-1) in
  let ms_ts = Array.make (max n 1) 0 in
  let end_ts = Array.make (max n 1) 0 in
  Array.iter
    (fun (e : Tracer.event) ->
      (match e.Tracer.kind with
      | Tracer.Measure_start ->
          if ms_seq.(e.Tracer.tid) < 0 then begin
            ms_seq.(e.Tracer.tid) <- e.Tracer.seq;
            ms_ts.(e.Tracer.tid) <- e.Tracer.ts
          end
      | Tracer.Thread_end -> end_ts.(e.Tracer.tid) <- e.Tracer.ts
      | _ -> ());
      (* Fallback when no Thread_end marker exists (a trace captured outside
         the runner): the thread's last event time. *)
      if e.Tracer.kind <> Tracer.Thread_end then
        end_ts.(e.Tracer.tid) <- max end_ts.(e.Tracer.tid) e.Tracer.ts)
    evs;
  let total_ns = ref 0 in
  for tid = 0 to n - 1 do
    total_ns := !total_ns + max 0 (end_ts.(tid) - ms_ts.(tid))
  done;
  let free_ns = ref 0
  and flush_ns = ref 0
  and lock_ns = ref 0
  and frees = ref 0
  and flushes = ref 0
  and remote_frees = ref 0
  and epochs = ref 0
  and splices = ref 0
  and reclaims = ref 0
  and reclaimed = ref 0
  and af_drained = ref 0
  and yields = ref 0
  and elided_yields = ref 0
  and hp_scans = ref 0
  and hp_scan_ns = ref 0
  and hp_freed = ref 0
  and hp_protect_retries = ref 0
  and thread_spawns = ref 0
  and thread_retires = ref 0
  and teardown_frees = ref 0
  and teardown_ns = ref 0
  and peak_garbage = ref 0 in
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
  let advances = ref [] in
  Array.iter
    (fun (e : Tracer.event) ->
      if e.Tracer.seq > ms_seq.(e.Tracer.tid) then begin
        match e.Tracer.kind with
        | Tracer.Free_call ->
            free_ns := !free_ns + e.Tracer.dur;
            incr frees
        | Tracer.Flush -> flush_ns := !flush_ns + e.Tracer.dur
        | Tracer.Lock_wait ->
            lock_ns := !lock_ns + e.Tracer.a;
            let acc = lock_acc e.Tracer.b in
            acc.l_contended <- acc.l_contended + 1;
            acc.l_wait <- acc.l_wait + e.Tracer.a
        | Tracer.Lock_acquire ->
            lock_ns := !lock_ns + e.Tracer.a;
            let acc = lock_acc e.Tracer.b in
            acc.l_acquires <- acc.l_acquires + 1;
            acc.l_overhead <- acc.l_overhead + e.Tracer.a
        | Tracer.Lock_hold -> (lock_acc e.Tracer.b).l_hold <- (lock_acc e.Tracer.b).l_hold + e.Tracer.dur
        | Tracer.Overflow -> incr flushes
        | Tracer.Remote_free -> remote_frees := !remote_frees + e.Tracer.a
        | Tracer.Epoch_advance ->
            incr epochs;
            advances := e.Tracer.ts :: !advances
        | Tracer.Epoch_garbage -> peak_garbage := max !peak_garbage e.Tracer.a
        | Tracer.Splice -> incr splices
        | Tracer.Reclaim ->
            incr reclaims;
            reclaimed := !reclaimed + e.Tracer.a
        | Tracer.Af_drain -> af_drained := !af_drained + e.Tracer.a
        | Tracer.Yield -> if e.Tracer.a = 1 then incr yields else incr elided_yields
        | Tracer.Hp_scan ->
            incr hp_scans;
            hp_scan_ns := !hp_scan_ns + e.Tracer.dur;
            hp_freed := !hp_freed + e.Tracer.a
        | Tracer.Hp_protect -> hp_protect_retries := !hp_protect_retries + e.Tracer.a
        | Tracer.Thread_spawn -> incr thread_spawns
        | Tracer.Thread_retire -> incr thread_retires
        | Tracer.Teardown_flush ->
            teardown_frees := !teardown_frees + e.Tracer.a;
            teardown_ns := !teardown_ns + e.Tracer.dur
        | _ -> ()
      end)
    evs;
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
  {
    threads = n;
    dropped = Tracer.dropped tr;
    total_ns = !total_ns;
    free_ns = !free_ns;
    flush_ns = !flush_ns;
    lock_ns = !lock_ns;
    pct_free = Metrics.pct !free_ns !total_ns;
    pct_flush = Metrics.pct !flush_ns !total_ns;
    pct_lock = Metrics.pct !lock_ns !total_ns;
    frees = !frees;
    flushes = !flushes;
    remote_frees = !remote_frees;
    epochs = !epochs;
    splices = !splices;
    reclaims = !reclaims;
    reclaimed = !reclaimed;
    af_drained = !af_drained;
    yields = !yields;
    elided_yields = !elided_yields;
    hp_scans = !hp_scans;
    hp_scan_ns = !hp_scan_ns;
    hp_freed = !hp_freed;
    hp_protect_retries = !hp_protect_retries;
    thread_spawns = !thread_spawns;
    thread_retires = !thread_retires;
    teardown_frees = !teardown_frees;
    teardown_ns = !teardown_ns;
    locks = lock_stats;
    max_epoch_gap_ns;
    peak_epoch_garbage = !peak_garbage;
  }

let pp ppf p =
  let ms ns = float_of_int ns /. 1e6 in
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "# trace profile: %d threads, %.3f ms measured virtual time" p.threads
    (ms p.total_ns);
  if p.dropped > 0 then
    Fmt.pf ppf "@,# WARNING: %d events dropped to ring wraparound; sums are partial"
      p.dropped;
  Fmt.pf ppf "@,@,%%free  %6.2f%%  (%.3f ms inclusive, %d calls)" p.pct_free (ms p.free_ns)
    p.frees;
  Fmt.pf ppf "@,%%flush %6.2f%%  (%.3f ms inclusive, %d overflow events)" p.pct_flush
    (ms p.flush_ns) p.flushes;
  Fmt.pf ppf "@,%%lock  %6.2f%%  (%.3f ms waiting+transfer)" p.pct_lock (ms p.lock_ns);
  Fmt.pf ppf "@,@,remote frees %d, epoch advances %d, splices %d" p.remote_frees p.epochs
    p.splices;
  Fmt.pf ppf "@,reclaim passes %d (%d objects), amortized drain %d objects" p.reclaims
    p.reclaimed p.af_drained;
  Fmt.pf ppf "@,yields %d performed, %d elided" p.yields p.elided_yields;
  if p.hp_scans > 0 || p.hp_protect_retries > 0 then
    Fmt.pf ppf "@,hazard scans %d (%.3f ms, %d objects reclaimable), protect retries %d"
      p.hp_scans (ms p.hp_scan_ns) p.hp_freed p.hp_protect_retries;
  if p.thread_retires > 0 || p.thread_spawns > 0 then
    Fmt.pf ppf "@,thread churn: %d retires, %d respawns, %d objects death-flushed (%.3f ms)"
      p.thread_retires p.thread_spawns p.teardown_frees (ms p.teardown_ns);
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
