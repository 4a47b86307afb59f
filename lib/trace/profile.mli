(** The perf-style report pass: recompute the paper's profile from a trace.

    [of_tracer] replays the trace events into {!Simcore.Metrics} counters,
    each kind feeding the counter its emitting site increments, with no
    access to the counters the run kept. It windows each thread the way the
    runner does: a snapshot at the thread's first [Measure_start] marker
    (by emission order, event [seq]) is subtracted with {!Simcore.Metrics.diff},
    and the per-thread windows are summed with {!Simcore.Metrics.merge}; a
    thread without a marker contributes its whole timeline, as in the
    runner. The shares reported in Tables 1–2 of the paper — %free, %flush,
    %lock — are read through {!Simcore.Metrics.pct_free} and its siblings,
    the functions the runner uses. The cross-validation suite asserts
    bit-equality of the replayed counters against the same run's.

    On top of the counters the profile attributes lock time per mutex and
    summarizes reclamation: epoch-advance cadence (the longest gap is the
    epoch-stall interval behind garbage pile-up) and the per-epoch garbage
    trace. *)

type lock_stat = {
  lock_name : string;
  acquires : int;  (** [Lock_acquire] events *)
  contended : int;  (** [Lock_wait] events (queue handoffs and spins) *)
  wait_ns : int;  (** waiting time charged to the Lock bucket *)
  overhead_ns : int;  (** wake + transfer costs *)
  hold_ns : int;  (** acquisition to release *)
}

type t = {
  threads : int;
  dropped : int;  (** ring-buffer losses; window sums are partial if > 0 *)
  metrics : Simcore.Metrics.t;
      (** the windowed counters the trace carries: [total_ns], [free_ns],
          [flush_ns], [lock_ns], [frees], [flushes], [remote_frees],
          [epochs], [retires], [yields], [elided_yields], [hp_scans],
          [hp_protect_retries], [thread_spawns], [thread_retires] and
          [teardown_frees]; every other counter reads 0 *)
  splices : int;  (** amortized-free bag splices *)
  reclaims : int;  (** SMR free-bag passes *)
  reclaimed : int;  (** objects freed by those passes *)
  af_drained : int;  (** objects drained by amortized-free quanta *)
  hp_scan_ns : int;  (** inclusive time of hazard-pointer scans *)
  hp_freed : int;  (** objects those scans found reclaimable *)
  teardown_ns : int;  (** inclusive time of teardown flushes *)
  locks : lock_stat list;  (** sorted by [wait_ns + overhead_ns], largest first *)
  max_epoch_gap_ns : int;  (** longest interval between epoch advances *)
  garbage_by_epoch : (int * int) list;
      (** per epoch, ascending: the sum of [Epoch_garbage] payloads over the
          whole trace, the runner's [Trial.garbage_by_epoch] *)
  peak_epoch_garbage : int;  (** largest entry of [garbage_by_epoch] *)
}

val of_tracer : Simcore.Tracer.t -> t

val pp : Format.formatter -> t -> unit
(** Human-readable report in the style of a [perf report] summary. *)
