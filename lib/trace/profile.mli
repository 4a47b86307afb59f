(** The perf-style report pass: recompute the paper's profile from a trace.

    [of_tracer] rebuilds the measured-window shares reported in Tables 1–2
    of the paper — %free, %flush, %lock — and the flush / remote-batch-free
    counters {e from the trace events alone}, with no access to the
    {!Simcore.Metrics} counters. Per-thread sums are windowed between that
    thread's [Measure_start] marker and its [Thread_end] marker {e by
    emission order} (event [seq]), which mirrors exactly where the runner
    snapshots its metrics; a thread without a [Measure_start] contributes
    its whole timeline, as in the runner. The cross-validation suite
    asserts bit-equality of every rebuilt number against the [Trial]
    produced by the same run.

    On top of the shares the profile attributes lock time per mutex and
    summarizes reclamation: epoch-advance cadence (the longest gap is the
    epoch-stall interval behind garbage pile-up) and peak per-epoch
    garbage. *)

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
  total_ns : int;
  free_ns : int;
  flush_ns : int;
  lock_ns : int;
  pct_free : float;
  pct_flush : float;
  pct_lock : float;
  frees : int;  (** [Free_call] spans in window *)
  flushes : int;  (** [Overflow] instants in window *)
  remote_frees : int;  (** objects via [Remote_free] instants in window *)
  epochs : int;  (** [Epoch_advance] instants in window *)
  splices : int;  (** amortized-free bag splices *)
  reclaims : int;  (** SMR free-bag passes *)
  reclaimed : int;  (** objects freed by those passes *)
  af_drained : int;  (** objects drained by amortized-free quanta *)
  yields : int;  (** performed context switches ([Yield] instants with a=1) *)
  elided_yields : int;  (** checkpoints that skipped the effect perform (a=0) *)
  hp_scans : int;  (** hazard-pointer [Hp_scan] spans in window *)
  hp_scan_ns : int;  (** inclusive time of those scans *)
  hp_freed : int;  (** objects those scans found reclaimable *)
  hp_protect_retries : int;  (** re-published hazard slots ([Hp_protect] instants) *)
  thread_spawns : int;  (** [Thread_spawn] instants in window (churn respawns) *)
  thread_retires : int;  (** [Thread_retire] instants in window *)
  teardown_frees : int;  (** objects via [Teardown_flush] spans (death flushes) *)
  teardown_ns : int;  (** inclusive time of those teardown flushes *)
  locks : lock_stat list;  (** sorted by [wait_ns + overhead_ns], largest first *)
  max_epoch_gap_ns : int;  (** longest interval between epoch advances *)
  peak_epoch_garbage : int;  (** max [Epoch_garbage] payload in window *)
}

val of_tracer : Simcore.Tracer.t -> t

val pp : Format.formatter -> t -> unit
(** Human-readable report in the style of a [perf report] summary. *)

val to_json : t -> Json.t
