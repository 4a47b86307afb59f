(** Result of a single trial. *)

open Simcore

type t = {
  config_label : string;
  seed : int;  (** the Sched seed that produced this trial *)
  throughput : float;  (** operations per virtual second, measured window *)
  ops : int;
  duration_ns : int;
  peak_mapped_bytes : int;  (** memory ever obtained from the virtual OS *)
  peak_live_bytes : int;
  final_size : int;
  freed : int;  (** objects returned to the allocator in the window *)
  retired : int;
  allocs : int;
  epochs : int;  (** epoch advances / reclamation passes in the window *)
  remote_frees : int;
  flushes : int;
  end_garbage : int;  (** unreclaimed objects when the trial ended *)
  thread_spawns : int;  (** mid-trial (re)joins in the window (churn) *)
  thread_retires : int;  (** thread retirements in the window (churn) *)
  teardown_frees : int;
      (** objects flushed out of dying threads' caches; all three churn
          counters are zero — and absent from the JSON — without a plan *)
  pct_free : float;  (** perf-style inclusive shares of the window *)
  pct_flush : float;
  pct_lock : float;
  pct_ds : float;
  garbage_by_epoch : (int * int) list;
      (** per epoch: sum over threads of limbo-bag sizes on entry (Fig 4) *)
  peak_epoch_garbage : int;
  avg_epoch_garbage : float;
  free_hist : Histogram.t;  (** individual free-call latencies *)
  op_hist : Histogram.t;
      (** whole-operation latencies: reclamation policy shows in the tail *)
  timeline_reclaim : Timeline.t option;
  timeline_free : Timeline.t option;
  measure_start : int;
  deadline : int;
  violations : int;  (** grace-period violations (0 when not validating) *)
}

val mops : t -> float

val op_p : t -> float -> int
(** Operation-latency percentile in ns (bucket resolution). *)

(** Mean / min / max over trials — the paper's error bars. *)
type summary = { mean : float; min : float; max : float }

val summarize : (t -> float) -> t list -> summary
val throughput_summary : t list -> summary
val peak_memory_summary : t list -> summary

(** {1 Serialization}

    Canonical JSON for the regression harness. Timelines are display-only
    and are not serialized; {!of_json} restores them as [None]. *)

val to_json : t -> Json.t

val of_json : Json.t -> t
(** @raise Json.Type_error on a shape mismatch. *)

val digest : t -> string
(** Hex digest of the canonical serialization of the full metrics record.
    Equal configs and seeds must produce equal digests (the simulator's
    determinism contract); [simbench check] enforces this. *)
