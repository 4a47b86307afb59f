(** Per-thread accounting of virtual time and events — the simulator's
    Linux perf.

    Time inside a free call is accumulated {e inclusively} into [free_ns]
    (and flush time into [flush_ns]), mirroring perf's inclusive sampling of
    [free], [je_tcache_bin_flush_small] and [je_malloc_mutex_lock_slow] in
    the paper's Tables 1–2. *)

type bucket =
  | Ds  (** data structure traversal and mutation *)
  | Alloc  (** allocator fast paths and refills *)
  | Free  (** covered by the inclusive [in_free] flag *)
  | Flush  (** covered by the inclusive [in_flush] flag *)
  | Lock  (** waiting for / transferring virtual locks *)
  | Smr  (** reclaimer bookkeeping *)
  | Idle

type t = {
  mutable total_ns : int;
  mutable ds_ns : int;
  mutable alloc_ns : int;
  mutable free_ns : int;  (** inclusive: all time while inside [free] *)
  mutable flush_ns : int;  (** inclusive: all time while inside a flush *)
  mutable lock_ns : int;
  mutable smr_ns : int;
  mutable idle_ns : int;
  mutable ops : int;
  mutable inserts : int;
  mutable deletes : int;
  mutable allocs : int;
  mutable frees : int;  (** objects returned to the allocator *)
  mutable retires : int;  (** objects handed to the SMR *)
  mutable epochs : int;  (** epoch advances / reclamation passes *)
  mutable flushes : int;  (** cache-overflow flush events *)
  mutable remote_frees : int;  (** objects returned to a remote owner *)
  mutable yields : int;  (** checkpoint yields actually performed *)
  mutable elided_yields : int;
      (** checkpoint yields elided because the thread stayed minimal *)
  mutable hp_scans : int;  (** hazard-pointer retire-list scans *)
  mutable hp_protect_retries : int;
      (** hazard-pointer protect/validate loops that had to retry *)
  mutable max_retired : int;
      (** high-water mark of any per-thread retire list; merged with [max],
          not summed, and not windowable by {!diff} (the [after] value is
          kept) *)
  mutable thread_spawns : int;
      (** threads that (re)joined the population mid-trial (churn) *)
  mutable thread_retires : int;  (** threads that retired mid-trial (churn) *)
  mutable teardown_frees : int;
      (** objects moved out of dying threads' caches by teardown flushes *)
  free_call_hist : Histogram.t;  (** latency of individual free calls *)
  op_hist : Histogram.t;  (** virtual latency of whole operations *)
}

val create : unit -> t

val add : t -> in_free:bool -> in_flush:bool -> bucket -> int -> unit
(** Attribute virtual nanoseconds; the flags implement inclusive free/flush
    accounting. *)

val merge : t -> t -> unit
(** [merge into t] accumulates [t]'s counters (and histogram) into [into]. *)

val copy : t -> t
(** Snapshot of the counters (shares the histogram). *)

val diff : before:t -> after:t -> t
(** Counter-wise difference, isolating a measurement window; the histogram
    is taken from [after]. *)

val pct : int -> int -> float
(** [pct part total] as a percentage; [0.] when [total = 0]. *)

val pct_free : t -> float
val pct_flush : t -> float
val pct_lock : t -> float
