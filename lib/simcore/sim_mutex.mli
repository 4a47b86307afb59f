(** Virtual-time mutex with FIFO queueing, NUMA transfer penalties and
    futex-convoy modelling.

    Two contention mechanisms:
    - the lock may have been released at a virtual time in the acquirer's
      future (the holder ran its critical section without yielding): the
      acquirer waits until [available_at], and if the wait exceeds the spin
      budget it also pays a socket-dependent futex wake latency that chains
      into subsequent acquisitions — the convoy behind the paper's
      [je_malloc_mutex_lock_slow] observations;
    - a waiter queue for locks observed held, handed off FIFO.

    All waiting lands in the [Lock] metrics bucket. *)

type t = {
  name : string Lazy.t;  (** trace name, built on first use: only the tracer reads it *)
  mutable locked : bool;
  mutable available_at : int;  (** virtual time of the last release *)
  mutable holder_socket : int;  (** socket of the last holder; -1 initially *)
  waiters : Sched.thread Queue.t;
  mutable contended_acquires : int;
  mutable acquires : int;
  mutable acquired_at : int;  (** virtual time of the last acquisition *)
}

val create : ?name:string Lazy.t -> unit -> t

val lock : t -> Sched.thread -> unit
(** Acquire; yields first so acquisitions happen in global time order.
    @raise Failure when the lock is held and the thread is inside an atomic
    section, where it cannot wait (see {!Sched.suspend}). *)

val unlock : t -> Sched.thread -> unit
(** Release; wakes the first queued waiter if any.
    @raise Invalid_argument if the mutex is not locked. *)

val with_lock : t -> Sched.thread -> (unit -> 'a) -> 'a
(** [with_lock m th f] runs [f] under [m], releasing on exception. *)

val contention_ratio : t -> float
(** Fraction of acquisitions that found the lock contended. *)
