(** The discrete-event scheduler.

    Simulated threads are OCaml 5 effect-handler coroutines with local
    virtual clocks. CPU work advances a thread's clock without yielding; at
    {e checkpoints} (operation boundaries, lock acquisitions) the thread
    yields and the scheduler resumes whichever thread has the smallest
    clock. This min-clock discipline makes virtual lock acquisitions happen
    in (near) global time order, so contention — and the paper's
    remote-batch-free pathology — is emergent rather than scripted.

    Runs are exactly reproducible for a fixed seed: ties are broken by
    insertion order. *)

(** Per-thread instrumentation hooks (timelines, garbage traces). *)
type hooks = {
  mutable on_reclaim_event : start:int -> stop:int -> count:int -> unit;
      (** a batch of objects was freed — a paper "reclamation event" *)
  mutable on_epoch_advance : time:int -> epoch:int -> unit;
  mutable on_free_call : start:int -> stop:int -> unit;
      (** one allocator [free] call completed *)
  mutable on_epoch_garbage : epoch:int -> count:int -> unit;
      (** unreclaimed objects held by this thread when it entered [epoch] *)
}

val no_hooks : unit -> hooks

type thread = {
  tid : int;
  socket : int;  (** socket under the paper's pinning policy *)
  core : int;
  cpu_factor : float;  (** >1 when sharing a physical core (SMT) *)
  rng : Rng.t;  (** thread-private random stream *)
  metrics : Metrics.t;
  sched : t;
  hooks : hooks;
  mutable clock : int;  (** local virtual time, ns *)
  mutable in_free : bool;  (** inside an allocator free call *)
  mutable in_flush : bool;  (** inside a cache flush *)
  mutable atomic_depth : int;  (** > 0 suppresses checkpoints *)
  mutable next_preempt : int;
      (** next involuntary context switch under oversubscription *)
  mutable pending : (unit, unit) Effect.Deep.continuation option;
      (** parked continuation while queued or suspended *)
  mutable suspended : bool;  (** blocked on {!suspend}, waiting for {!ready} *)
  mutable alive : bool;  (** false between {!retire} and the next {!respawn} *)
  mutable teardown : (thread -> unit) list;
      (** teardown hooks (see {!on_teardown}); registration order is
          recovered by {!retire}, and the list persists across
          retire/respawn cycles *)
}

and t

val create :
  ?cost:Cost_model.t -> topology:Topology.t -> n_threads:int -> seed:int -> unit -> t
(** Build a scheduler with [n_threads] simulated threads pinned to
    [topology]. Thread counts beyond the machine are oversubscribed:
    threads share logical CPUs and are periodically preempted for whole
    timeslices (the paper's 240-thread configuration).

    One event loop dispatches every thread from one {!Event_queue}, a
    tournament tree with one slot per thread, in exact [(clock, seq)]
    order. The running thread keeps its slot, so a context switch costs
    one path replay.
    @raise Invalid_argument when [n_threads <= 0]. *)

val threads : t -> thread array
val thread : t -> int -> thread
val cost : t -> Cost_model.t
val topology : t -> Topology.t
val n_threads : t -> int

val set_tracer : t -> Tracer.t -> unit
(** Install an event recorder: the scheduler, {!Sim_mutex}, the allocators
    and the SMR cores will emit trace events into it. The default is
    {!Tracer.disabled} (a branch-only no-op). Recording never touches a
    thread's clock or metrics, so virtual-time results are bit-identical
    with tracing on or off. *)

val tracer : t -> Tracer.t

val work : ?scaled:bool -> thread -> Metrics.bucket -> int -> unit
(** Advance the clock by CPU work (SMT-scaled unless [scaled:false]) and
    attribute it. Does not yield.
    @raise Invalid_argument on a negative cost. *)

val work_n : ?scaled:bool -> thread -> Metrics.bucket -> per:int -> count:int -> unit
(** [work_n th bucket ~per ~count] charges [count] objects of [per] ns each
    in one step: the SMT scaling rounds [per] once and the result is
    multiplied by [count], so the charge is bit-identical to a
    [count]-iteration loop of {!work} while costing O(1) host time.
    @raise Invalid_argument on a negative cost or count. *)

val wait : thread -> Metrics.bucket -> int -> unit
(** Advance the clock by waiting time (never SMT-scaled).
    @raise Invalid_argument on a negative duration. *)

val now : thread -> int

val checkpoint : thread -> unit
(** Yield; resumes when this thread is again minimal. The running thread
    holds its slot: the checkpoint re-keys it to [(clock, fresh seq)] and
    yields iff another thread is now at the root (some other event is due
    at or before [clock]) or [clock] is past the hard deadline; otherwise
    the yield is elided. Suppressed inside {!atomically}.
    @raise Failure naming the thread when it is not the one {!run}
    dispatched: outside {!run}, or on another thread's record. *)

val set_controller : t -> (thread -> int) option -> unit
(** Install (or remove) a {e schedule controller}, consulted at every
    checkpoint with the yielding thread. A positive return value is
    injected as an idle stall before the yield, pushing the thread's
    resumption into the virtual future so a different thread runs first —
    the primitive the model checker's exploration strategies are built on.
    The baseline schedule is unchanged while the controller returns 0, and
    a run is exactly reproducible for a fixed controller decision
    sequence. Default: [None] (no perturbation). *)

val atomically : thread -> (unit -> 'a) -> 'a
(** Run an atomic block — no other simulated thread interleaves — modelling
    a linearizable data structure operation. Costs still accrue. *)

val atomic_enter : thread -> unit
val atomic_exit : thread -> unit
(** Bracket form of {!atomically} for hot loops where the thunk would be a
    fresh closure per call. Callers must guarantee [atomic_exit] runs on
    every path out of the block, including exceptional ones. *)

val suspend : thread -> unit
(** Block until {!ready}. The running thread frees the slot it holds, then
    parks.
    @raise Failure (naming the thread and the depth) inside {!atomically}
    or an {!atomic_enter} bracket: other threads must not run in the middle
    of an atomic operation; and naming the thread when it is not the one
    {!run} dispatched. *)

val ready : thread -> unit
(** Make a suspended thread runnable at its current clock.
    @raise Invalid_argument if the thread is not suspended. *)

val spawn : t -> thread -> (thread -> unit) -> unit
(** Schedule [body] to run on [thread] at its current clock: the coroutine
    starts and parks before [body]'s first instruction, then the thread is
    queued. The running thread may spawn (respawn) itself: it still holds
    its slot, which is re-keyed and handed to the new body, and the rest of
    the calling body must not checkpoint or suspend.
    @raise Failure naming the thread when it is already queued or
    suspended: a thread has one coroutine and at most one queued event. *)

val on_teardown : thread -> (thread -> unit) -> unit
(** Register a teardown hook, run by {!retire} in registration order. The
    runner registers the SMR deregistration and allocator cache-teardown
    chain here. Hooks persist across retire/respawn cycles, so a thread
    that churns repeatedly tears down the same way every time. *)

val retire : t -> tid:int -> unit
(** Retire thread [tid] mid-trial: mark it dead (so token passing, epoch
    scans and orphan adoption skip it immediately), count one
    [thread_retires], trace a [Thread_retire] instant, and run the
    teardown hook chain. Retirement is {e cooperative}: teardown hooks
    charge virtual time and may suspend on locks, so this must be called
    from the retiring thread's own coroutine at an operation boundary —
    the runner checks each thread's churn deadline between operations.
    @raise Failure (descriptively) on an unknown or already-retired tid,
    instead of corrupting the event queue with a dead thread's resume. *)

val respawn : t -> tid:int -> at:int -> (thread -> unit) -> unit
(** Schedule a retired thread to rejoin at virtual time [at]: its downtime
    is charged as idle up front (the clock reads [at] when the spawn event
    pops), and the spawn event dispatches through the normal queue, so
    respawns are bit-identical across host [-j]. The body runs cold: caches and SMR slots were torn down at
    retirement. Counts one [thread_spawns] and traces [Thread_spawn].
    @raise Failure on an unknown tid, a tid that is still alive, a respawn
    already scheduled for this tid, or [at] before the thread's clock. *)

val set_hard_deadline : t -> int -> unit
(** Set the {!run} cutoff (virtual ns). May be called mid-run, e.g. once
    the last thread finishes prefilling and the measured window — and
    therefore the cutoff — becomes known. Defaults to [max_int] (no
    cutoff). *)

val run : t -> unit
(** Run until no runnable thread remains or virtual time would pass the
    hard deadline set via {!set_hard_deadline}; the remaining work is then
    abandoned — the end of a wall-clock-limited trial. Each dispatch
    resumes the thread at the root without removing it: the running thread
    holds its slot until it yields (re-keyed), suspends (freed) or finishes
    its body (freed when the dispatch returns). *)
