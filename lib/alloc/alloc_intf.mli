(** Common interface of the allocator models.

    [malloc]/[free] run in the context of a simulated thread: they advance
    its virtual clock, take virtual locks and update its metrics. [free] is
    instrumented so every individual call's latency — the paper's central
    observable — lands in the thread's histogram and timeline hooks. *)

open Simcore

type config = {
  tcache_cap : int;  (** thread-cache capacity per size class *)
  flush_fraction : float;  (** fraction evicted on overflow (paper: ~3/4) *)
  refill_batch : int;  (** objects moved per cache refill *)
  page_bytes : int;  (** granularity of fresh memory *)
}

val default_config : config
(** Calibrated to JEmalloc's cache for the ABtree's 240-byte class. *)

type t = {
  name : string;
  table : Obj_table.t;
  malloc : Sched.thread -> int -> int;  (** size in bytes -> handle *)
  free : Sched.thread -> int -> unit;
  cached_objects : unit -> int;
      (** objects sitting in caches/bins, available for reuse *)
  thread_exit : Sched.thread -> unit;
      (** cache teardown when a simulated thread retires mid-trial:
          jemalloc's thread-death tcache flush, tcmalloc's central-list
          return. Runs on the dying thread's coroutine. *)
}

val instrument :
  name:string ->
  table:Obj_table.t ->
  raw_malloc:(Sched.thread -> int -> int) ->
  raw_free:(Sched.thread -> int -> unit) ->
  ?raw_thread_exit:(Sched.thread -> int) ->
  cached_objects:(unit -> int) ->
  unit ->
  t
(** Wrap raw entry points with the shared instrumentation: live-bit
    maintenance, alloc/free counters, inclusive free timing, histogram and
    hook reporting. [raw_thread_exit] implements the model's cache
    teardown and returns the number of objects moved out of the dying
    thread's caches (default: none); the wrapper accumulates that count
    into [teardown_frees] and traces the pass as a [Teardown_flush]
    span. *)

val overflow : Sched.thread -> objects:int -> cls:int -> unit
(** One cache overflow of [objects] in size class [cls]: counts it in
    [flushes] and emits an [Overflow] instant. The one writing site of
    that fact for every model. *)

val remote_free : Sched.thread -> objects:int -> home:int -> unit
(** [objects] returned to the remote owner [home]: counts them in
    [remote_frees] and emits a [Remote_free] instant. The one writing site
    of that fact for every model. *)

(** Zero-allocation flush-batch grouping. A [Grouper.t] is a set of
    per-allocator scratch buffers, reused across flushes, that sorts a batch
    of handles by home bin (stable on insertion order) — the order a flush
    visits destination bins — without allocating on the OCaml heap. Handles
    are keyed as int-packed [(home lsl shift) lor index]; runs come back as
    [(home, start, len)] slices over the sorted scratch. *)
module Grouper : sig
  type t

  val create : unit -> t

  val group : t -> Obj_table.t -> Simcore.Vec.t -> len:int -> unit
  (** [group t table v ~len] groups the first [len] handles of [v] by home.
      The caller typically follows with [Vec.drop_front v len].
      @raise Invalid_argument if [len] exceeds the vector's length or a home
      is too large to pack alongside the index. *)

  val length : t -> int
  (** Size of the most recently grouped batch. *)

  val handle : t -> int -> int
  (** [handle t i] is the [i]-th handle in (home, insertion-order) order. *)

  val home_at : t -> int -> int
  (** [home_at t i] is the home bin of [handle t i]. *)

  val iter_runs : t -> (home:int -> start:int -> len:int -> unit) -> unit
  (** Iterate the maximal same-home runs as [(home, start, len)] slices. *)
end
