(** Free policies: eager batch free vs the paper's amortized free (AF).

    Once an SMR algorithm has identified a batch as safe, the policy
    decides when it actually reaches the allocator: [Batch] frees the whole
    batch immediately (the anti-pattern the paper diagnoses); [Amortized k]
    splices it onto a thread-local {e freeable} list and frees [k] objects
    per operation. Paper §7 recommends matching [k] to the structure's
    allocation rate (1 for the ABtree). *)

open Simcore

type mode = Batch | Amortized of int

val mode_name : mode -> string

type t = {
  mode : mode;
  alloc : Alloc.Alloc_intf.t;
  safety : Safety.t option;
  freeable : Vec.t array;  (** per thread: safe to free, not yet freed *)
  splice_cost : int;
}

val create :
  ?safety:Safety.t -> mode:mode -> alloc:Alloc.Alloc_intf.t -> n:int -> unit -> t

val free_one : t -> Sched.thread -> int -> unit
(** Free a single object through the safety validator. *)

val reclaimed : Sched.thread -> start:int -> count:int -> unit
(** Report a batch of [count] frees that began at [start] and ends now: a
    [Reclaim] trace span and the thread's [on_reclaim_event] hook. *)

val dispose : t -> Sched.thread -> Vec.t -> unit
(** Hand over a safe batch; consumes (clears) the bag. Under [Batch] this
    frees everything now and reports a reclamation event to the thread's
    timeline hooks; under [Amortized] it is an O(1) splice. *)

val tick : t -> Sched.thread -> unit
(** Called once per data-structure operation: under AF, frees up to [k]
    objects from the freeable list. *)

val drain_all : t -> Sched.thread -> int
(** Thread teardown: free the calling thread's whole freeable backlog (it
    is already grace-proven; no more ticks will drain it). Returns the
    number of objects freed. *)

val pending : t -> int -> int
(** Safe-but-unfreed objects held for a thread. *)

val total_pending : t -> int
