(** Binary min-heap keyed by [(time, sequence)].

    The insertion sequence number breaks ties, which makes the scheduler
    deterministic: events with equal timestamps pop in insertion order. *)

type 'a t

val create : dummy:'a -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val enable_monotone_check : 'a t -> unit
(** After this call, {!push} raises a descriptive [Failure] when given a
    key earlier than the last popped key, instead of silently reordering.
    {!Event_queue} enables this: its keys are scheduler clocks, which only
    move forward, so a regressing key is a scheduler bug worth failing
    loudly on. Off by default (a bare heap has no monotonicity
    contract). *)

val push : 'a t -> key:int -> seq:int -> 'a -> unit
(** [push h ~key ~seq x] inserts [x] with primary key [key] (virtual time)
    and tie-break [seq].
    @raise Failure on a clock regression when {!enable_monotone_check} is
    on. *)

val pop : 'a t -> 'a option
(** Removes and returns the minimum element. *)

val peek_key : 'a t -> int option
(** The minimum key without removing it. *)

val pop_le : 'a t -> bound:int -> 'a option
(** [pop_le h ~bound] removes and returns the minimum element if its key is
    [<= bound], in a single heap access. Returns [None] when the heap is
    empty or the minimum is beyond [bound]. *)

val pop_le_default : 'a t -> bound:int -> 'a
(** As {!pop_le} but returns the [dummy] sentinel instead of [None],
    allocating nothing per event. Compare the result against the dummy
    physically. *)

val has_le : 'a t -> bound:int -> bool
(** Whether some element has key [<= bound] (exact, O(1)). *)
