(** The scheduler's event queue: a winner (tournament) tree over fixed
    slots, one per simulated thread, keyed by [(key, seq)].

    A thread has at most one queued event, its next resumption, so a slot
    holds at most one event and the payload is the slot itself. The
    minimum sits at the root: {!has_le} is exact and O(1), and {!push} and
    {!pop_le_default} each replay one leaf-to-root path (8 levels at 192
    slots, 5 at 32). Equal keys pop in [seq] order. Steady-state push and
    pop allocate nothing; capacity doubles on demand. *)

type kind = Tree
(** The only implementation. The type is kept so that the host-cost
    benchmark in [perf/] compiles unchanged; nothing else uses it. *)

val default_kind : unit -> kind

type t

val create : kind:kind -> dummy:int -> t
(** An empty tree. [dummy] is what {!pop_le_default} returns when nothing
    is due, so it must not be a slot; the scheduler uses [-1]. *)

val push : t -> key:int -> seq:int -> int -> unit
(** [push t ~key ~seq slot] queues an event for [slot] (>= 0) with primary
    key [key] (virtual time) and tie-break [seq] (below [max_int]; the
    scheduler's counter grows with every push).
    @raise Failure naming the slot when [slot] already holds an event,
    and naming the key on a clock regression: [key] earlier than the last
    popped key. *)

val pop_le_default : t -> bound:int -> int
(** Remove the minimum event and return its slot if its key is
    [<= bound], else return the dummy. *)

val has_le : t -> bound:int -> bool
(** Whether some event has key [<= bound]. Exact, O(1). *)

val mem : t -> int -> bool
(** Whether [slot] holds an event. *)
