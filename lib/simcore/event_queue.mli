(** The scheduler's event queue: a winner (tournament) tree over fixed
    slots, one per simulated thread, keyed by [(key, seq)].

    A thread has at most one queued event, its next resumption, so a slot
    holds at most one event and the payload is the slot itself. The
    minimum sits at the root: {!has_le} and {!peek_le_default} are O(1),
    and {!push}, {!rekey}, {!remove} and {!pop_le_default} each replay one
    leaf-to-root path (8 levels at 192 slots, 5 at 32) without a
    data-dependent branch. Equal keys order by [seq]. Steady-state updates
    allocate nothing; capacity doubles on demand.

    The scheduler keeps the running thread in its slot: {!peek_le_default}
    dispatches the root without removing it, and the thread {!rekey}s its
    own slot at each checkpoint, so a context switch costs one replay. *)

type kind = Tree
(** The only implementation. The type is kept so that the host-cost
    benchmark in [perf/] compiles unchanged; nothing else uses it. *)

val default_kind : unit -> kind

type t

val create : kind:kind -> dummy:int -> t
(** An empty tree. [dummy] is what {!peek_le_default} and
    {!pop_le_default} return when nothing is due, so it must not be a
    slot; the scheduler uses [-1]. *)

val push : t -> key:int -> seq:int -> int -> unit
(** [push t ~key ~seq slot] queues an event for [slot] (>= 0) with primary
    key [key] (virtual time) and tie-break [seq] (below [max_int]; the
    scheduler's counter grows with every push and re-key).
    @raise Failure naming the slot when [slot] already holds an event,
    and naming the key on a clock regression: [key] earlier than the last
    dispatched key. *)

val rekey : t -> key:int -> seq:int -> int -> int
(** [rekey t ~key ~seq slot] moves [slot]'s event to [(key, seq)] in one
    replay and returns the slot now at the root. The scheduler re-keys the
    running thread with a fresh, maximal [seq], so the root is still that
    thread iff no other event has a key [<= key].
    @raise Failure naming the slot when it holds no event, and naming the
    key when it is earlier than the last dispatched key. *)

val remove : t -> int -> unit
(** Free [slot], dropping its event.
    @raise Failure naming the slot when it holds no event. *)

val peek_le_default : t -> bound:int -> int
(** The minimum event's slot, left in place, if its key is [<= bound],
    else the dummy. A returned slot is dispatched: its key becomes the
    clock-regression floor, as in {!pop_le_default}. *)

val pop_le_default : t -> bound:int -> int
(** Remove the minimum event and return its slot if its key is
    [<= bound], else return the dummy. *)

val has_le : t -> bound:int -> bool
(** Whether some event has key [<= bound]. Exact, O(1). *)
