(** A façade over the binary {!Heap} and the hierarchical timing {!Wheel},
    for tests and micro-benchmarks that drive both with the same key
    stream.

    Both implementations pop in exactly the same [(key, seq)] order. The
    scheduler dispatches from a {!Wheel} directly; the heap is the
    precondition-free reference that the wheel is tested against. *)

type kind = Heap | Wheel

val to_string : kind -> string

val default_kind : unit -> kind
(** {!Wheel}, the queue the scheduler runs on. *)

type 'a t

val create : kind:kind -> dummy:'a -> 'a t
(** Monotone-key checking is always on (it is inherent to the wheel and
    enabled on the heap): a push behind the last popped key raises a
    descriptive [Failure] instead of silently reordering. *)

val push : 'a t -> key:int -> seq:int -> 'a -> unit

val pop_le_default : 'a t -> bound:int -> 'a
(** Remove and return the minimum element if its key is [<= bound], else
    the [dummy] sentinel — no allocation per dispatched event. Compare
    against the dummy physically. *)
