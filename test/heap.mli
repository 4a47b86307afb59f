(** Binary min-heap keyed by [(time, sequence)]: the precondition-free
    reference that {!Simcore.Event_queue} is tested against. Equal keys pop
    in [seq] order. *)

type 'a t

val create : dummy:'a -> 'a t

val push : 'a t -> key:int -> seq:int -> 'a -> unit
(** [push h ~key ~seq x] inserts [x] with primary key [key] and tie-break
    [seq]. *)

val pop_le_default : 'a t -> bound:int -> 'a
(** Remove and return the minimum element if its key is [<= bound], else
    return the [dummy]. *)

val has_le : 'a t -> bound:int -> bool
(** Whether some element has key [<= bound]. *)
