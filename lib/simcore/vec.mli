(** Growable arrays.

    [Vec.t] is a monomorphic [int] vector used on the simulator's hot paths
    (limbo bags, allocator free lists) to avoid boxing; {!Poly} is the
    polymorphic counterpart. *)

type t
(** A growable vector of [int]. *)

val create : ?capacity:int -> unit -> t
(** [create ()] is an empty vector. [capacity] preallocates storage. *)

val length : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** [clear v] resets the length to zero without shrinking storage. *)

val push : t -> int -> unit
(** [push v x] appends [x]. Amortized O(1). *)

val pop : t -> int
(** [pop v] removes and returns the last element.
    @raise Invalid_argument if [v] is empty. *)

val get : t -> int -> int
(** [get v i] is the [i]-th element.
    @raise Invalid_argument if [i] is out of bounds. *)

val set : t -> int -> int -> unit
(** [set v i x] replaces the [i]-th element.
    @raise Invalid_argument if [i] is out of bounds. *)

val unsafe_get : t -> int -> int
(** Unchecked {!get}; bounds are the caller's invariant. *)

val unsafe_set : t -> int -> int -> unit
(** Unchecked {!set}. *)

val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val append : t -> t -> unit
(** [append dst src] appends all of [src] to [dst]; [src] is unchanged. *)

val to_list : t -> int list
val of_list : int list -> t

val take_last : t -> int -> int array
(** [take_last v n] removes and returns the last [n] elements (fewer if the
    vector is shorter), in push order. *)

val take_front : t -> int -> int array
(** [take_front v n] removes and returns the first [n] elements (fewer if
    the vector is shorter), oldest first — the eviction order of allocator
    cache flushes. *)

val drop_front : t -> int -> unit
(** [drop_front v n] removes the first [n] elements (fewer if the vector is
    shorter) in place, allocating nothing: the hot-path sibling of
    {!take_front} for callers that read the prefix via {!get} first. *)

(** Polymorphic growable vectors. A [dummy] element backs unused slots so
    cleared entries do not retain heap objects. *)
module Poly : sig
  type 'a t

  val create : ?capacity:int -> dummy:'a -> unit -> 'a t
  val length : 'a t -> int
  val is_empty : 'a t -> bool
  val clear : 'a t -> unit
  val push : 'a t -> 'a -> unit
  val pop : 'a t -> 'a
  val get : 'a t -> int -> 'a
  val set : 'a t -> int -> 'a -> unit
  val iter : ('a -> unit) -> 'a t -> unit
  val to_list : 'a t -> 'a list
end
