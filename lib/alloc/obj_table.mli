(** Registry of simulated heap objects.

    A heap object is an integer handle with a size class, an
    allocator-specific {e home} (owner arena bin, central list, or page) and
    a live bit. The live bit turns memory-safety bugs into immediate
    detections: double frees and double allocations raise instead of being
    latent segfaults. Byte accounting distinguishes application-live bytes
    from total memory ever mapped from the virtual OS (the RSS analogue the
    paper plots as peak memory). *)

type t

val create : unit -> t

val count : t -> int
(** Objects ever created. *)

val live_count : t -> int
(** Objects currently allocated to the application. *)

val live_bytes : t -> int
val peak_live_bytes : t -> int

val mapped_bytes : t -> int
(** Memory ever obtained from the virtual OS; monotone, the RSS analogue. *)

val fresh : t -> size_class:int -> home:int -> int
(** Create a fresh (dead) object and return its handle. *)

val size_class : t -> int -> int
val home : t -> int -> int

val is_live : t -> int -> bool

val mark_live : t -> int -> unit
(** @raise Invalid_argument on double allocation. *)

val mark_dead : t -> int -> unit
(** @raise Invalid_argument on double free. *)
