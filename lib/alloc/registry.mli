(** Allocator models by name. *)

val names : string list
(** Includes the stock models, the batch-aware JEmalloc variant
    ("jemalloc-ba") and pooled JEmalloc ("jemalloc-pool"). *)

val make : ?config:Alloc_intf.config -> string -> Simcore.Sched.t -> Alloc_intf.t
(** Instantiate an allocator for a scheduler by name (a member of
    {!names}).
    @raise Invalid_argument on an unknown name. *)
