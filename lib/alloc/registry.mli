(** Allocator models by name. One table maps each name to its constructor;
    {!names}, {!make} and the unknown-name error derive from it. *)

val names : string list
(** ["jemalloc"] and ["jemalloc-ba"] are {!Jemalloc_sim}'s [Stock] and
    [Batch_aware] flush policies (the latter is the paper's footnote 3);
    then ["tcmalloc"], ["mimalloc"], ["leak"] and ["jemalloc-pool"], stock
    JEmalloc wrapped in {!Pooled} (footnote 4). *)

val make : ?config:Alloc_intf.config -> string -> Simcore.Sched.t -> Alloc_intf.t
(** Instantiate an allocator for a scheduler by name (a member of
    {!names}).
    @raise Invalid_argument on an unknown name, listing the valid ones. *)
