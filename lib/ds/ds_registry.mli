(** Data structures by name. *)

val names : string list
(** ["abtree"; "occtree"; "dgt"; "skiplist"; "list"]. *)

val make : string -> Ds_intf.ctx -> Simcore.Sched.thread -> Ds_intf.t
(** Instantiate by name (a member of {!names}). The thread is needed
    because the ABtree allocates its initial leaf.
    @raise Invalid_argument on an unknown name. *)
