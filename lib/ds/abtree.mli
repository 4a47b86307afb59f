(** Brown's relaxed (a,b)-tree — the paper's "ABtree".

    Leaf-oriented with copy-on-write leaves: in the model every successful
    insert or delete copies the affected 240-byte leaf (one or two
    allocations, one or two retires), the allocation profile that makes
    the ABtree the remote-batch-free victim of the paper. Internal nodes
    are mutated in place and allocated on splits; balance is relaxed.

    The host does not copy: a leaf's key array is updated in place and
    only its allocator handle is replaced, with the same [malloc] and
    [retire] calls, in the same order, as the copy. A descent allocates
    nothing, so [contains] allocates only its result. *)

val node_bytes : int

val make : ?a:int -> ?b:int -> Ds_intf.ctx -> Simcore.Sched.thread -> Ds_intf.t
(** [make ctx th] builds an empty tree, allocating its initial leaf on
    [th]. Defaults: [a = 6], [b = 16].
    @raise Invalid_argument unless [a >= 2] and [b >= 2a-1]. *)
