(** Off-heap slab allocator over a Bigarray, lock-free.

    Fixed-size integer-word blocks carved from one off-heap buffer, with a
    per-block sequence number bumped on every free so recycled-under-reader
    blocks are detectable — the observable analogue of a use-after-free.

    {!alloc} and {!free} take no lock: free blocks sit on a Treiber stack
    whose head packs an ABA tag with the top block, linked through a
    second Bigarray the GC never scans. Any number of domains may call
    them at once.

    Order: on one domain, [alloc] returns the most recently freed block
    still free (LIFO), and once every freed block is taken, the blocks
    never allocated in index order ([0], [1], ...). It is the order of a
    free list that starts as [[0; 1; ...; blocks - 1]], takes from its head
    and frees onto it, and it is the same at every run. *)

type t

val create : blocks:int -> block_words:int -> t
(** @raise Invalid_argument on non-positive parameters, or when [blocks]
    is so large (2{^31} or more) that the ABA tag would get fewer than 32
    bits. *)

val alloc : t -> int option
(** A free block index, or [None] when exhausted. Thread-safe and
    lock-free. *)

val free : t -> int -> unit
(** Return a block (bumping its sequence number). Thread-safe and
    lock-free. Freeing a block twice without allocating it in between
    corrupts the free stack; {!free_blocks} reports it. *)

val sequence : t -> int -> int
(** The block's current sequence number. *)

val write : t -> int -> word:int -> int -> unit
(** @raise Invalid_argument on an out-of-range word index. *)

val read : t -> int -> word:int -> int

val live_blocks : t -> int
(** [capacity - free_blocks]; exact only at quiescence, like
    {!free_blocks}. *)

val free_blocks : t -> int
(** Blocks on the free stack plus blocks never allocated, found by
    walking the stack. Exact only at quiescence: called while other
    domains allocate or free, it may miscount, or fail as below.
    @raise Failure naming the slab when the stack holds more blocks than
    were ever allocated — a block freed twice, whose links now cycle. *)

val capacity : t -> int
