(** JEmalloc 5.x small-object model (paper §3.2, Appendix B): per-thread
    caches over per-(arena, size class) bins, one arena per thread. Two
    flush policies share the bins, the caches, the refill and the grouped
    return of objects to their owner bins under each bin's lock; they
    differ in what a cache overflow and a thread's exit do. *)

type policy =
  | Stock
      (** JEmalloc as shipped (registry name ["jemalloc"]): an overflow
          flushes ~3/4 of the cache, visiting each destination bin once and
          scanning the whole remaining buffer under its lock, so a large
          batch free degenerates into many contended, quadratic flushes —
          the remote-batch-free problem. A thread's exit flushes its whole
          cache the same way. *)
  | Batch_aware
      (** The paper's footnote-3 future work (registry name
          ["jemalloc-ba"]): an overflow evicts a small chunk into a
          per-thread pending buffer, which every [free] drains a chunk at a
          time, without the scan, and refills reuse first. No single [free]
          degenerates into a giant contended flush: the allocator amortizes
          what AF amortizes at the reclaimer level. A thread's exit spills
          its cache into the buffer and drains it a chunk at a time. *)

val make : policy -> ?config:Alloc_intf.config -> Simcore.Sched.t -> Alloc_intf.t
