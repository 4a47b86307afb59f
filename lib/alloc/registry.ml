(* Allocators by name, for the CLI and benchmark harness. *)

let names = [ "jemalloc"; "jemalloc-ba"; "tcmalloc"; "mimalloc"; "leak"; "jemalloc-pool" ]

let make ?config name sched =
  match name with
  | "jemalloc" -> Jemalloc_sim.make ?config sched
  | "jemalloc-ba" -> Jemalloc_batch_aware.make ?config sched
  | "jemalloc-pool" ->
      fst (Pooled.wrap ~n:(Simcore.Sched.n_threads sched) (Jemalloc_sim.make ?config sched))
  | "tcmalloc" -> Tcmalloc_sim.make ?config sched
  | "mimalloc" -> Mimalloc_sim.make ?config sched
  | "leak" -> Leak_alloc.make ?config sched
  | _ -> invalid_arg (Printf.sprintf "Alloc.Registry.make: unknown allocator %S" name)
