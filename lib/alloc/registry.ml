(* Allocators by name, for the CLI and benchmark harness. The table is the
   one source of truth: [names], [make] and the unknown-name error derive
   from it. *)

let table =
  [
    ("jemalloc", fun ?config s -> Jemalloc_sim.make Stock ?config s);
    ("jemalloc-ba", fun ?config s -> Jemalloc_sim.make Batch_aware ?config s);
    ("tcmalloc", Tcmalloc_sim.make);
    ("mimalloc", Mimalloc_sim.make);
    ("leak", Leak_alloc.make);
    ( "jemalloc-pool",
      fun ?config s ->
        fst (Pooled.wrap ~n:(Simcore.Sched.n_threads s) (Jemalloc_sim.make Stock ?config s)) );
  ]

let names = List.map fst table

let make ?config name sched =
  match List.assoc_opt name table with
  | Some mk -> mk ?config sched
  | None ->
      invalid_arg
        (Printf.sprintf "Alloc.Registry.make: unknown allocator %S (valid names: %s)" name
           (String.concat ", " names))
