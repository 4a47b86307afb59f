(* Real multicore OCaml: epoch-based reclamation of off-heap memory.

     dune exec examples/multicore_offheap.exe

   OCaml's GC frees heap values for you — but not Bigarray slabs, C
   buffers or descriptors referenced from lock-free structures. This
   example runs four domains over a shared Treiber stack whose payloads
   are blocks of an off-heap slab: pops retire blocks through the paper's
   Token-EBR (amortized), and the per-block sequence numbers prove no
   block was ever recycled while a domain could still read it. It exits 1
   on a use-after-free or when a block is not back in the slab at the
   end. *)

let () =
  let domains = 4 and ops = 50_000 and blocks = 8192 in
  let slab = Parallel.Slab.create ~blocks ~block_words:8 in
  let stack = Parallel.Treiber_stack.create () in
  let ring =
    Parallel.Token_ring.create ~mode:(Parallel.Token_ring.Amortized 1) ~max_domains:domains ()
  in
  let handles = Array.init domains (fun _ -> Parallel.Token_ring.register ring) in
  let violations = Atomic.make 0 in
  let worker i () =
    let h = handles.(i) in
    for op = 1 to ops do
      Parallel.Token_ring.enter h;
      (if (op + i) land 1 = 0 then
         match Parallel.Slab.alloc slab with
         | Some b ->
             Parallel.Slab.write slab b ~word:0 (b lxor 0x5A5A);
             Parallel.Treiber_stack.push stack ~value:b ~seq:(Parallel.Slab.sequence slab b)
         | None -> ()
       else
         match Parallel.Treiber_stack.pop stack with
         | Some (b, seq) ->
             if
               Parallel.Slab.sequence slab b <> seq
               || Parallel.Slab.read slab b ~word:0 <> b lxor 0x5A5A
             then Atomic.incr violations;
             Parallel.Token_ring.retire h (fun () -> Parallel.Slab.free slab b)
         | None -> ());
      Parallel.Token_ring.exit h
    done
  in
  let t0 = Unix.gettimeofday () in
  let ds = Array.init domains (fun i -> Domain.spawn (worker i)) in
  Array.iter Domain.join ds;
  let dt = Unix.gettimeofday () -. t0 in
  let retired = Array.fold_left (fun a h -> a + Parallel.Token_ring.retired h) 0 handles in
  let released = Array.fold_left (fun a h -> a + Parallel.Token_ring.released h) 0 handles in
  let receipts = Array.fold_left (fun a h -> a + Parallel.Token_ring.receipts h) 0 handles in
  Printf.printf "%d domains x %d ops in %.2fs (%.1fM ops/s)\n" domains ops dt
    (float_of_int (domains * ops) /. dt /. 1e6);
  Printf.printf "token receipts: %d   blocks retired: %d   released in-flight: %d\n"
    receipts retired released;
  Printf.printf "use-after-free detections: %d (must be 0)\n" (Atomic.get violations);
  Array.iter Parallel.Token_ring.flush_unsafe handles;
  let rec drain () =
    match Parallel.Treiber_stack.pop stack with
    | Some (b, _) -> Parallel.Slab.free slab b; drain ()
    | None -> ()
  in
  drain ();
  let free = Parallel.Slab.free_blocks slab and capacity = Parallel.Slab.capacity slab in
  Printf.printf "blocks conserved: %d/%d back on the free list\n" free capacity;
  if Atomic.get violations > 0 || free <> capacity then Stdlib.exit 1
