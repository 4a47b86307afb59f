(* The real-multicore component: EBR and Token-EBR over OCaml Domains and
   Atomics, protecting off-heap slab blocks referenced from a lock-free
   stack. Single-domain tests check the protocols deterministically;
   multi-domain stress tests assert safety (no block recycled while
   observable) and conservation (every block accounted for at the end). *)

let test_slab_basics () =
  let s = Parallel.Slab.create ~blocks:4 ~block_words:2 in
  Alcotest.(check int) "capacity" 4 (Parallel.Slab.capacity s);
  let b = Option.get (Parallel.Slab.alloc s) in
  Parallel.Slab.write s b ~word:0 42;
  Alcotest.(check int) "write/read" 42 (Parallel.Slab.read s b ~word:0);
  Alcotest.(check int) "live" 1 (Parallel.Slab.live_blocks s);
  let seq0 = Parallel.Slab.sequence s b in
  Parallel.Slab.free s b;
  Alcotest.(check int) "sequence bumped on free" (seq0 + 1) (Parallel.Slab.sequence s b);
  Alcotest.(check int) "back on the free list" 4 (Parallel.Slab.free_blocks s)

let test_slab_exhaustion () =
  let s = Parallel.Slab.create ~blocks:2 ~block_words:1 in
  let a = Option.get (Parallel.Slab.alloc s) in
  let b = Option.get (Parallel.Slab.alloc s) in
  Alcotest.(check (option int)) "exhausted" None (Parallel.Slab.alloc s);
  Parallel.Slab.free s a;
  Parallel.Slab.free s b;
  Alcotest.(check bool) "reusable" true (Parallel.Slab.alloc s <> None)

(* The lock-free slab against the list slab it replaced ([Slab_ref]): the
   same script of allocs and frees, run on one domain, must hand out the
   same block at every step and leave the same sequence numbers,
   [free_blocks] and [live_blocks]. Bursts of allocs run the slab dry
   (alloc returns [None]) and bursts of frees fill it back up. *)
type slab_op = Alloc | Free of int  (* free the i-th held block, mod the count held *)

let slab_script_arb =
  let open QCheck.Gen in
  let burst = pair (int_bound 12) (list_size (int_bound 12) (int_bound 1000)) in
  let script =
    list_size (int_range 1 12) burst
    >|= List.concat_map (fun (allocs, frees) ->
            List.init allocs (fun _ -> Alloc) @ List.map (fun i -> Free i) frees)
  in
  QCheck.make
    ~print:(fun (blocks, ops) -> Printf.sprintf "<%d blocks, %d ops>" blocks (List.length ops))
    (pair (int_range 1 10) script)

let slab_matches_reference (blocks, ops) =
  let s = Parallel.Slab.create ~blocks ~block_words:1 in
  let r = Slab_ref.create ~blocks ~block_words:1 in
  let same_state () =
    Parallel.Slab.free_blocks s = Slab_ref.free_blocks r
    && Parallel.Slab.live_blocks s = Slab_ref.live_blocks r
    && List.for_all
         (fun b -> Parallel.Slab.sequence s b = Slab_ref.sequence r b)
         (List.init blocks Fun.id)
  in
  let rec go held = function
    | [] -> true
    | Alloc :: rest ->
        let got = Parallel.Slab.alloc s in
        got = Slab_ref.alloc r && same_state ()
        && go (match got with Some b -> held @ [ b ] | None -> held) rest
    | Free _ :: rest when held = [] -> go held rest
    | Free i :: rest ->
        let b = List.nth held (i mod List.length held) in
        Parallel.Slab.free s b;
        Slab_ref.free r b;
        same_state () && go (List.filter (( <> ) b) held) rest
  in
  go [] ops

let prop_slab_matches_reference =
  Helpers.prop ~count:300 "slab matches list reference" slab_script_arb slab_matches_reference

(* Two domains share a 3-block slab, each holding up to two blocks at a
   time, so the slab runs dry. A per-block owner flag catches a block
   handed to both; at the end every block is back and each free bumped
   exactly one sequence number. This checks exclusion and conservation
   under real contention, not ABA safety: the pop's stale-link window is
   a few instructions wide, and the test passes with the tag removed, so
   ABA safety rests on the tag argument in lib/parallel/slab.ml. *)
let test_slab_two_domain_stress () =
  let blocks = 3 and rounds = 100_000 in
  let slab = Parallel.Slab.create ~blocks ~block_words:1 in
  let owner = Array.init blocks (fun _ -> Atomic.make 0) in
  let held_twice = Atomic.make 0 and frees = Atomic.make 0 in
  let take id = function
    | Some b as got ->
        if not (Atomic.compare_and_set owner.(b) 0 id) then Atomic.incr held_twice;
        got
    | None -> None
  in
  let give = function
    | Some b ->
        Atomic.set owner.(b) 0;
        Parallel.Slab.free slab b;
        Atomic.incr frees
    | None -> ()
  in
  let worker id () =
    for _ = 1 to rounds do
      let a = take id (Parallel.Slab.alloc slab) in
      let b = take id (Parallel.Slab.alloc slab) in
      give b;
      give a
    done
  in
  let ds = [ Domain.spawn (worker 1); Domain.spawn (worker 2) ] in
  List.iter Domain.join ds;
  Alcotest.(check int) "no block held twice" 0 (Atomic.get held_twice);
  Alcotest.(check int) "every block back" blocks (Parallel.Slab.free_blocks slab);
  Alcotest.(check int) "nothing live" 0 (Parallel.Slab.live_blocks slab);
  let seq_sum = List.fold_left (fun a b -> a + Parallel.Slab.sequence slab b) 0 (List.init blocks Fun.id) in
  Alcotest.(check int) "one sequence bump per free" (Atomic.get frees) seq_sum

(* A block freed twice makes the free stack's links cycle: [free_blocks]
   fails naming the slab instead of walking forever (the list slab
   counted [capacity + 1]). *)
let test_slab_double_free () =
  let s = Parallel.Slab.create ~blocks:4 ~block_words:1 in
  let b = Option.get (Parallel.Slab.alloc s) in
  Parallel.Slab.free s b;
  Parallel.Slab.free s b;
  match Parallel.Slab.free_blocks s with
  | n -> Alcotest.failf "free_blocks counted %d after a double free" n
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the slab and the misuse: %s" msg)
        true
        (Helpers.contains msg "Slab.free_blocks" && Helpers.contains msg "4-block slab"
        && Helpers.contains msg "freed twice")

(* The head packs an ABA tag above the block index; [create] refuses a
   slab whose index would leave the tag fewer than 32 bits, before it
   allocates anything. The block size makes the buffer's word count
   overflow to a negative number, so a slab that got past the check would
   fail in [Bigarray] with another message instead of allocating. *)
let test_slab_rejects_narrow_tag () =
  match Parallel.Slab.create ~blocks:(1 lsl 31) ~block_words:((1 lsl 31) - 1) with
  | _ -> Alcotest.fail "a 2^31-block slab was accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the tag: %s" msg)
        true
        (Helpers.contains msg "Slab.create" && Helpers.contains msg "tag")

let test_stack_sequential () =
  let st = Parallel.Treiber_stack.create () in
  Alcotest.(check bool) "empty" true (Parallel.Treiber_stack.is_empty st);
  Parallel.Treiber_stack.push st ~value:1 ~seq:0;
  Parallel.Treiber_stack.push st ~value:2 ~seq:0;
  Alcotest.(check int) "length" 2 (Parallel.Treiber_stack.length st);
  Alcotest.(check (option (pair int int))) "lifo" (Some (2, 0)) (Parallel.Treiber_stack.pop st);
  Alcotest.(check (option (pair int int))) "lifo 2" (Some (1, 0)) (Parallel.Treiber_stack.pop st);
  Alcotest.(check (option (pair int int))) "drained" None (Parallel.Treiber_stack.pop st)

(* The hazard EBR prevents, demonstrated deterministically: a stale holder
   of a node sees the block's sequence change when the block is freed and
   recycled without a grace period. *)
let test_sequence_detects_recycling () =
  let s = Parallel.Slab.create ~blocks:2 ~block_words:1 in
  let st = Parallel.Treiber_stack.create () in
  let b = Option.get (Parallel.Slab.alloc s) in
  Parallel.Treiber_stack.push st ~value:b ~seq:(Parallel.Slab.sequence s b);
  (* A "reader" holds the node... *)
  let node_value, node_seq =
    match Parallel.Treiber_stack.pop st with Some (v, q) -> (v, q) | None -> assert false
  in
  (* ...while the block is freed immediately (no grace period) and
     recycled by someone else. *)
  Parallel.Slab.free s node_value;
  let b2 = Option.get (Parallel.Slab.alloc s) in
  Alcotest.(check int) "allocator recycled the same block" node_value b2;
  Alcotest.(check bool) "stale reader detects the recycling" true
    (Parallel.Slab.sequence s node_value <> node_seq)

let test_ebr_single_domain_protocol () =
  let ebr = Parallel.Ebr.create ~check_every:1 ~max_domains:1 () in
  let h = Parallel.Ebr.register ebr in
  let released = ref [] in
  Parallel.Ebr.enter h;
  Parallel.Ebr.retire h (fun () -> released := 1 :: !released);
  Parallel.Ebr.exit h;
  (* One registered domain: each enter can advance the epoch by one; the
     callback must wait out three epochs (announcement-skew safety). *)
  Parallel.Ebr.enter h;
  Parallel.Ebr.exit h;
  Alcotest.(check (list int)) "not released after one epoch" [] !released;
  for _ = 1 to 6 do
    Parallel.Ebr.enter h;
    Parallel.Ebr.exit h
  done;
  Alcotest.(check (list int)) "released after the grace period" [ 1 ] !released;
  Alcotest.(check int) "accounting" 1 (Parallel.Ebr.released h);
  Alcotest.(check int) "nothing pending" 0 (Parallel.Ebr.pending h)

let test_ebr_amortized_drains () =
  let ebr = Parallel.Ebr.create ~mode:(Parallel.Ebr.Amortized 1) ~check_every:1 ~max_domains:1 () in
  let h = Parallel.Ebr.register ebr in
  let count = ref 0 in
  Parallel.Ebr.enter h;
  for _ = 1 to 8 do
    Parallel.Ebr.retire h (fun () -> incr count)
  done;
  Parallel.Ebr.exit h;
  (* Let the bag become safe, then watch it drain one per operation. *)
  for _ = 1 to 8 do
    Parallel.Ebr.enter h;
    Parallel.Ebr.exit h
  done;
  let after_safety = !count in
  Alcotest.(check bool) "drains gradually, not all at once" true
    (after_safety > 0 && after_safety < 8);
  for _ = 1 to 10 do
    Parallel.Ebr.enter h;
    Parallel.Ebr.exit h
  done;
  Alcotest.(check int) "eventually all released" 8 !count

let test_ebr_two_handles_interleaved () =
  (* Two handles driven from one thread, interleaved: the epoch can only
     advance when BOTH have announced it, and a callback retired by A is
     only released after B keeps entering new operations. *)
  let ebr = Parallel.Ebr.create ~check_every:1 ~max_domains:2 () in
  let a = Parallel.Ebr.register ebr in
  let b = Parallel.Ebr.register ebr in
  let released = ref false in
  Parallel.Ebr.enter a;
  Parallel.Ebr.retire a (fun () -> released := true);
  Parallel.Ebr.exit a;
  (* Only A keeps running: B never enters, so the epoch cannot advance and
     the callback must stay pending. *)
  for _ = 1 to 10 do
    Parallel.Ebr.enter a;
    Parallel.Ebr.exit a
  done;
  Alcotest.(check bool) "a stalled thread blocks reclamation" false !released;
  (* B's registration announced epoch 0, permitting at most one advance;
     after that the epoch is stuck until B actually runs. *)
  Alcotest.(check bool) "epoch stuck after at most one advance" true
    (Parallel.Ebr.current_epoch ebr <= 1);
  (* B participates: epochs advance and the callback is eventually run. *)
  for _ = 1 to 12 do
    Parallel.Ebr.enter a;
    Parallel.Ebr.exit a;
    Parallel.Ebr.enter b;
    Parallel.Ebr.exit b
  done;
  Alcotest.(check bool) "epochs advance with both" true (Parallel.Ebr.current_epoch ebr >= 3);
  Alcotest.(check bool) "released after grace period" true !released

(* --- Amortized-mode edge cases --- *)

let cycle_ebr h n =
  for _ = 1 to n do
    Parallel.Ebr.enter h;
    Parallel.Ebr.exit h
  done

let test_ebr_amortized_k0_never_drains () =
  (* k=0 is the degenerate amortization: safe callbacks pile up on the
     freeable list and nothing ever runs them until an explicit flush. The
     protocol must neither release nor lose them. *)
  let ebr = Parallel.Ebr.create ~mode:(Parallel.Ebr.Amortized 0) ~check_every:1 ~max_domains:1 () in
  let h = Parallel.Ebr.register ebr in
  let count = ref 0 in
  Parallel.Ebr.enter h;
  for _ = 1 to 5 do
    Parallel.Ebr.retire h (fun () -> incr count)
  done;
  Parallel.Ebr.exit h;
  cycle_ebr h 20;
  Alcotest.(check int) "k=0 releases nothing" 0 !count;
  Alcotest.(check int) "all five still pending" 5 (Parallel.Ebr.pending h);
  Parallel.Ebr.flush_unsafe h;
  Alcotest.(check int) "flush releases the backlog" 5 !count;
  Alcotest.(check int) "accounting matches" 5 (Parallel.Ebr.released h)

let test_ebr_amortized_k_exceeds_bag () =
  (* k larger than the whole backlog: the first enter after the grace
     period clears everything in one go — Batch behaviour, reached through
     the amortized path. *)
  let ebr =
    Parallel.Ebr.create ~mode:(Parallel.Ebr.Amortized 100) ~check_every:1 ~max_domains:1 ()
  in
  let h = Parallel.Ebr.register ebr in
  let count = ref 0 in
  Parallel.Ebr.enter h;
  for _ = 1 to 5 do
    Parallel.Ebr.retire h (fun () -> incr count)
  done;
  Parallel.Ebr.exit h;
  (* Cycle until the bag has been spliced onto the freeable list; the very
     next enter must then release all of it at once. *)
  let guard = ref 0 in
  while !count = 0 && !guard < 20 do
    incr guard;
    cycle_ebr h 1
  done;
  Alcotest.(check int) "entire bag released by one drain" 5 !count;
  Alcotest.(check int) "nothing left pending" 0 (Parallel.Ebr.pending h)

let test_ebr_amortized_pending_monotone_drain () =
  (* Once retirements stop, [pending] must be non-increasing across
     enter/exit cycles and reach zero — the AF liveness contract that the
     simcheck liveness oracle bounds under adversarial schedules. *)
  let ebr = Parallel.Ebr.create ~mode:(Parallel.Ebr.Amortized 1) ~check_every:1 ~max_domains:1 () in
  let h = Parallel.Ebr.register ebr in
  Parallel.Ebr.enter h;
  for _ = 1 to 12 do
    Parallel.Ebr.retire h (fun () -> ())
  done;
  Parallel.Ebr.exit h;
  let prev = ref (Parallel.Ebr.pending h) in
  for cycle = 1 to 40 do
    cycle_ebr h 1;
    let p = Parallel.Ebr.pending h in
    if p > !prev then
      Alcotest.failf "pending grew from %d to %d at cycle %d with no retirements" !prev p cycle;
    prev := p
  done;
  Alcotest.(check int) "fully drained" 0 (Parallel.Ebr.pending h);
  Alcotest.(check int) "all twelve released" 12 (Parallel.Ebr.released h)

let test_ebr_retire_during_stalled_read () =
  (* The paper's stalled-reader hazard, deterministically: B announces an
     epoch by entering and then stalls inside the read (never re-enters).
     Everything A retires from then on must stay pending — B's announcement
     pins the epoch — and be released only after B resumes. *)
  let ebr = Parallel.Ebr.create ~mode:(Parallel.Ebr.Amortized 2) ~check_every:1 ~max_domains:2 () in
  let a = Parallel.Ebr.register ebr in
  let b = Parallel.Ebr.register ebr in
  (* B is mid-read: entered, not yet exited. *)
  Parallel.Ebr.enter b;
  let released = ref 0 in
  Parallel.Ebr.enter a;
  for _ = 1 to 4 do
    Parallel.Ebr.retire a (fun () -> incr released)
  done;
  Parallel.Ebr.exit a;
  cycle_ebr a 30;
  Alcotest.(check int) "stalled reader pins every retirement" 0 !released;
  Alcotest.(check int) "backlog intact" 4 (Parallel.Ebr.pending a);
  (* B finishes the read and participates again: the epoch moves and A's
     amortized drain clears the backlog. *)
  Parallel.Ebr.exit b;
  for _ = 1 to 30 do
    cycle_ebr b 1;
    cycle_ebr a 1
  done;
  Alcotest.(check int) "released after the reader resumed" 4 !released;
  Alcotest.(check int) "nothing pending" 0 (Parallel.Ebr.pending a)

let test_token_single_domain () =
  let ring = Parallel.Token_ring.create ~mode:Parallel.Token_ring.Batch ~max_domains:1 () in
  let h = Parallel.Token_ring.register ring in
  let released = ref 0 in
  Parallel.Token_ring.enter h;  (* receipt 1: rotates empty bags *)
  Parallel.Token_ring.retire h (fun () -> incr released);
  Parallel.Token_ring.exit h;
  Parallel.Token_ring.enter h;  (* receipt 2: retirement moves to prev *)
  Parallel.Token_ring.exit h;
  Alcotest.(check int) "not yet" 0 !released;
  Parallel.Token_ring.enter h;  (* receipt 3: prev is safe *)
  Parallel.Token_ring.exit h;
  Alcotest.(check int) "released after a full round + swap" 1 !released;
  Alcotest.(check bool) "receipts counted" true (Parallel.Token_ring.receipts h >= 3)

let test_token_ring_wraparound () =
  (* Three participants driven round-robin from one thread: the token must
     travel 0 -> 1 -> 2 -> 0 (wrap), and a retirement is released only
     after its owner receives the token twice more — one full round moves
     the bag to prev, the next proves every participant began a new
     operation since. *)
  let ring = Parallel.Token_ring.create ~mode:Parallel.Token_ring.Batch ~max_domains:3 () in
  let hs = Array.init 3 (fun _ -> Parallel.Token_ring.register ring) in
  let cycle_all () =
    Array.iter
      (fun h ->
        Parallel.Token_ring.enter h;
        Parallel.Token_ring.exit h)
      hs
  in
  let released = ref 0 in
  (* Round 1: everyone gets the token exactly once (wraparound included). *)
  cycle_all ();
  Array.iter
    (fun h -> Alcotest.(check int) "one receipt each after a full round" 1 (Parallel.Token_ring.receipts h))
    hs;
  Parallel.Token_ring.retire hs.(2) (fun () -> incr released);
  (* Round 2: slot 2's bag rotates cur -> prev on its receipt. *)
  cycle_all ();
  Alcotest.(check int) "not released after one round" 0 !released;
  (* Round 3: slot 2's next receipt proves the full round; prev is safe. *)
  cycle_all ();
  Alcotest.(check int) "released after wraparound round" 1 !released;
  Array.iter
    (fun h -> Alcotest.(check int) "three receipts each" 3 (Parallel.Token_ring.receipts h))
    hs;
  Alcotest.(check int) "nothing pending anywhere" 0
    (Array.fold_left (fun acc h -> acc + Parallel.Token_ring.pending h) 0 hs)

let test_token_ring_one_participant () =
  (* Degenerate ring: with a single participant the token passes to
     itself, so every enter is a receipt and the two-bag rotation alone
     provides the grace period. Amortized mode must still drain k per op. *)
  let ring =
    Parallel.Token_ring.create ~mode:(Parallel.Token_ring.Amortized 1) ~max_domains:1 ()
  in
  let h = Parallel.Token_ring.register ring in
  let count = ref 0 in
  Parallel.Token_ring.enter h;
  for _ = 1 to 3 do
    Parallel.Token_ring.retire h (fun () -> incr count)
  done;
  Parallel.Token_ring.exit h;
  Alcotest.(check int) "receipt on every enter" 1 (Parallel.Token_ring.receipts h);
  (* enter 2 rotates the bag to prev; enter 3 splices it freeable; the
     amortized drain then runs one callback per subsequent enter. *)
  Parallel.Token_ring.enter h;
  Parallel.Token_ring.exit h;
  Alcotest.(check int) "still in grace" 0 !count;
  let cycles = ref 0 in
  while !count < 3 && !cycles < 10 do
    incr cycles;
    Parallel.Token_ring.enter h;
    Parallel.Token_ring.exit h
  done;
  Alcotest.(check int) "all released" 3 !count;
  Alcotest.(check bool) "drained one per op, not all at once" true (!cycles >= 3);
  Alcotest.(check int) "receipts kept counting" (2 + !cycles) (Parallel.Token_ring.receipts h);
  Alcotest.(check int) "nothing pending" 0 (Parallel.Token_ring.pending h)

let test_ms_queue_sequential () =
  let q = Parallel.Ms_queue.create () in
  Alcotest.(check bool) "empty" true (Parallel.Ms_queue.is_empty q);
  Parallel.Ms_queue.enqueue q ~value:1 ~seq:0;
  Parallel.Ms_queue.enqueue q ~value:2 ~seq:0;
  Parallel.Ms_queue.enqueue q ~value:3 ~seq:0;
  Alcotest.(check int) "length" 3 (Parallel.Ms_queue.length q);
  Alcotest.(check (option (pair int int))) "fifo 1" (Some (1, 0)) (Parallel.Ms_queue.dequeue q);
  Alcotest.(check (option (pair int int))) "fifo 2" (Some (2, 0)) (Parallel.Ms_queue.dequeue q);
  Parallel.Ms_queue.enqueue q ~value:4 ~seq:0;
  Alcotest.(check (option (pair int int))) "fifo 3" (Some (3, 0)) (Parallel.Ms_queue.dequeue q);
  Alcotest.(check (option (pair int int))) "fifo 4" (Some (4, 0)) (Parallel.Ms_queue.dequeue q);
  Alcotest.(check (option (pair int int))) "drained" None (Parallel.Ms_queue.dequeue q)

(* Producer/consumer across domains: FIFO per producer, every element
   delivered exactly once, and slab blocks protected by EBR. *)
let stress_ms_queue ~domains ~ops () =
  let blocks = 512 in
  let slab = Parallel.Slab.create ~blocks ~block_words:2 in
  let q = Parallel.Ms_queue.create () in
  let ebr = Parallel.Ebr.create ~mode:(Parallel.Ebr.Amortized 2) ~check_every:2 ~max_domains:domains () in
  let handles = Array.init domains (fun _ -> Parallel.Ebr.register ebr) in
  let violations = Atomic.make 0 in
  let delivered = Atomic.make 0 and produced = Atomic.make 0 in
  let worker i () =
    let h = handles.(i) in
    for op = 1 to ops do
      Parallel.Ebr.enter h;
      (if (op + i) land 1 = 0 then
         match Parallel.Slab.alloc slab with
         | Some b ->
             Parallel.Slab.write slab b ~word:0 (b * 3);
             Atomic.incr produced;
             Parallel.Ms_queue.enqueue q ~value:b ~seq:(Parallel.Slab.sequence slab b)
         | None -> ()
       else
         match Parallel.Ms_queue.dequeue q with
         | Some (b, seq) ->
             if Parallel.Slab.sequence slab b <> seq then Atomic.incr violations;
             if Parallel.Slab.read slab b ~word:0 <> b * 3 then Atomic.incr violations;
             Atomic.incr delivered;
             Parallel.Ebr.retire h (fun () -> Parallel.Slab.free slab b)
         | None -> ());
      Parallel.Ebr.exit h
    done
  in
  let ds = Array.init domains (fun i -> Domain.spawn (worker i)) in
  Array.iter Domain.join ds;
  Alcotest.(check int) "no use-after-free" 0 (Atomic.get violations);
  (* Drain leftovers. *)
  let rec drain () =
    match Parallel.Ms_queue.dequeue q with
    | Some (b, _) ->
        Atomic.incr delivered;
        Parallel.Slab.free slab b;
        drain ()
    | None -> ()
  in
  drain ();
  Array.iter Parallel.Ebr.flush_unsafe handles;
  Alcotest.(check int) "every element delivered exactly once" (Atomic.get produced)
    (Atomic.get delivered);
  Alcotest.(check int) "blocks conserved" blocks (Parallel.Slab.free_blocks slab)

(* Multi-domain stress: [n] domains hammer a shared stack of slab blocks.
   Poppers validate the block sequence before retiring; peekers validate
   that a block referenced from a live node is never recycled under them.
   With EBR protecting retirements there must be zero violations, and at
   the end every block must be accounted for. *)
let stress_ebr ~domains ~ops () =
  let blocks = 256 in
  let slab = Parallel.Slab.create ~blocks ~block_words:4 in
  let stack = Parallel.Treiber_stack.create () in
  let ebr = Parallel.Ebr.create ~mode:(Parallel.Ebr.Amortized 2) ~check_every:2 ~max_domains:domains () in
  let violations = Atomic.make 0 in
  let handles = Array.init domains (fun _ -> Parallel.Ebr.register ebr) in
  let worker i () =
    let h = handles.(i) in
    let rng = ref (12345 + i) in
    let next () =
      rng := (!rng * 1103515245) + 12345;
      (!rng lsr 16) land 0xFFFF
    in
    for _ = 1 to ops do
      Parallel.Ebr.enter h;
      (if next () land 1 = 0 then
         match Parallel.Slab.alloc slab with
         | Some b ->
             Parallel.Slab.write slab b ~word:0 b;
             Parallel.Treiber_stack.push stack ~value:b ~seq:(Parallel.Slab.sequence slab b)
         | None -> ()
       else
         match Parallel.Treiber_stack.pop stack with
         | Some (b, seq) ->
             (* We own the block now; under EBR its content must still be
                ours: the sequence cannot have moved. *)
             if Parallel.Slab.sequence slab b <> seq then Atomic.incr violations;
             if Parallel.Slab.read slab b ~word:0 <> b then Atomic.incr violations;
             Parallel.Ebr.retire h (fun () -> Parallel.Slab.free slab b)
         | None -> ());
      Parallel.Ebr.exit h
    done
  in
  let ds = Array.init domains (fun i -> Domain.spawn (worker i)) in
  Array.iter Domain.join ds;
  Alcotest.(check int) "no use-after-free detected" 0 (Atomic.get violations);
  (* Drain: everything retired but unreleased is safe to flush now. *)
  Array.iter Parallel.Ebr.flush_unsafe handles;
  (* Pop the survivors and free them directly. *)
  let rec drain () =
    match Parallel.Treiber_stack.pop stack with
    | Some (b, _) ->
        Parallel.Slab.free slab b;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all blocks conserved" blocks (Parallel.Slab.free_blocks slab);
  let total_retired = Array.fold_left (fun a h -> a + Parallel.Ebr.retired h) 0 handles in
  let total_released = Array.fold_left (fun a h -> a + Parallel.Ebr.released h) 0 handles in
  Alcotest.(check int) "every retirement released exactly once" total_retired total_released

let stress_token ~domains ~ops () =
  let blocks = 256 in
  let slab = Parallel.Slab.create ~blocks ~block_words:2 in
  let stack = Parallel.Treiber_stack.create () in
  let ring = Parallel.Token_ring.create ~mode:(Parallel.Token_ring.Amortized 1) ~max_domains:domains () in
  let violations = Atomic.make 0 in
  let handles = Array.init domains (fun _ -> Parallel.Token_ring.register ring) in
  let worker i () =
    let h = handles.(i) in
    for op = 1 to ops do
      Parallel.Token_ring.enter h;
      (if (op + i) land 1 = 0 then
         match Parallel.Slab.alloc slab with
         | Some b ->
             Parallel.Treiber_stack.push stack ~value:b ~seq:(Parallel.Slab.sequence slab b)
         | None -> ()
       else
         match Parallel.Treiber_stack.pop stack with
         | Some (b, seq) ->
             if Parallel.Slab.sequence slab b <> seq then Atomic.incr violations;
             Parallel.Token_ring.retire h (fun () -> Parallel.Slab.free slab b)
         | None -> ());
      Parallel.Token_ring.exit h
    done
  in
  let ds = Array.init domains (fun i -> Domain.spawn (worker i)) in
  Array.iter Domain.join ds;
  Alcotest.(check int) "no use-after-free detected" 0 (Atomic.get violations);
  Array.iter Parallel.Token_ring.flush_unsafe handles;
  let rec drain () =
    match Parallel.Treiber_stack.pop stack with
    | Some (b, _) ->
        Parallel.Slab.free slab b;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all blocks conserved" blocks (Parallel.Slab.free_blocks slab)

let suite =
  ( "parallel",
    [
      Helpers.quick "slab_basics" test_slab_basics;
      Helpers.quick "slab_exhaustion" test_slab_exhaustion;
      prop_slab_matches_reference;
      Helpers.quick "slab_two_domain_stress" test_slab_two_domain_stress;
      Helpers.quick "slab_double_free" test_slab_double_free;
      Helpers.quick "slab_rejects_narrow_tag" test_slab_rejects_narrow_tag;
      Helpers.quick "stack_sequential" test_stack_sequential;
      Helpers.quick "sequence_detects_recycling" test_sequence_detects_recycling;
      Helpers.quick "ebr_single_domain_protocol" test_ebr_single_domain_protocol;
      Helpers.quick "ebr_amortized_drains" test_ebr_amortized_drains;
      Helpers.quick "ebr_two_handles_interleaved" test_ebr_two_handles_interleaved;
      Helpers.quick "ebr_amortized_k0_never_drains" test_ebr_amortized_k0_never_drains;
      Helpers.quick "ebr_amortized_k_exceeds_bag" test_ebr_amortized_k_exceeds_bag;
      Helpers.quick "ebr_amortized_pending_monotone_drain" test_ebr_amortized_pending_monotone_drain;
      Helpers.quick "ebr_retire_during_stalled_read" test_ebr_retire_during_stalled_read;
      Helpers.quick "token_single_domain" test_token_single_domain;
      Helpers.quick "token_ring_wraparound" test_token_ring_wraparound;
      Helpers.quick "token_ring_one_participant" test_token_ring_one_participant;
      Alcotest.test_case "stress_ebr_2_domains" `Quick (stress_ebr ~domains:2 ~ops:20_000);
      Alcotest.test_case "stress_ebr_4_domains" `Quick (stress_ebr ~domains:4 ~ops:10_000);
      Alcotest.test_case "stress_token_4_domains" `Quick (stress_token ~domains:4 ~ops:10_000);
      Helpers.quick "ms_queue_sequential" test_ms_queue_sequential;
      Alcotest.test_case "stress_ms_queue_4_domains" `Quick (stress_ms_queue ~domains:4 ~ops:10_000);
    ] )
