(* The off-heap workload: a Treiber stack whose payloads are blocks of an
   off-heap [Parallel.Slab], popped blocks retired through each of the
   [lib/parallel] reclaimers in Batch and Amortized 1 mode. It follows
   examples/multicore_offheap.ml and adds the hazard-pointer
   protect/validate loop; no simulated layer runs. It runs on the calling
   domain (see [Bench.workloads] for why). *)

type reclaimer = Ebr | Hp | Token_ring

let reclaimers = [ Ebr; Hp; Token_ring ]
let name = function Ebr -> "ebr" | Hp -> "hp" | Token_ring -> "token_ring"

(* Each reclaimer in batch-free and in amortized-free mode. *)
let configs = List.concat_map (fun r -> [ (r, true); (r, false) ]) reclaimers

type handle =
  | E of Parallel.Ebr.handle
  | H of Parallel.Hp.handle
  | T of Parallel.Token_ring.handle

let handle r ~batch =
  match r with
  | Ebr ->
      let mode = if batch then Parallel.Ebr.Batch else Parallel.Ebr.Amortized 1 in
      E (Parallel.Ebr.register (Parallel.Ebr.create ~mode ~max_domains:1 ()))
  | Hp ->
      let mode = if batch then Parallel.Hp.Batch else Parallel.Hp.Amortized 1 in
      H (Parallel.Hp.register (Parallel.Hp.create ~mode ~max_domains:1 ()))
  | Token_ring ->
      let mode = if batch then Parallel.Token_ring.Batch else Parallel.Token_ring.Amortized 1 in
      T (Parallel.Token_ring.register (Parallel.Token_ring.create ~mode ~max_domains:1 ()))

let enter = function
  | E h -> Parallel.Ebr.enter h
  | H h -> Parallel.Hp.enter h
  | T h -> Parallel.Token_ring.enter h

let exit = function
  | E h -> Parallel.Ebr.exit h
  | H h -> Parallel.Hp.exit h
  | T h -> Parallel.Token_ring.exit h

let retire h b release =
  match h with
  | E h -> Parallel.Ebr.retire h release
  | H h ->
      Parallel.Hp.clear h ~slot:0;
      Parallel.Hp.retire h ~value:b release
  | T h -> Parallel.Token_ring.retire h release

let counts = function
  | E h -> (Parallel.Ebr.retired h, Parallel.Ebr.released h)
  | H h -> (Parallel.Hp.retired h, Parallel.Hp.released h)
  | T h -> (Parallel.Token_ring.retired h, Parallel.Token_ring.released h)

let flush_unsafe = function
  | E h -> Parallel.Ebr.flush_unsafe h
  | H h -> Parallel.Hp.flush_unsafe h
  | T h -> Parallel.Token_ring.flush_unsafe h

type world = { slab : Parallel.Slab.t; stack : Parallel.Treiber_stack.t; handle : handle }

let world r ~batch =
  {
    slab = Parallel.Slab.create ~blocks:(1 lsl 14) ~block_words:2;
    stack = Parallel.Treiber_stack.create ();
    handle = handle r ~batch;
  }

let magic = 0x5A5A

(* A block is intact when it still carries the sequence number it was
   pushed with and the payload written before the push. *)
let intact w b seq =
  Parallel.Slab.sequence w.slab b = seq && Parallel.Slab.read w.slab b ~word:0 = b lxor magic

(* Publish the stack head in hazard slot 0 and re-read it until it is
   stable, so the block cannot be released while it is read. *)
let rec protect_head stack h =
  match Parallel.Treiber_stack.peek stack with
  | None -> None
  | Some (b, seq) as head -> (
      Parallel.Hp.protect h ~slot:0 b;
      match Parallel.Treiber_stack.peek stack with
      | Some (b', seq') when b' = b && seq' = seq -> head
      | _ ->
          Parallel.Hp.clear h ~slot:0;
          Parallel.Hp.note_retry h;
          protect_head stack h)

(* [ops] operations, each a push or a pop chosen by a stream seeded from
   [seed]. Returns the sequence mismatches seen. *)
let run w ~seed ~ops =
  let h = w.handle in
  let rng = Simcore.Rng.create seed in
  let bad = ref 0 in
  for _ = 1 to ops do
    enter h;
    (if Simcore.Rng.bool rng then
       match Parallel.Slab.alloc w.slab with
       | Some b ->
           Parallel.Slab.write w.slab b ~word:0 (b lxor magic);
           Parallel.Treiber_stack.push w.stack ~value:b ~seq:(Parallel.Slab.sequence w.slab b)
       | None -> ()
     else begin
       (match h with
       | H hp -> (
           match protect_head w.stack hp with
           | Some (b, seq) -> if not (intact w b seq) then incr bad
           | None -> ())
       | E _ | T _ -> ());
       match Parallel.Treiber_stack.pop w.stack with
       | Some (b, seq) ->
           if not (intact w b seq) then incr bad;
           retire h b (fun () -> Parallel.Slab.free w.slab b)
       | None -> ()
     end);
    exit h
  done;
  !bad

(* After the run: release everything, drain the stack, and every block must
   be back on the free list. *)
let conserved w =
  flush_unsafe w.handle;
  let rec drain () =
    match Parallel.Treiber_stack.pop w.stack with
    | Some (b, _) ->
        Parallel.Slab.free w.slab b;
        drain ()
    | None -> ()
  in
  drain ();
  Parallel.Slab.free_blocks w.slab = Parallel.Slab.capacity w.slab

type pass = { ms : float; ok : bool; retired : int; released : int }

(* One pass: every configuration in turn. The timing covers creating the
   slab and the reclaimer and running the operations; the conservation
   check is outside it. *)
let pass ~seed ~ops =
  List.fold_left
    (fun acc (r, batch) ->
      let ms, (w, bad) =
        Stats.timed (fun () ->
            let w = world r ~batch in
            (w, run w ~seed ~ops))
      in
      let retired, released = counts w.handle in
      let ok = bad = 0 && conserved w in
      {
        ms = acc.ms +. ms;
        ok = acc.ok && ok;
        retired = acc.retired + retired;
        released = acc.released + released;
      })
    { ms = 0.; ok = true; retired = 0; released = 0 }
    configs

(* Set-up alone is a pass with no operations. *)
let setup_ms () = (pass ~seed:0 ~ops:0).ms
