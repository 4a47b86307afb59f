(* Reference slab for the differential test in [Test_parallel]: the
   Mutex-guarded free list that [Parallel.Slab]'s lock-free stack
   replaced, kept as the oracle for its single-domain allocation order,
   the way [Occ_tree_ref] is the reference for [Ds.Occ_tree].

   The free list starts as [0; 1; ...; blocks - 1], [alloc] takes its head
   and [free] conses onto it, so freed blocks come back LIFO, then the
   untouched ones in index order. That order is what keeps the model
   checker's scenario outcomes and counterexample replays byte-identical. *)

type t = {
  data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  block_words : int;
  blocks : int;
  free_list : int list ref;  (* block indices *)
  lock : Mutex.t;
  mutable allocated : int;  (* running count of live blocks *)
}

let header_words = 1  (* sequence number *)

let create ~blocks ~block_words =
  if blocks <= 0 || block_words <= 0 then invalid_arg "Slab_ref.create";
  let words = blocks * (block_words + header_words) in
  let data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
  Bigarray.Array1.fill data 0;
  {
    data;
    block_words;
    blocks;
    free_list = ref (List.init blocks (fun i -> i));
    lock = Mutex.create ();
    allocated = 0;
  }

let base t block = block * (t.block_words + header_words)

let alloc t =
  Mutex.lock t.lock;
  match !(t.free_list) with
  | [] ->
      Mutex.unlock t.lock;
      None
  | b :: rest ->
      t.free_list := rest;
      t.allocated <- t.allocated + 1;
      Mutex.unlock t.lock;
      Some b

let free t block =
  let hdr = base t block in
  Bigarray.Array1.set t.data hdr (Bigarray.Array1.get t.data hdr + 1);
  Mutex.lock t.lock;
  t.free_list := block :: !(t.free_list);
  t.allocated <- t.allocated - 1;
  Mutex.unlock t.lock

let sequence t block = Bigarray.Array1.get t.data (base t block)

let write t block ~word v =
  if word < 0 || word >= t.block_words then invalid_arg "Slab_ref.write";
  Bigarray.Array1.set t.data (base t block + header_words + word) v

let read t block ~word =
  if word < 0 || word >= t.block_words then invalid_arg "Slab_ref.read";
  Bigarray.Array1.get t.data (base t block + header_words + word)

let live_blocks t = t.allocated
let free_blocks t = List.length !(t.free_list)
let capacity t = t.blocks
