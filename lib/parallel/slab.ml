(* Off-heap slab allocator over a Bigarray, lock-free.

   Fixed-size blocks carved from one off-heap buffer. The OCaml GC knows
   nothing about block lifetimes — exactly the situation where epoch-based
   reclamation earns its keep in multicore OCaml. Each block starts with a
   sequence-number word that is bumped on every free: readers can detect
   (in tests) that a block was recycled under them, the off-heap analogue
   of a use-after-free.

   Free blocks sit on a Treiber (LIFO) stack threaded through [links], a
   second Bigarray the GC never scans: [links.{b}] holds the block below
   [b] on the stack, written by the push of [b] and left uninitialised
   until then. Blocks never handed out are not on the stack; [fresh] counts
   them down, and [alloc] takes them in index order once the stack is
   empty. One domain therefore sees the order of a free list that starts as
   [0; 1; ...; blocks - 1]: freed blocks LIFO, then untouched blocks by
   index.

   The head is one [int Atomic.t]: a tag above [index_bits] low bits that
   hold the top block plus one (0 = empty), and [links] stores blocks in
   the same plus-one form. Every successful push and pop adds one to the
   tag. That is what makes the pop safe against ABA: a pop reads the head
   [(tag, b)], then [links.{b}], then CASes the head to [(tag + 1, next)].
   If another domain popped [b] and pushed it back in between, so that the
   link read may be stale, its two CASes moved the tag, and the pop's CAS
   fails and retries. It could succeed only if the tag came back to the
   same value, which takes 2^tag_bits successful stack operations between
   one pop's two reads of the head; [create] refuses a slab whose index
   field would leave the tag fewer than 32 bits (a 16,384-block slab gets
   48). The two-domain stress test in test/test_parallel.ml does not
   exercise ABA: it passes with the tag removed. This argument, not a
   test, is what makes the pop safe.

   Ordering: a push writes [links.{b}] (and [free] the sequence word)
   before the CAS that publishes [b], and a pop reads them after the
   [Atomic.get] that found [b], so a pop that wins sees them. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  data : ints;
  links : ints;  (* links.{b}: the block below b on the free stack, plus one *)
  head : int Atomic.t;  (* tag lsl index_bits lor (top + 1) *)
  fresh : int Atomic.t;  (* blocks never handed out: blocks - fresh is the next one *)
  mask : int;  (* the low index_bits bits *)
  block_words : int;
  blocks : int;
}

let header_words = 1  (* sequence number *)
let min_tag_bits = 32

let create ~blocks ~block_words =
  if blocks <= 0 || block_words <= 0 then invalid_arg "Slab.create";
  (* Bits for the values 0 .. blocks (a block plus one, or empty). *)
  let rec bits k = if blocks lsr k = 0 then k else bits (k + 1) in
  let index_bits = bits 1 in
  if Sys.int_size - index_bits < min_tag_bits then
    invalid_arg
      (Printf.sprintf
         "Slab.create: %d blocks leave the free stack's ABA tag %d bits; at most %d blocks \
          leave it %d"
         blocks (Sys.int_size - index_bits)
         ((1 lsl (Sys.int_size - min_tag_bits)) - 1)
         min_tag_bits);
  let words = blocks * (block_words + header_words) in
  let data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
  Bigarray.Array1.fill data 0;
  {
    data;
    links = Bigarray.Array1.create Bigarray.int Bigarray.c_layout blocks;
    head = Atomic.make 0;
    fresh = Atomic.make blocks;
    mask = (1 lsl index_bits) - 1;
    block_words;
    blocks;
  }

let[@inline] base t block = block * (t.block_words + header_words)

(* The head after one more successful operation, with [top] (a block plus
   one, or 0) on top: [old lor mask + 1] carries one into the tag and
   clears the index bits. *)
let[@inline] next_head t old top = ((old lor t.mask) + 1) lor top

(* Allocate a block; returns its index. The top block of the stack if
   there is one, else the lowest untouched block. [fresh] never grows, so
   once it reads 0 a stack read empty proves the slab exhausted. *)
let rec alloc t =
  let old = Atomic.get t.head in
  let top = old land t.mask in
  if top <> 0 then begin
    (* [top - 1] came from a push, which range-checked it in [free]. *)
    let next = Bigarray.Array1.unsafe_get t.links (top - 1) in
    if Atomic.compare_and_set t.head old (next_head t old next) then Some (top - 1)
    else begin
      Domain.cpu_relax ();
      alloc t
    end
  end
  else
    let f = Atomic.get t.fresh in
    if f > 0 then
      if Atomic.compare_and_set t.fresh f (f - 1) then Some (t.blocks - f) else alloc t
    else if Atomic.get t.head land t.mask = 0 then None
    else alloc t

let rec push t block =
  let old = Atomic.get t.head in
  Bigarray.Array1.unsafe_set t.links block (old land t.mask);
  if not (Atomic.compare_and_set t.head old (next_head t old (block + 1))) then begin
    Domain.cpu_relax ();
    push t block
  end

(* Free a block: bump its sequence word so stale readers are detectable,
   then push it on the free stack. The checked access to the sequence word
   rejects an index outside the slab before [push] uses it unchecked. *)
let free t block =
  let hdr = base t block in
  Bigarray.Array1.set t.data hdr (Bigarray.Array1.get t.data hdr + 1);
  push t block

let[@inline] sequence t block = Bigarray.Array1.get t.data (base t block)

let[@inline] write t block ~word v =
  if word < 0 || word >= t.block_words then invalid_arg "Slab.write";
  Bigarray.Array1.set t.data (base t block + header_words + word) v

let[@inline] read t block ~word =
  if word < 0 || word >= t.block_words then invalid_arg "Slab.read";
  Bigarray.Array1.get t.data (base t block + header_words + word)

(* Walk the free stack and add the untouched blocks. The stack can hold at
   most the blocks ever handed out. A longer walk means misuse: a block
   freed twice, whose links now form a cycle that would never end, or a
   block freed before it was ever allocated. *)
let free_blocks t =
  let fresh = Atomic.get t.fresh in
  let handed_out = t.blocks - fresh in
  let rec walk n top =
    if top = 0 then n
    else if n = handed_out then
      failwith
        (Printf.sprintf
           "Slab.free_blocks: the free stack of this %d-block slab holds more than the %d \
            blocks ever allocated: a block was freed twice (its links now cycle), or freed \
            without being allocated"
           t.blocks handed_out)
    else walk (n + 1) (Bigarray.Array1.get t.links (top - 1))
  in
  fresh + walk 0 (Atomic.get t.head land t.mask)

let live_blocks t = t.blocks - free_blocks t
let capacity t = t.blocks
