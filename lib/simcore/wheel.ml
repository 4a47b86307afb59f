(* Hierarchical timing wheel keyed by (time, sequence) — the scheduler's
   event queue, bit-exact with the reference binary heap (Varghese &
   Lauck's hierarchical timing wheels, the structure deadline-dense
   production timers like folly's HHWheelTimer use).

   Why a wheel fits this simulator: event horizons are short and regular.
   A thread that yields re-enqueues itself a few hundred to a few thousand
   virtual ns in the future (op_fixed + a handful of node accesses, or a
   lock wake), so almost every insertion lands in the first wheel level and
   costs O(1) — no O(log n) sift against the other threads' events.

   Exactness contract: pops come out in exactly the heap's (key, seq)
   order, bit-for-bit. Two properties make that cheap:

   - The scheduler's pop keys are monotone non-decreasing (a running
     thread's clock only advances, and lock handoffs jump the waiter's
     clock to the release time before re-enqueueing), so the wheel never
     has to look backwards. A push behind the last popped key raises
     instead of silently reordering — see [push].
   - Sequence numbers increase with every push, so (key, seq) pairs are
     totally ordered with no duplicates and a min-heap over the pair
     restores the full order when a bucket becomes current.

   Layout: [levels] fixed levels of [slots] buckets each; level [l]
   buckets are [1 lsl (gbits + l*slot_bits)] virtual ns wide. The bucket
   containing the current time is kept unpacked in a small *staging*
   min-heap keyed (key, seq); same-bucket insertions go straight into it
   in O(log occupancy). (An earlier revision kept staging as a sorted
   array with a binary-search + memmove insert; at 192 threads the thread
   clocks pack into one or two buckets, occupancy reaches the thread
   count, and every insert paid an O(occupancy) blit — the profile cost
   behind the wheel's n192 gap to the heap. The heap bounds the insert at
   O(log occupancy) ~ 8 moves.) When staging drains, occupancy bitmaps
   locate the next busy bucket in O(words); crossing an upper-level
   bucket boundary cascades its contents down one level. Events beyond
   the top level's horizon sit in an unsorted overflow list that is
   folded back in when the clock gets there. *)

let slot_bits = 8
let slots = 1 lsl slot_bits
let slot_mask = slots - 1
let levels = 3
let occ_words = slots / 32

(* Default bucket width: 2^9 = 512 virtual ns, sized from the cost model's
   delay distribution. Checkpoint-to-checkpoint deltas cluster around
   op_fixed (60 ns) plus a few node accesses (110-170 ns each), i.e.
   ~200-1500 ns; lock wakes are 800-6000 ns. With 512 ns buckets, level 0
   spans 131 us (every op-scale and lock-scale delay), level 1 spans
   33.5 ms (the 1 ms preemption quantum and warmup/deadline jumps), and
   level 2 spans 8.6 s — beyond any virtual duration in the repo's
   configurations, so the overflow list is effectively never touched. *)
let default_granularity_bits = 9

type 'a bucket = {
  mutable bkeys : int array;
  mutable bseqs : int array;
  mutable bdata : 'a array;
  mutable blen : int;
}

type 'a level = { buckets : 'a bucket array; occ : int array }

type 'a t = {
  dummy : 'a;
  gbits : int;
  mutable count : int;
  mutable last : int;  (* last popped key: the monotonicity floor *)
  mutable cur_b0 : int;  (* absolute level-0 bucket index of the staging window *)
  mutable st_keys : int array;  (* staging: binary min-heap on (key, seq), [0, st_len) *)
  mutable st_seqs : int array;
  mutable st_data : 'a array;
  mutable st_len : int;
  lvls : 'a level array;
  mutable ov_keys : int array;  (* far-future overflow, unsorted *)
  mutable ov_seqs : int array;
  mutable ov_data : 'a array;
  mutable ov_len : int;
  mutable ov_min : int;  (* min overflow key, [max_int] when empty *)
}

(* Trailing-zero count of a 32-bit occupancy word via de Bruijn multiply. *)
let debruijn32 = 0x077CB531

let ctz_table =
  let t = Array.make 32 0 in
  for i = 0 to 31 do
    t.(((debruijn32 lsl i) land 0xFFFFFFFF) lsr 27) <- i
  done;
  t

let ctz x =
  Array.unsafe_get ctz_table (((x land -x) * debruijn32 land 0xFFFFFFFF) lsr 27)

let create ?(granularity_bits = default_granularity_bits) ~dummy () =
  if granularity_bits < 1 || granularity_bits > 20 then
    invalid_arg "Wheel.create: granularity_bits out of range";
  let mk_level () =
    {
      buckets =
        Array.init slots (fun _ ->
            { bkeys = [||]; bseqs = [||]; bdata = [||]; blen = 0 });
      occ = Array.make occ_words 0;
    }
  in
  {
    dummy;
    gbits = granularity_bits;
    count = 0;
    last = 0;
    cur_b0 = 0;
    st_keys = Array.make 16 0;
    st_seqs = Array.make 16 0;
    st_data = Array.make 16 dummy;
    st_len = 0;
    lvls = Array.init levels (fun _ -> mk_level ());
    ov_keys = [||];
    ov_seqs = [||];
    ov_data = [||];
    ov_len = 0;
    ov_min = max_int;
  }

let length t = t.count
let is_empty t = t.count = 0

(* -- staging -- *)

let st_reserve t =
  if t.st_len = Array.length t.st_keys then begin
    let cap = 2 * Array.length t.st_keys in
    let keys = Array.make cap 0 and seqs = Array.make cap 0 in
    let data = Array.make cap t.dummy in
    Array.blit t.st_keys 0 keys 0 t.st_len;
    Array.blit t.st_seqs 0 seqs 0 t.st_len;
    Array.blit t.st_data 0 data 0 t.st_len;
    t.st_keys <- keys;
    t.st_seqs <- seqs;
    t.st_data <- data
  end

(* (key, seq) lexicographic order; seqs are distinct, so this is total. *)
let[@inline] before (k : int) (s : int) k' s' = k < k' || (k = k' && s < s')

(* Push onto the staging min-heap: O(log occupancy), no memmove. The new
   element's slot is a hole that moves up past every parent ordered after
   it; the element is written once, where the hole stops. *)
let stage_insert t ~key ~seq x =
  st_reserve t;
  let keys = t.st_keys and seqs = t.st_seqs and data = t.st_data in
  let i = ref t.st_len in
  t.st_len <- !i + 1;
  let continue = ref (!i > 0) in
  while !continue do
    let p = (!i - 1) / 2 in
    let kp = Array.unsafe_get keys p in
    if before key seq kp (Array.unsafe_get seqs p) then begin
      Array.unsafe_set keys !i kp;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set data !i (Array.unsafe_get data p);
      i := p;
      continue := p > 0
    end
    else continue := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set data !i x

(* Re-seat ([key], [seq], [x]) from the root after the root was taken: the
   hole at the root moves down past every smaller child, and the element is
   written once, where the hole stops. Precondition: [st_len > 0], and slot
   [st_len] (the element's old place) is outside the heap. *)
let st_sift_down t ~key ~seq x =
  let keys = t.st_keys and seqs = t.st_seqs and data = t.st_data in
  let n = t.st_len in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          && before (Array.unsafe_get keys r) (Array.unsafe_get seqs r) (Array.unsafe_get keys l)
               (Array.unsafe_get seqs l)
        then r
        else l
      in
      let kc = Array.unsafe_get keys c in
      if before kc (Array.unsafe_get seqs c) key seq then begin
        Array.unsafe_set keys !i kc;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set data !i (Array.unsafe_get data c);
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set data !i x

(* -- levels and overflow -- *)

let bucket_grow t b =
  let cap = max 8 (2 * Array.length b.bkeys) in
  let keys = Array.make cap 0 and seqs = Array.make cap 0 in
  let data = Array.make cap t.dummy in
  Array.blit b.bkeys 0 keys 0 b.blen;
  Array.blit b.bseqs 0 seqs 0 b.blen;
  Array.blit b.bdata 0 data 0 b.blen;
  b.bkeys <- keys;
  b.bseqs <- seqs;
  b.bdata <- data

let add_level t l ~key ~seq x =
  let lv = Array.unsafe_get t.lvls l in
  let s = (key lsr (t.gbits + (l * slot_bits))) land slot_mask in
  let b = Array.unsafe_get lv.buckets s in
  if b.blen = Array.length b.bkeys then bucket_grow t b;
  Array.unsafe_set b.bkeys b.blen key;
  Array.unsafe_set b.bseqs b.blen seq;
  Array.unsafe_set b.bdata b.blen x;
  b.blen <- b.blen + 1;
  let w = s lsr 5 in
  Array.unsafe_set lv.occ w (Array.unsafe_get lv.occ w lor (1 lsl (s land 31)))

let add_overflow t ~key ~seq x =
  if t.ov_len = Array.length t.ov_keys then begin
    let cap = max 8 (2 * Array.length t.ov_keys) in
    let keys = Array.make cap 0 and seqs = Array.make cap 0 in
    let data = Array.make cap t.dummy in
    Array.blit t.ov_keys 0 keys 0 t.ov_len;
    Array.blit t.ov_seqs 0 seqs 0 t.ov_len;
    Array.blit t.ov_data 0 data 0 t.ov_len;
    t.ov_keys <- keys;
    t.ov_seqs <- seqs;
    t.ov_data <- data
  end;
  t.ov_keys.(t.ov_len) <- key;
  t.ov_seqs.(t.ov_len) <- seq;
  t.ov_data.(t.ov_len) <- x;
  t.ov_len <- t.ov_len + 1;
  if key < t.ov_min then t.ov_min <- key

(* Place an event relative to the current anchor. Keys at or before the
   staging window join it directly (a key between [last] and the window
   start sorts ahead of the staged events, which is exactly where the heap
   would pop it); later keys go to the level whose window reaches them,
   found by comparing high bits against the anchor. *)
let place t ~key ~seq x =
  let b0 = key lsr t.gbits in
  if b0 <= t.cur_b0 then stage_insert t ~key ~seq x
  else begin
    let d = key lxor (t.cur_b0 lsl t.gbits) in
    if d < 1 lsl (t.gbits + slot_bits) then add_level t 0 ~key ~seq x
    else if d < 1 lsl (t.gbits + (2 * slot_bits)) then add_level t 1 ~key ~seq x
    else if d < 1 lsl (t.gbits + (3 * slot_bits)) then add_level t 2 ~key ~seq x
    else add_overflow t ~key ~seq x
  end

let push t ~key ~seq x =
  if key < t.last then
    failwith
      (Printf.sprintf
         "Wheel.push: clock regression — key %d is before the last popped key %d; the \
          event queue requires monotone non-decreasing pop keys (a scheduler bug, not a \
          queue bug)"
         key t.last);
  place t ~key ~seq x;
  t.count <- t.count + 1

(* -- advancing the clock hand -- *)

(* First occupied slot index >= [from], or -1. *)
let scan_level lv ~from =
  if from >= slots then -1
  else begin
    let w0 = from lsr 5 in
    let first = lv.occ.(w0) land (-1 lsl (from land 31)) in
    if first <> 0 then (w0 lsl 5) + ctz first
    else begin
      let res = ref (-1) in
      let w = ref (w0 + 1) in
      while !res < 0 && !w < occ_words do
        let bits = lv.occ.(!w) in
        if bits <> 0 then res := (!w lsl 5) + ctz bits;
        incr w
      done;
      !res
    end
  end

let clear_occ lv s =
  let w = s lsr 5 in
  lv.occ.(w) <- lv.occ.(w) land lnot (1 lsl (s land 31))

(* Unpack level-0 bucket [b0] into the staging heap (the (key, seq) heap
   order makes tie handling automatic). Only called with staging empty. *)
let load_bucket t b0 =
  t.cur_b0 <- b0;
  t.st_len <- 0;
  let lv = t.lvls.(0) in
  let s = b0 land slot_mask in
  let b = lv.buckets.(s) in
  for i = 0 to b.blen - 1 do
    stage_insert t ~key:b.bkeys.(i) ~seq:b.bseqs.(i) b.bdata.(i)
  done;
  Array.fill b.bdata 0 b.blen t.dummy;
  b.blen <- 0;
  clear_occ lv s

(* Move the anchor to the start of level-[l] bucket [abs_idx] and drop its
   events one level down (or into staging). *)
let cascade t l abs_idx =
  t.cur_b0 <- abs_idx lsl (l * slot_bits);
  let lv = t.lvls.(l) in
  let s = abs_idx land slot_mask in
  let b = lv.buckets.(s) in
  let n = b.blen in
  b.blen <- 0;
  clear_occ lv s;
  for i = 0 to n - 1 do
    place t ~key:b.bkeys.(i) ~seq:b.bseqs.(i) b.bdata.(i)
  done;
  Array.fill b.bdata 0 n t.dummy

(* Fold the overflow list back in around its minimum key. All overflow
   keys are beyond the old top-level window, so the anchor jump is forward;
   entries still beyond the new windows stay in the list. *)
let cascade_overflow t =
  t.cur_b0 <- (t.ov_min lsr (t.gbits + (2 * slot_bits))) lsl (2 * slot_bits);
  t.st_len <- 0;
  let n = t.ov_len in
  t.ov_len <- 0;
  t.ov_min <- max_int;
  (* In-place compaction: entries within the new windows are re-placed into
     the wheel (the range check below means [place] never re-appends to the
     overflow arrays mid-pass), the rest slide down to [ov_len] <= [i]. *)
  for i = 0 to n - 1 do
    let key = t.ov_keys.(i) in
    let d = key lxor (t.cur_b0 lsl t.gbits) in
    if d < 1 lsl (t.gbits + (3 * slot_bits)) then
      place t ~key ~seq:t.ov_seqs.(i) t.ov_data.(i)
    else begin
      t.ov_keys.(t.ov_len) <- key;
      t.ov_seqs.(t.ov_len) <- t.ov_seqs.(i);
      t.ov_data.(t.ov_len) <- t.ov_data.(i);
      t.ov_len <- t.ov_len + 1;
      if key < t.ov_min then t.ov_min <- key
    end
  done;
  Array.fill t.ov_data t.ov_len (n - t.ov_len) t.dummy

(* Advance to the next occupied bucket whose *start* is <= [bound] and
   unpack it into staging. Returns false (without advancing past [bound])
   when the next event provably starts later. Precondition: staging is
   empty and [count > 0]. *)
let rec advance t ~bound =
  let s0 = t.cur_b0 land slot_mask in
  let next0 = scan_level t.lvls.(0) ~from:(s0 + 1) in
  if next0 >= 0 then begin
    let b0 = ((t.cur_b0 lsr slot_bits) lsl slot_bits) lor next0 in
    b0 lsl t.gbits <= bound
    && begin
         load_bucket t b0;
         true
       end
  end
  else begin
    let s1 = (t.cur_b0 lsr slot_bits) land slot_mask in
    let next1 = scan_level t.lvls.(1) ~from:(s1 + 1) in
    if next1 >= 0 then begin
      let b1 = ((t.cur_b0 lsr (2 * slot_bits)) lsl slot_bits) lor next1 in
      b1 lsl (t.gbits + slot_bits) <= bound
      && begin
           cascade t 1 b1;
           t.st_len > 0 || advance t ~bound
         end
    end
    else begin
      let s2 = (t.cur_b0 lsr (2 * slot_bits)) land slot_mask in
      let next2 = scan_level t.lvls.(2) ~from:(s2 + 1) in
      if next2 >= 0 then begin
        let b2 = ((t.cur_b0 lsr (3 * slot_bits)) lsl slot_bits) lor next2 in
        b2 lsl (t.gbits + (2 * slot_bits)) <= bound
        && begin
             cascade t 2 b2;
             t.st_len > 0 || advance t ~bound
           end
      end
      else begin
        (* staging and all three level windows are empty, yet count > 0:
           everything left is in the overflow list. *)
        assert (t.ov_len > 0);
        t.ov_min <= bound
        && begin
             cascade_overflow t;
             t.st_len > 0 || advance t ~bound
           end
      end
    end
  end

(* True when an event with key <= [bound] is staged after this call. *)
let next_ready t ~bound =
  if t.st_len > 0 then t.st_keys.(0) <= bound
  else t.count > 0 && advance t ~bound && t.st_keys.(0) <= bound

(* Remove and return the staging heap's root — the wheel's (key, seq)
   minimum. Precondition: [st_len > 0]. *)
let take_head t =
  let x = t.st_data.(0) in
  t.last <- t.st_keys.(0);
  let n = t.st_len - 1 in
  t.st_len <- n;
  if n > 0 then st_sift_down t ~key:t.st_keys.(n) ~seq:t.st_seqs.(n) t.st_data.(n);
  t.st_data.(n) <- t.dummy;
  t.count <- t.count - 1;
  x

let pop t = if t.count = 0 then None else if next_ready t ~bound:max_int then Some (take_head t) else None

let pop_le t ~bound =
  if t.count = 0 then None
  else if next_ready t ~bound then Some (take_head t)
  else None

let pop_le_default t ~bound =
  if t.count > 0 && next_ready t ~bound then take_head t else t.dummy

let peek_key t =
  if t.count = 0 then None
  else if next_ready t ~bound:max_int then Some t.st_keys.(0)
  else None

(* Conservative emptiness-below-bound test for the scheduler's checkpoint
   fast path. Exact when the staging window is non-empty (staging holds the
   earliest events); otherwise bucket *starts* are compared against
   [bound], which may answer true for a bucket whose earliest event is
   later — a harmless extra yield, never a missed event. Performs no
   cascades, so it is cheap enough to call at every checkpoint. *)
let has_le t ~bound =
  t.count > 0
  && begin
       if t.st_len > 0 then t.st_keys.(0) <= bound
       else begin
         let s0 = t.cur_b0 land slot_mask in
         let next0 = scan_level t.lvls.(0) ~from:(s0 + 1) in
         if next0 >= 0 then
           (((t.cur_b0 lsr slot_bits) lsl slot_bits) lor next0) lsl t.gbits <= bound
         else begin
           let s1 = (t.cur_b0 lsr slot_bits) land slot_mask in
           let next1 = scan_level t.lvls.(1) ~from:(s1 + 1) in
           if next1 >= 0 then
             (((t.cur_b0 lsr (2 * slot_bits)) lsl slot_bits) lor next1)
             lsl (t.gbits + slot_bits)
             <= bound
           else begin
             let s2 = (t.cur_b0 lsr (2 * slot_bits)) land slot_mask in
             let next2 = scan_level t.lvls.(2) ~from:(s2 + 1) in
             if next2 >= 0 then
               (((t.cur_b0 lsr (3 * slot_bits)) lsl slot_bits) lor next2)
               lsl (t.gbits + (2 * slot_bits))
               <= bound
             else t.ov_min <= bound
           end
         end
       end
     end
