(* A winner (tournament) tree over fixed slots, one per simulated thread.

   A thread has at most one queued event, so the queue is a priority queue
   over [n_threads] slots keyed [(clock, seq)]. Leaf [cap + s] stands for
   slot [s]; internal node [i] (1 <= i < cap) holds the slot that wins its
   subtree, node 1 the overall minimum. Every update changes one leaf and
   replays its path to the root: log2 cap levels, no cascade, no payload
   and, in steady state, no allocation. The scheduler keeps the running
   thread in its slot and re-keys it at each checkpoint, so a context
   switch costs one replay. *)

type kind = Tree

let default_kind () = Tree

(* A free slot holds (empty, empty), which every queued event beats:
   queued seqs are below max_int. *)
let empty = max_int

type t = {
  mutable cap : int;  (* leaves, a power of two *)
  mutable keys : int array;  (* per slot *)
  mutable seqs : int array;  (* per slot; [empty] when the slot is free *)
  mutable win : int array;  (* per node: the winning slot of its subtree *)
  dummy : int;
  mutable last : int;  (* last dispatched key: the clock-regression floor *)
}

let create ~kind:Tree ~dummy =
  { cap = 1; keys = [| empty |]; seqs = [| empty |]; win = [| 0; 0 |]; dummy; last = min_int }

(* -1 when [(ka, sa)] orders before [(kb, sb)], else 0, without a branch:
   which of two thread clocks is smaller is a coin flip the branch
   predictor cannot learn. The [int] annotations keep the compares
   machine compares. *)
let[@inline] before (ka : int) (sa : int) (kb : int) (sb : int) =
  -(Bool.to_int (ka < kb) lor (Bool.to_int (ka = kb) land Bool.to_int (sa < sb)))

(* Replay the path above node [i] to the root, carrying the winner of [i]'s
   subtree: its slot [w], key [kw] and seq [sw]. At each level the
   sibling's winner takes over iff it orders first, selected through the
   mask. Returns the root's winner. *)
let rec replay (win : int array) (keys : int array) (seqs : int array) i w kw sw =
  if i = 1 then w
  else begin
    let s = Array.unsafe_get win (i lxor 1) in
    let ks = Array.unsafe_get keys s and ss = Array.unsafe_get seqs s in
    let m = before ks ss kw sw in
    let w = w lxor ((w lxor s) land m) in
    let p = i lsr 1 in
    Array.unsafe_set win p w;
    replay win keys seqs p w (kw lxor ((kw lxor ks) land m)) (sw lxor ((sw lxor ss) land m))
  end

(* Set [slot]'s event and replay its path; returns the root's winner. *)
let set t slot key seq =
  t.keys.(slot) <- key;
  t.seqs.(slot) <- seq;
  replay t.win t.keys t.seqs (t.cap + slot) slot key seq

(* Double the leaves until [slot] fits, then rebuild the internal nodes. *)
let grow t slot =
  let cap = ref t.cap in
  while !cap <= slot do
    cap := 2 * !cap
  done;
  let cap = !cap in
  let keys = Array.make cap empty and seqs = Array.make cap empty in
  Array.blit t.keys 0 keys 0 t.cap;
  Array.blit t.seqs 0 seqs 0 t.cap;
  let win = Array.make (2 * cap) 0 in
  for s = 0 to cap - 1 do
    win.(cap + s) <- s
  done;
  t.cap <- cap;
  t.keys <- keys;
  t.seqs <- seqs;
  t.win <- win;
  for i = cap - 1 downto 1 do
    let l = win.(2 * i) and r = win.(2 * i + 1) in
    win.(i) <- l lxor ((l lxor r) land before keys.(r) seqs.(r) keys.(l) seqs.(l))
  done

let held t slot = slot < t.cap && t.seqs.(slot) <> empty

(* The two misuse failures, kept out of line: the checks that call them
   sit on every re-key. *)
let regression op t key =
  failwith
    (Printf.sprintf
       "Event_queue.%s: clock regression — key %d is before the last dispatched key %d; the \
        scheduler's event keys must be monotone non-decreasing (a scheduler bug, not a queue \
        bug)"
       op key t.last)

let not_held op slot =
  failwith
    (Printf.sprintf "Event_queue.%s: slot %d holds no event (a scheduler bug, not a queue bug)"
       op slot)

let push t ~key ~seq slot =
  if slot >= t.cap then grow t slot;
  if t.seqs.(slot) <> empty then
    failwith
      (Printf.sprintf
         "Event_queue.push: slot %d already holds an event (key %d); a thread has at most \
          one queued event (a scheduler bug, not a queue bug)"
         slot t.keys.(slot));
  if key < t.last then regression "push" t key;
  ignore (set t slot key seq : int)

let rekey t ~key ~seq slot =
  if not (held t slot) then not_held "rekey" slot;
  if key < t.last then regression "rekey" t key;
  set t slot key seq

let remove t slot =
  if not (held t slot) then not_held "remove" slot;
  ignore (set t slot empty empty : int)

let[@inline] has_le t ~bound =
  let w = t.win.(1) in
  t.keys.(w) <= bound && t.seqs.(w) <> empty

let peek_le_default t ~bound =
  if has_le t ~bound then begin
    let w = t.win.(1) in
    t.last <- t.keys.(w);
    w
  end
  else t.dummy

let pop_le_default t ~bound =
  let w = peek_le_default t ~bound in
  if w <> t.dummy then ignore (set t w empty empty : int);
  w
