(* A winner (tournament) tree over fixed slots, one per simulated thread.

   A thread has at most one queued event, so the queue is a priority queue
   over [n_threads] slots keyed [(clock, seq)]. Leaf [cap + s] stands for
   slot [s]; internal node [i] (1 <= i < cap) holds the slot that wins its
   subtree, node 1 the overall minimum. Push and pop each change one leaf
   and replay its path to the root: log2 cap levels, no cascade, no
   payload and, in steady state, no allocation. *)

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
  mutable last : int;  (* last popped key *)
}

let create ~kind:Tree ~dummy =
  { cap = 1; keys = [| empty |]; seqs = [| empty |]; win = [| 0; 0 |]; dummy; last = min_int }

let[@inline] less t a b =
  let ka = t.keys.(a) and kb = t.keys.(b) in
  ka < kb || (ka = kb && t.seqs.(a) < t.seqs.(b))

(* Replay the path above node [i], whose subtree [w] wins, to the root. *)
let rec replay t i w =
  if i > 1 then begin
    let s = t.win.(i lxor 1) in
    let w = if less t s w then s else w in
    let p = i lsr 1 in
    t.win.(p) <- w;
    replay t p w
  end

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
    win.(i) <- (if less t r l then r else l)
  done

let mem t slot = slot < t.cap && t.seqs.(slot) <> empty

let push t ~key ~seq slot =
  if slot >= t.cap then grow t slot;
  if t.seqs.(slot) <> empty then
    failwith
      (Printf.sprintf
         "Event_queue.push: slot %d already holds an event (key %d); a thread has at most \
          one queued event (a scheduler bug, not a queue bug)"
         slot t.keys.(slot));
  if key < t.last then
    failwith
      (Printf.sprintf
         "Event_queue.push: clock regression — key %d is before the last popped key %d; the \
          scheduler's event keys must be monotone non-decreasing (a scheduler bug, not a \
          queue bug)"
         key t.last);
  t.keys.(slot) <- key;
  t.seqs.(slot) <- seq;
  replay t (t.cap + slot) slot

let[@inline] has_le t ~bound =
  let w = t.win.(1) in
  t.keys.(w) <= bound && t.seqs.(w) <> empty

let pop_le_default t ~bound =
  if has_le t ~bound then begin
    let w = t.win.(1) in
    t.last <- t.keys.(w);
    t.keys.(w) <- empty;
    t.seqs.(w) <- empty;
    replay t (t.cap + w) w;
    w
  end
  else t.dummy
