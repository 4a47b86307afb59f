(* Bronson et al.'s partially external BST (the paper's "OCCtree").

   The property that matters for the paper: a *partially external* tree
   turns deletions of nodes with two children into mere unmarking-candidates
   (routing nodes), so deletes allocate nothing and only unlink/retire
   small (64-byte) nodes when a node has at most one child. Inserts either
   revive a routing node (no allocation) or allocate exactly one node.
   Compared with the ABtree this slashes allocator traffic, which is why
   the OCCtree keeps scaling on four sockets while the ABtree hits the
   remote-batch-free wall (paper Fig 1). Rebalancing is omitted: uniform
   random keys keep the expected depth logarithmic. *)

let node_bytes = 64

(* The nodes live in one [int array], the arena, and a node is the offset
   of its first word there. A node is four words: [key], [left] and
   [right] (the only words a descent reads), then [hp], the allocator
   handle and the present bit ([(handle lsl 1) lor present]; present = 0
   marks a routing node). Offset 0 is the absent node: a child or root of
   0 means "none". The descent below is the simulator's hottest code, and
   with int links neither it nor the path it records stores a pointer, so
   it runs without a write barrier and the GC has no node graph to mark.

   A retired node's slot goes back to the free list (threaded through the
   [hp] words) at once: the reclaimer protects the allocator handle, not
   the slot, and every caller runs an operation inside an atomic section,
   so no other operation holds an offset across it. For the same reason
   one search scratch per tree suffices. *)
let key_w = 0
let left_w = 1
let right_w = 2
let hp_w = 3
let words = 4

(* Room for 4,095 nodes; a full arena doubles. *)
let initial_words = 16_384

type t = {
  ctx : Ds_intf.ctx;
  mutable a : int array;  (* the arena; words [0, 4) are the absent node *)
  mutable top : int;  (* first word no node has used *)
  mutable free : int;  (* free slots, linked through [hp]; 0 = none *)
  mutable root : int;
  mutable size : int;
  mutable nodes : int;
  (* The last search. [search] fills the path: the ancestors of the key,
     root first, with the direction taken from each (true = left). *)
  mutable path : int array;
  mutable dirs : bool array;
  mutable depth : int;
  mutable found : int;  (* 0 when the key was absent *)
  mutable visited : int;
  mutable parent : int;  (* [search_frontier]: last node on the path *)
  mutable parent_left : bool;  (* direction taken from [parent] *)
}

let create ctx =
  {
    ctx; a = Array.make initial_words 0; top = words; free = 0; root = 0; size = 0; nodes = 0;
    path = Array.make 64 0; dirs = Array.make 64 false; depth = 0; found = 0; visited = 0;
    parent = 0; parent_left = false;
  }

let[@inline] present a n = a.(n + hp_w) land 1 <> 0

(* The index of the word holding [n]'s left child if [left], else its
   right child, computed without a branch. *)
let[@inline] link n left = n + right_w - Bool.to_int left

let child_count a n = Bool.to_int (a.(n + left_w) <> 0) + Bool.to_int (a.(n + right_w) <> 0)

let grow_path t =
  let cap = 2 * Array.length t.path in
  let path = Array.make cap 0 and dirs = Array.make cap false in
  Array.blit t.path 0 path 0 (Array.length t.path);
  Array.blit t.dirs 0 dirs 0 (Array.length t.dirs);
  t.path <- path;
  t.dirs <- dirs

let take_slot t =
  let n = t.free in
  if n <> 0 then begin
    t.free <- t.a.(n + hp_w);
    n
  end
  else begin
    let n = t.top in
    let len = Array.length t.a in
    if n + words > len then begin
      let a = Array.make (2 * len) 0 in
      Array.blit t.a 0 a 0 n;
      t.a <- a
    end;
    t.top <- n + words;
    n
  end

(* [malloc] first, then the slot, as the allocator saw the record
   allocation. *)
let alloc_node t th key =
  t.nodes <- t.nodes + 1;
  let h = t.ctx.Ds_intf.alloc.Alloc.Alloc_intf.malloc th node_bytes in
  let n = take_slot t in
  let a = t.a in
  a.(n + key_w) <- key;
  a.(n + left_w) <- 0;
  a.(n + right_w) <- 0;
  a.(n + hp_w) <- (h lsl 1) lor 1;
  n

(* Retire the handle, then free the slot, whose [hp] word the free list
   overwrites. *)
let retire_node t th n =
  t.nodes <- t.nodes - 1;
  let a = t.a in
  t.ctx.Ds_intf.retire th (a.(n + hp_w) asr 1);
  a.(n + hp_w) <- t.free;
  t.free <- n

(* Search for [key]: the matching node in [t.found] (0 if absent), the
   path from the root in [t.path]/[t.dirs] and its length in [t.depth],
   and the number of nodes visited. The descent loops are module-level
   functions taking their whole state as arguments: a local [let rec]
   closing over [key] costs a closure allocation per call. Self tail-calls
   compile to jumps. *)
let rec search_go t a key n depth visited =
  if n = 0 then begin
    t.found <- 0;
    t.depth <- depth;
    t.visited <- visited
  end
  else begin
    let k = a.(n + key_w) in
    if key = k then begin
      t.found <- n;
      t.depth <- depth;
      t.visited <- visited + 1
    end
    else begin
      if depth = Array.length t.path then grow_path t;
      let left = key < k in
      t.path.(depth) <- n;
      t.dirs.(depth) <- left;
      search_go t a key a.(link n left) (depth + 1) (visited + 1)
    end
  end

let search t key = search_go t t.a key t.root 0 0

(* Path-free search for [contains] and [insert]: tracks only the frontier
   (the last node on the path and the direction taken from it), so the
   descent is pure loads. Visits exactly the nodes [search] visits. Only
   [delete] needs the path (for the cascaded routing-node unlink). *)
let rec frontier_go t a key parent left n visited =
  if n = 0 then begin
    t.found <- 0;
    t.parent <- parent;
    t.parent_left <- left;
    t.visited <- visited
  end
  else begin
    let k = a.(n + key_w) in
    if key = k then begin
      t.found <- n;
      t.visited <- visited + 1
    end
    else begin
      let l = key < k in
      frontier_go t a key n l a.(link n l) (visited + 1)
    end
  end

let search_frontier t key = frontier_go t t.a key 0 false t.root 0

(* Replace the tree edge leading to path position [depth]. *)
let replace_in t depth replacement =
  if depth = 0 then t.root <- replacement
  else t.a.(link t.path.(depth - 1) t.dirs.(depth - 1)) <- replacement

(* Unlink [n] (which has at most one child), then cascade: unlink any
   ancestor routing node left with fewer than two children, as Bronson's
   tree does during deletion cleanup. Returns nodes retired. *)
let rec unlink t th n depth =
  let a = t.a in
  let l = a.(n + left_w) in
  replace_in t depth (if l <> 0 then l else a.(n + right_w));
  retire_node t th n;
  if depth > 0 then begin
    let p = t.path.(depth - 1) in
    if (not (present a p)) && child_count a p < 2 then 1 + unlink t th p (depth - 1) else 1
  end
  else 1

let insert t th key =
  search_frontier t key;
  let visited = ref t.visited in
  let changed =
    let n = t.found in
    if n <> 0 then begin
      let a = t.a in
      if present a n then false
      else begin
        (* Revive a routing node: no allocation at all. *)
        a.(n + hp_w) <- a.(n + hp_w) lor 1;
        t.size <- t.size + 1;
        true
      end
    end
    else begin
      let fresh = alloc_node t th key in
      (if t.parent = 0 then t.root <- fresh
       else t.a.(link t.parent t.parent_left) <- fresh);
      incr visited;
      t.size <- t.size + 1;
      true
    end
  in
  Ds_intf.charge t.ctx th !visited;
  { Ds_intf.changed; visited = !visited }

let delete t th key =
  search t key;
  let visited = ref t.visited in
  let n = t.found in
  let changed =
    if n <> 0 && present t.a n then begin
      t.size <- t.size - 1;
      if child_count t.a n = 2 then
        (* Two children: becomes a routing node; no memory is touched. *)
        t.a.(n + hp_w) <- t.a.(n + hp_w) land lnot 1
      else visited := !visited + unlink t th n t.depth;
      true
    end
    else false
  in
  Ds_intf.charge t.ctx th !visited;
  { Ds_intf.changed; visited = !visited }

let contains t th key =
  search_frontier t key;
  Ds_intf.charge t.ctx th t.visited;
  let present = t.found <> 0 && present t.a t.found in
  { Ds_intf.changed = present; visited = t.visited }

let check_invariants t =
  let fail fmt = Printf.ksprintf invalid_arg ("Occ_tree: " ^^ fmt) in
  let a = t.a in
  let slot n = n >= words && n < t.top && n mod words = 0 in
  let present_keys = ref 0 and nodes = ref 0 in
  let rec walk n lo hi =
    if n <> 0 then begin
      if not (slot n) then fail "node offset %d outside the arena" n;
      incr nodes;
      let k = a.(n + key_w) in
      if k < lo || k >= hi then fail "key %d out of range" k;
      if present a n then incr present_keys
      else if child_count a n = 0 then fail "routing leaf %d" k;
      walk a.(n + left_w) lo k;
      walk a.(n + right_w) (k + 1) hi
    end
  in
  walk t.root min_int max_int;
  if !present_keys <> t.size then fail "size counter %d but %d present keys" t.size !present_keys;
  if !nodes <> t.nodes then fail "node counter %d but %d reachable" t.nodes !nodes;
  (* Every slot below [top] is a reachable node or on the free list. *)
  let free = ref 0 and n = ref t.free in
  while !n <> 0 && !free < t.top do
    if not (slot !n) then fail "free slot %d outside the arena" !n;
    incr free;
    n := a.(!n + hp_w)
  done;
  if !nodes + !free <> (t.top / words) - 1 then
    fail "%d slots used but %d reachable and %d free" ((t.top / words) - 1) !nodes !free

let make ctx =
  let t = create ctx in
  {
    Ds_intf.name = "occtree";
    insert = insert t;
    delete = delete t;
    contains = contains t;
    size = (fun () -> t.size);
    node_count = (fun () -> t.nodes);
    check_invariants = (fun () -> check_invariants t);
    allocs_per_update = 0.4;
  }
