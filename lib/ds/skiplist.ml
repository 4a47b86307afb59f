(* Probabilistic skiplist set — a classic SMR benchmark structure (used by
   the IBR and NBR papers' evaluations), rounding out the data structure
   suite.

   Towers are immutable once linked: an insert allocates exactly one node
   whose size grows with its height (levels add pointer slots), a delete
   unlinks the tower at every level and retires the one node. Expected
   depth is logarithmic, maintained probabilistically rather than by
   rebalancing — a different allocation profile from both trees: exactly
   one object per successful update, of *variable* size class. *)

let base_bytes = 48
let bytes_per_level = 16
let max_level = 16

(* The towers live in one [int array], the arena, and a tower is the
   offset of its first word there: [key], the allocator [handle], the
   [height], then [next.(0 .. height-1)]. Offset 0 is the tail, keyed
   [max_int] above every key a search stops at, so every level ends there
   and the descent needs no end-of-list test; the head tower follows it.
   With int links the descent and the predecessors it records store no
   pointers, so they run without a write barrier and the GC has no tower
   graph to mark.

   A retired tower's slot goes back at once to the free list of its height
   (threaded through the [handle] words): the reclaimer protects the
   handle, not the slot, and every caller runs an operation inside an
   atomic section, so no other operation holds an offset across it. For
   the same reason one predecessor scratch per skiplist suffices. *)
let key_w = 0
let handle_w = 1
let height_w = 2
let next_w = 3
let tail = 0
let head = next_w  (* the tail is [key; handle; height = 0] *)
let first_tower = head + next_w + max_level

(* Room for about 3,000 towers of the expected height 2; a full arena
   doubles. *)
let initial_words = 16_384

type t = {
  ctx : Ds_intf.ctx;
  mutable a : int array;  (* the arena *)
  mutable top : int;  (* first word no tower has used *)
  free : int array;  (* by height: free slots, linked through [handle]; 0 = none *)
  mutable level : int;  (* highest level currently in use *)
  mutable size : int;
  mutable nodes : int;
  preds : int array;  (* the last search's predecessor at each level *)
}

let create ctx =
  let a = Array.make initial_words 0 in
  a.(tail + key_w) <- max_int;
  {
    ctx; a; top = first_tower; free = Array.make (max_level + 1) 0; level = 1; size = 0;
    nodes = 0; preds = Array.make max_level head;
  }

(* A slot for a tower of [height]: the last one freed at that height, or
   fresh words at [top]. *)
let take_slot t height =
  let n = t.free.(height) in
  if n <> 0 then begin
    t.free.(height) <- t.a.(n + handle_w);
    n
  end
  else begin
    let n = t.top in
    let top = n + next_w + height in
    let len = Array.length t.a in
    if top > len then begin
      let a = Array.make (2 * len) 0 in
      Array.blit t.a 0 a 0 n;
      t.a <- a
    end;
    t.top <- top;
    n
  end

(* Geometric tower heights from the thread's deterministic stream. *)
let random_level (th : Simcore.Sched.thread) =
  let l = ref 1 in
  while !l < max_level && Simcore.Rng.bool th.Simcore.Sched.rng do
    incr l
  done;
  !l

(* Store the predecessor of [key] at every level in [t.preds]; returns the
   number of nodes visited. *)
let find_preds t key =
  let a = t.a and preds = t.preds in
  let visited = ref 0 in
  let node = ref head in
  for lvl = t.level - 1 downto 0 do
    let next = ref a.(!node + next_w + lvl) in
    while a.(!next + key_w) < key do
      node := !next;
      next := a.(!next + next_w + lvl);
      incr visited
    done;
    preds.(lvl) <- !node;
    incr visited
  done;
  !visited

(* The tower holding [key] after [t.preds.(0)], or [tail]. *)
let found_after t key =
  let a = t.a in
  let n = a.(t.preds.(0) + next_w) in
  if a.(n + key_w) = key && n <> tail then n else tail

let insert t th key =
  let visited = ref (find_preds t key) in
  let changed =
    if found_after t key <> tail then false
    else begin
      let level = random_level th in
      let bytes = base_bytes + (bytes_per_level * level) in
      t.nodes <- t.nodes + 1;
      (* [malloc] first, then the slot, as the allocator saw the tower
         allocation. *)
      let h = t.ctx.Ds_intf.alloc.Alloc.Alloc_intf.malloc th bytes in
      let fresh = take_slot t level in
      let a = t.a and preds = t.preds in
      a.(fresh + key_w) <- key;
      a.(fresh + handle_w) <- h;
      a.(fresh + height_w) <- level;
      (* Levels above the search's descend from the head. *)
      for lvl = t.level to level - 1 do
        preds.(lvl) <- head
      done;
      if level > t.level then t.level <- level;
      for lvl = 0 to level - 1 do
        let link = preds.(lvl) + next_w + lvl in
        a.(fresh + next_w + lvl) <- a.(link);
        a.(link) <- fresh
      done;
      visited := !visited + level;
      t.size <- t.size + 1;
      true
    end
  in
  Ds_intf.charge t.ctx th !visited;
  { Ds_intf.changed; visited = !visited }

let delete t th key =
  let visited = ref (find_preds t key) in
  let n = found_after t key in
  let changed =
    if n = tail then false
    else begin
      let a = t.a and preds = t.preds in
      let height = a.(n + height_w) in
      for lvl = 0 to height - 1 do
        let link = preds.(lvl) + next_w + lvl in
        if a.(link) = n then a.(link) <- a.(n + next_w + lvl)
      done;
      (* Shrink the active level if the top became empty. *)
      while t.level > 1 && a.(head + next_w + t.level - 1) = tail do
        t.level <- t.level - 1
      done;
      t.nodes <- t.nodes - 1;
      (* Retire the handle, then free the slot, whose [handle] word the
         free list overwrites. *)
      t.ctx.Ds_intf.retire th a.(n + handle_w);
      a.(n + handle_w) <- t.free.(height);
      t.free.(height) <- n;
      visited := !visited + height;
      t.size <- t.size - 1;
      true
    end
  in
  Ds_intf.charge t.ctx th !visited;
  { Ds_intf.changed; visited = !visited }

let contains t th key =
  let visited = find_preds t key in
  Ds_intf.charge t.ctx th visited;
  { Ds_intf.changed = found_after t key <> tail; visited }

let check_invariants t =
  let fail fmt = Printf.ksprintf invalid_arg ("Skiplist: " ^^ fmt) in
  let a = t.a in
  let in_arena n = n >= first_tower && n < t.top in
  let height n = a.(n + height_w) in
  (* Level-0 keys strictly ascending; every count consistent. *)
  let count = ref 0 and words = ref 0 in
  let rec walk prev n =
    if n <> tail then begin
      if not (in_arena n) then fail "tower offset %d outside the arena" n;
      let k = a.(n + key_w) in
      if k <= prev then fail "keys not ascending at %d" k;
      if height n < 1 || height n > max_level then fail "height %d at key %d" (height n) k;
      incr count;
      words := !words + next_w + height n;
      walk k a.(n + next_w)
    end
  in
  walk min_int a.(head + next_w);
  if !count <> t.size then fail "size %d but %d keys" t.size !count;
  if !count <> t.nodes then fail "nodes %d but %d reachable" t.nodes !count;
  (* Every higher-level list is a subsequence of level 0. *)
  for lvl = 1 to t.level - 1 do
    let rec sub n =
      if n <> tail then begin
        if height n <= lvl then fail "tower too short at key %d" a.(n + key_w);
        sub a.(n + next_w + lvl)
      end
    in
    sub a.(head + next_w + lvl)
  done;
  (* Every word below [top] belongs to a reachable tower or to a free
     slot of the height its list is kept for. *)
  for h = 1 to max_level do
    let n = ref t.free.(h) in
    while !n <> 0 && !words <= t.top do
      if not (in_arena !n) then fail "free slot %d outside the arena" !n;
      if height !n <> h then fail "free slot %d of height %d on the list of %d" !n (height !n) h;
      words := !words + next_w + h;
      n := a.(!n + handle_w)
    done
  done;
  if !words <> t.top - first_tower then
    fail "%d words used but %d in reachable towers and free slots" (t.top - first_tower) !words

let make ctx =
  let t = create ctx in
  {
    Ds_intf.name = "skiplist";
    insert = insert t;
    delete = delete t;
    contains = contains t;
    size = (fun () -> t.size);
    node_count = (fun () -> t.nodes);
    check_invariants = (fun () -> check_invariants t);
    allocs_per_update = 0.5;
  }
