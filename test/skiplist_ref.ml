(* Reference skiplist for the differential test in [Test_ds]: the
   pointer-based implementation that [Ds.Skiplist] replaced, kept as the
   oracle for the arena one, the way [Abtree_ref] is the reference for
   [Ds.Abtree].

   Towers are OCaml records whose [next] arrays hold direct references,
   every level ending at the shared [tail] sentinel. Its allocator calls,
   RNG draws and [visited] counts are the model the arena skiplist must
   reproduce exactly. *)

let base_bytes = 48
let bytes_per_level = 16
let max_level = 16

(* Links are direct node references, not [node option]: a [Some] cell is a
   separate heap block, so an option link costs an extra dependent load per
   hop and an allocation per store. Every level ends at the one shared
   [tail] sentinel, keyed [max_int] above every key a search stops at, so
   the descent needs no end-of-list test. *)
type node = {
  h : int;  (* allocator handle; -1 for sentinels *)
  key : int;
  next : node array;  (* one slot per level *)
}

let tail = { h = -1; key = max_int; next = [||] }

(* Predecessors of the current operation's key, one slot per level, reused
   across operations so a search allocates nothing. The scratch is per
   *simulated thread*, as in [Occ_tree]: an operation called outside an
   atomic section can yield in [malloc] or [retire], and other threads then
   run whole operations, but a thread never has two of its own in
   flight. *)
type t = {
  ctx : Ds.Ds_intf.ctx;
  head : node;
  mutable level : int;  (* highest level currently in use *)
  mutable size : int;
  mutable nodes : int;
  mutable preds : node array array;  (* indexed by simulated tid *)
}

let create ctx =
  {
    ctx;
    head = { h = -1; key = min_int; next = Array.make max_level tail };
    level = 1;
    size = 0;
    nodes = 0;
    preds = [||];
  }

let preds_for t (th : Simcore.Sched.thread) =
  let tid = th.Simcore.Sched.tid in
  if tid >= Array.length t.preds then begin
    let a = Array.make (tid + 1) [||] in
    Array.blit t.preds 0 a 0 (Array.length t.preds);
    t.preds <- a
  end;
  if Array.length t.preds.(tid) = 0 then t.preds.(tid) <- Array.make max_level t.head;
  t.preds.(tid)

(* Geometric tower heights from the thread's deterministic stream. *)
let random_level (th : Simcore.Sched.thread) =
  let l = ref 1 in
  while !l < max_level && Simcore.Rng.bool th.Simcore.Sched.rng do
    incr l
  done;
  !l

(* Store the predecessor of [key] at every level in [preds]; returns the
   number of nodes visited. *)
let find_preds t preds key =
  let visited = ref 0 in
  let node = ref t.head in
  for lvl = t.level - 1 downto 0 do
    let next = ref !node.next.(lvl) in
    while !next.key < key do
      node := !next;
      next := !next.next.(lvl);
      incr visited
    done;
    preds.(lvl) <- !node;
    incr visited
  done;
  !visited

(* The node holding [key] after [preds.(0)], or [tail]. *)
let found_after preds key =
  let n = preds.(0).next.(0) in
  if n.key = key && n != tail then n else tail

let insert t th key =
  let preds = preds_for t th in
  let visited = ref (find_preds t preds key) in
  let changed =
    if found_after preds key != tail then false
    else begin
      let level = random_level th in
      let bytes = base_bytes + (bytes_per_level * level) in
      let searched = t.level in
      t.nodes <- t.nodes + 1;
      let h = t.ctx.Ds.Ds_intf.alloc.Alloc.Alloc_intf.malloc th bytes in
      let fresh = { h; key; next = Array.make level tail } in
      (* Levels the search did not fill descend from the head, and so do
         levels that emptied while [malloc] yielded. *)
      for lvl = min searched t.level to level - 1 do
        preds.(lvl) <- t.head
      done;
      if level > t.level then t.level <- level;
      for lvl = 0 to level - 1 do
        fresh.next.(lvl) <- preds.(lvl).next.(lvl);
        preds.(lvl).next.(lvl) <- fresh
      done;
      visited := !visited + level;
      t.size <- t.size + 1;
      true
    end
  in
  Ds.Ds_intf.charge t.ctx th !visited;
  { Ds.Ds_intf.changed; visited = !visited }

let delete t th key =
  let preds = preds_for t th in
  let visited = ref (find_preds t preds key) in
  let n = found_after preds key in
  let changed =
    if n == tail then false
    else begin
      let height = Array.length n.next in
      for lvl = 0 to height - 1 do
        if preds.(lvl).next.(lvl) == n then preds.(lvl).next.(lvl) <- n.next.(lvl)
      done;
      (* Shrink the active level if the top became empty. *)
      while t.level > 1 && t.head.next.(t.level - 1) == tail do
        t.level <- t.level - 1
      done;
      t.nodes <- t.nodes - 1;
      t.ctx.Ds.Ds_intf.retire th n.h;
      visited := !visited + height;
      t.size <- t.size - 1;
      true
    end
  in
  Ds.Ds_intf.charge t.ctx th !visited;
  { Ds.Ds_intf.changed; visited = !visited }

let contains t th key =
  let preds = preds_for t th in
  let visited = find_preds t preds key in
  Ds.Ds_intf.charge t.ctx th visited;
  { Ds.Ds_intf.changed = found_after preds key != tail; visited }

let check_invariants t =
  let fail fmt = Printf.ksprintf invalid_arg ("Skiplist: " ^^ fmt) in
  (* Level-0 keys strictly ascending; every count consistent. *)
  let count = ref 0 in
  let rec walk prev n =
    if n != tail then begin
      if n.key <= prev then fail "keys not ascending at %d" n.key;
      incr count;
      walk n.key n.next.(0)
    end
  in
  walk min_int t.head.next.(0);
  if !count <> t.size then fail "size %d but %d keys" t.size !count;
  if !count <> t.nodes then fail "nodes %d but %d reachable" t.nodes !count;
  (* Every higher-level list is a subsequence of level 0. *)
  for lvl = 1 to t.level - 1 do
    let rec sub n =
      if n != tail then begin
        if Array.length n.next <= lvl then fail "tower too short at key %d" n.key;
        sub n.next.(lvl)
      end
    in
    sub t.head.next.(lvl)
  done

let make ctx =
  let t = create ctx in
  {
    Ds.Ds_intf.name = "skiplist";
    insert = insert t;
    delete = delete t;
    contains = contains t;
    size = (fun () -> t.size);
    node_count = (fun () -> t.nodes);
    check_invariants = (fun () -> check_invariants t);
    allocs_per_update = 0.5;
  }
