(* Reference OCC tree for the differential test in [Test_ds]: the
   pointer-based implementation that [Ds.Occ_tree] replaced, kept as the
   oracle for the arena one, the way [Abtree_ref] is the reference for
   [Ds.Abtree].

   Nodes are OCaml records linked by direct references, with the physical
   sentinel [dummy_node] for an absent child. Its allocator calls,
   [visited] counts and tree shape are the model the arena tree must
   reproduce exactly. *)

open Simcore

let node_bytes = 64

(* Children are direct node references with a physical sentinel
   ([dummy_node]) for "absent", not [node option]: a [Some] cell is a
   separate heap block, so an option-typed child costs two dependent loads
   per hop. The search loop below is the simulator's hottest code — a
   pointer chase over a few thousand nodes — and halving its memory
   touches is worth the null-object idiom.

   The node is packed to four words ([key], [left], [right] first — the
   only fields the descent reads — then the handle and the present bit
   sharing [hp]) so the per-node footprint, and with it the cache-miss
   rate of the chase, stays minimal. *)
type node = {
  key : int;
  mutable left : node;  (* [dummy_node] = no child *)
  mutable right : node;
  mutable hp : int;  (* (handle lsl 1) lor present; present=0 = routing *)
}

let[@inline] node_present n = n.hp land 1 <> 0
let[@inline] node_handle n = n.hp asr 1

(* Reusable search path, so the O(depth) descent allocates nothing — at
   tens of visited nodes per operation and millions of operations per
   trial, a per-search path list is the simulator's single biggest
   allocation source. The scratch is per *simulated thread*: [malloc] and
   [retire] can yield (allocator lock waits), during which other threads
   run complete operations of their own, but a thread never has two
   operations of its own in flight. *)
type scratch = {
  mutable snodes : node array;  (* ancestors of the current op, root-first *)
  mutable sdirs : bool array;  (* direction taken from each: true = left *)
  mutable found : node;  (* [dummy_node] when the key was absent *)
  mutable depth : int;
  mutable visited : int;
  mutable parent : node;  (* frontier search: last node on the path *)
  mutable parent_left : bool;  (* direction taken from [parent] *)
}

type t = {
  ctx : Ds.Ds_intf.ctx;
  mutable root : node;  (* [dummy_node] = empty tree *)
  mutable size : int;
  mutable nodes : int;
  mutable scratch : scratch option array;  (* indexed by simulated tid *)
}

let rec dummy_node = { key = min_int; left = dummy_node; right = dummy_node; hp = -2 }

let create ctx = { ctx; root = dummy_node; size = 0; nodes = 0; scratch = [||] }

let scratch_for t (th : Sched.thread) =
  let tid = th.Sched.tid in
  if tid >= Array.length t.scratch then begin
    let a = Array.make (tid + 1) None in
    Array.blit t.scratch 0 a 0 (Array.length t.scratch);
    t.scratch <- a
  end;
  match t.scratch.(tid) with
  | Some s -> s
  | None ->
      let s =
        {
          snodes = Array.make 64 dummy_node;
          sdirs = Array.make 64 false;
          found = dummy_node;
          depth = 0;
          visited = 0;
          parent = dummy_node;
          parent_left = false;
        }
      in
      t.scratch.(tid) <- Some s;
      s

let grow_scratch s =
  let cap = 2 * Array.length s.snodes in
  let nodes = Array.make cap dummy_node and dirs = Array.make cap false in
  Array.blit s.snodes 0 nodes 0 (Array.length s.snodes);
  Array.blit s.sdirs 0 dirs 0 (Array.length s.sdirs);
  s.snodes <- nodes;
  s.sdirs <- dirs

let alloc_node t th key =
  t.nodes <- t.nodes + 1;
  let h = t.ctx.Ds.Ds_intf.alloc.Alloc.Alloc_intf.malloc th node_bytes in
  { key; left = dummy_node; right = dummy_node; hp = (h lsl 1) lor 1 }

let retire_node t th (n : node) =
  t.nodes <- t.nodes - 1;
  t.ctx.Ds.Ds_intf.retire th (node_handle n)

(* Search for [key], filling [s]: the matching node in [s.found]
   ([dummy_node] if absent), the path from the root in
   [s.snodes]/[s.sdirs] (with the direction taken *from* each node),
   its length in [s.depth], and the number of nodes visited. *)
(* The descent loops are module-level functions taking their whole state
   as arguments: a local [let rec] closing over [s] and [key] costs a
   closure allocation per call, and these are the hottest calls in the
   simulator. Self tail-calls compile to jumps. *)
let rec search_go s key n depth visited =
  if n == dummy_node then begin
    s.found <- dummy_node;
    s.depth <- depth;
    s.visited <- visited
  end
  else if key = n.key then begin
    s.found <- n;
    s.depth <- depth;
    s.visited <- visited + 1
  end
  else begin
    if depth = Array.length s.snodes then grow_scratch s;
    s.snodes.(depth) <- n;
    let left = key < n.key in
    s.sdirs.(depth) <- left;
    search_go s key (if left then n.left else n.right) (depth + 1) (visited + 1)
  end

let search t s key = search_go s key t.root 0 0

(* Store-free search for [contains] and [insert]: tracks only the frontier
   (the last node on the path and the direction taken from it) in place of
   the ancestor stack, so the descent is pure loads — no array stores, and
   in particular no write barriers for the node pointers. Visits exactly
   the nodes [search] visits. Only [delete] needs the full stack (for the
   cascaded routing-node unlink) and pays for [search]. *)
let rec frontier_go s key parent left n visited =
  if n == dummy_node then begin
    s.found <- dummy_node;
    s.parent <- parent;
    s.parent_left <- left;
    s.visited <- visited
  end
  else if key = n.key then begin
    s.found <- n;
    s.visited <- visited + 1
  end
  else begin
    let l = key < n.key in
    frontier_go s key n l (if l then n.left else n.right) (visited + 1)
  end

let search_frontier t s key = frontier_go s key dummy_node false t.root 0

let child_count n =
  (if n.left != dummy_node then 1 else 0) + (if n.right != dummy_node then 1 else 0)

(* Replace the tree edge leading to path position [depth]. *)
let replace_in t s depth replacement =
  if depth = 0 then t.root <- replacement
  else begin
    let p = s.snodes.(depth - 1) in
    if s.sdirs.(depth - 1) then p.left <- replacement else p.right <- replacement
  end

(* Unlink [n] (which has at most one child), then cascade: unlink any
   ancestor routing node left with fewer than two children, as Bronson's
   tree does during deletion cleanup. Returns nodes retired. *)
let rec unlink t th s n depth =
  let child = if n.left != dummy_node then n.left else n.right in
  replace_in t s depth child;
  retire_node t th n;
  if depth > 0 then begin
    let p = s.snodes.(depth - 1) in
    if (not (node_present p)) && child_count p < 2 then 1 + unlink t th s p (depth - 1) else 1
  end
  else 1

let insert t th key =
  let s = scratch_for t th in
  search_frontier t s key;
  let visited = ref s.visited in
  let changed =
    if s.found != dummy_node then begin
      let n = s.found in
      if node_present n then false
      else begin
        (* Revive a routing node: no allocation at all. *)
        n.hp <- n.hp lor 1;
        t.size <- t.size + 1;
        true
      end
    end
    else begin
      let fresh = alloc_node t th key in
      (if s.parent == dummy_node then t.root <- fresh
       else if s.parent_left then s.parent.left <- fresh
       else s.parent.right <- fresh);
      incr visited;
      t.size <- t.size + 1;
      true
    end
  in
  Ds.Ds_intf.charge t.ctx th !visited;
  { Ds.Ds_intf.changed; visited = !visited }

let delete t th key =
  let s = scratch_for t th in
  search t s key;
  let visited = ref s.visited in
  let changed =
    if s.found != dummy_node && node_present s.found then begin
      let n = s.found in
      t.size <- t.size - 1;
      if child_count n = 2 then
        (* Two children: becomes a routing node; no memory is touched. *)
        n.hp <- n.hp land lnot 1
      else visited := !visited + unlink t th s n s.depth;
      true
    end
    else false
  in
  Ds.Ds_intf.charge t.ctx th !visited;
  { Ds.Ds_intf.changed; visited = !visited }

let contains t th key =
  let s = scratch_for t th in
  search_frontier t s key;
  Ds.Ds_intf.charge t.ctx th s.visited;
  let present = s.found != dummy_node && node_present s.found in
  { Ds.Ds_intf.changed = present; visited = s.visited }

let check_invariants t =
  let fail fmt = Printf.ksprintf invalid_arg ("Occ_tree: " ^^ fmt) in
  let present = ref 0 and nodes = ref 0 in
  let rec walk n lo hi =
    if n != dummy_node then begin
      incr nodes;
      if n.key < lo || n.key >= hi then fail "key %d out of range" n.key;
      if node_present n then incr present
      else if child_count n = 0 then fail "routing leaf %d" n.key;
      walk n.left lo n.key;
      walk n.right (n.key + 1) hi
    end
  in
  walk t.root min_int max_int;
  if !present <> t.size then fail "size counter %d but %d present keys" t.size !present;
  if !nodes <> t.nodes then fail "node counter %d but %d reachable" t.nodes !nodes

let make ctx =
  let t = create ctx in
  {
    Ds.Ds_intf.name = "occtree";
    insert = insert t;
    delete = delete t;
    contains = contains t;
    size = (fun () -> t.size);
    node_count = (fun () -> t.nodes);
    check_invariants = (fun () -> check_invariants t);
    allocs_per_update = 0.4;
  }
