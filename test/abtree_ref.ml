(* Reference ABtree for the differential test in [Test_ds]: the
   copy-on-write implementation [Ds.Abtree] replaced, kept as the oracle
   for the in-place one, the way [Heap] is the reference for
   [Simcore.Event_queue].

   Every update builds new OCaml key arrays and leaf records and keeps the
   path as a [(node, index)] list. Its allocator calls, [visited] counts
   and tree shape are the model the in-place tree must reproduce exactly.
   The [coverage] counters, which the library tree does not have, let the
   test check that its scripts reach every restructuring path. *)

type coverage = {
  mutable leaf_splits : int;
  mutable internal_splits : int;
  mutable root_splits : int;
  mutable merges : int;
  mutable borrows : int;
  mutable mixed_depth_skips : int;
  mutable splices : int;  (* single-child internal node spliced out *)
  mutable root_collapses : int;
}

let coverage =
  { leaf_splits = 0; internal_splits = 0; root_splits = 0; merges = 0; borrows = 0;
    mixed_depth_skips = 0; splices = 0; root_collapses = 0 }

let node_bytes = 240

type node = Leaf of leaf | Internal of internal
and leaf = { lh : int; keys : int array }  (* sorted *)

and internal = {
  ih : int;
  mutable ikeys : int array;  (* separators, sorted *)
  mutable children : node array;  (* length = Array.length ikeys + 1 *)
}

type t = {
  ctx : Ds.Ds_intf.ctx;
  a : int;
  b : int;
  mutable root : node;
  mutable size : int;  (* number of keys *)
  mutable nodes : int;  (* allocator objects reachable from [root] *)
}

let alloc_handle t th =
  t.nodes <- t.nodes + 1;
  t.ctx.Ds.Ds_intf.alloc.Alloc.Alloc_intf.malloc th node_bytes

let retire_handle t th h =
  t.nodes <- t.nodes - 1;
  t.ctx.Ds.Ds_intf.retire th h

let new_leaf t th keys = Leaf { lh = alloc_handle t th; keys }

let create ?(a = 6) ?(b = 16) ctx th =
  if a < 2 || b < (2 * a) - 1 then invalid_arg "Abtree.create: need a >= 2 and b >= 2a-1";
  let t = { ctx; a; b; root = Leaf { lh = 0; keys = [||] }; size = 0; nodes = 0 } in
  t.root <- new_leaf t th [||];
  t

(* Index of the child to follow: number of separators <= key. *)
let child_index n key =
  let len = Array.length n.ikeys in
  let i = ref 0 in
  while !i < len && n.ikeys.(!i) <= key do
    incr i
  done;
  !i

let array_insert a i x =
  let n = Array.length a in
  let out = Array.make (n + 1) x in
  Array.blit a 0 out 0 i;
  Array.blit a i out (i + 1) (n - i);
  out

let array_remove a i =
  let n = Array.length a in
  let out = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) out i (n - 1 - i);
  out

let sorted_insert keys key =
  let i = ref 0 in
  while !i < Array.length keys && keys.(!i) < key do
    incr i
  done;
  array_insert keys !i key

let sorted_remove keys key =
  let i = ref 0 in
  while keys.(!i) <> key do
    incr i
  done;
  array_remove keys !i

let mem_sorted keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length keys && keys.(!lo) = key

(* Path from the root to the leaf containing (the slot for) [key]. Returns
   the leaf and the list of (internal, child index) from deepest to root. *)
let descend t key =
  let rec go node path depth =
    match node with
    | Leaf l -> (l, path, depth + 1)
    | Internal n ->
        let i = child_index n key in
        go n.children.(i) ((n, i) :: path) (depth + 1)
  in
  go t.root [] 0

(* Replace child [i] of [parent] (or the root). *)
let replace_child t parent_path node =
  match parent_path with
  | [] -> t.root <- node
  | (p, i) :: _ -> p.children.(i) <- node

(* Insert separator [sep] with new right sibling [right] above child [i] of
   the deepest node on [path]; splits propagate toward the root. Returns
   extra nodes visited. *)
let rec insert_in_parent t th path ~left ~sep ~right =
  match path with
  | [] ->
      (* Root split: new internal root. *)
      coverage.root_splits <- coverage.root_splits + 1;
      let ih = alloc_handle t th in
      t.root <- Internal { ih; ikeys = [| sep |]; children = [| left; right |] };
      1
  | (p, i) :: rest ->
      p.children.(i) <- left;
      p.ikeys <- array_insert p.ikeys i sep;
      p.children <- array_insert p.children (i + 1) right;
      if Array.length p.children <= t.b then 0
      else begin
        (* Split the internal node: promote the middle separator. The left
           half keeps [p]'s identity (in-place), the right half is a fresh
           allocation. *)
        coverage.internal_splits <- coverage.internal_splits + 1;
        let m = Array.length p.ikeys / 2 in
        let promoted = p.ikeys.(m) in
        let right_keys = Array.sub p.ikeys (m + 1) (Array.length p.ikeys - m - 1) in
        let right_children =
          Array.sub p.children (m + 1) (Array.length p.children - m - 1)
        in
        let left_keys = Array.sub p.ikeys 0 m in
        let left_children = Array.sub p.children 0 (m + 1) in
        p.ikeys <- left_keys;
        p.children <- left_children;
        let ih = alloc_handle t th in
        let sibling = Internal { ih; ikeys = right_keys; children = right_children } in
        1 + insert_in_parent t th rest ~left:(Internal p) ~sep:promoted ~right:sibling
      end

let insert t th key =
  let l, path, depth = descend t key in
  let visited = ref depth in
  let present = mem_sorted l.keys key in
  if not present then begin
    t.size <- t.size + 1;
    let keys = sorted_insert l.keys key in
    if Array.length keys <= t.b then begin
      replace_child t path (new_leaf t th keys);
      retire_handle t th l.lh;
      incr visited
    end
    else begin
      (* Leaf split: two fresh leaves replace the old one. *)
      coverage.leaf_splits <- coverage.leaf_splits + 1;
      let m = (Array.length keys + 1) / 2 in
      let lkeys = Array.sub keys 0 m in
      let rkeys = Array.sub keys m (Array.length keys - m) in
      let left = new_leaf t th lkeys and right = new_leaf t th rkeys in
      retire_handle t th l.lh;
      visited := !visited + 2 + insert_in_parent t th path ~left ~sep:rkeys.(0) ~right
    end
  end;
  Ds.Ds_intf.charge t.ctx th !visited;
  { Ds.Ds_intf.changed = not present; visited = !visited }

(* Collapse a single-child internal root. *)
let maybe_collapse_root t th =
  match t.root with
  | Internal n when Array.length n.children = 1 ->
      coverage.root_collapses <- coverage.root_collapses + 1;
      t.root <- n.children.(0);
      retire_handle t th n.ih
  | Internal _ | Leaf _ -> ()

(* If [p] was left with a single child, splice it out: the child takes
   [p]'s place under the grandparent (or the root collapses). *)
let collapse_single_child t th p rest =
  if Array.length p.children = 1 then
    match rest with
    | [] -> maybe_collapse_root t th
    | (gp, gi) :: _ ->
        coverage.splices <- coverage.splices + 1;
        gp.children.(gi) <- p.children.(0);
        retire_handle t th p.ih

(* Rebalance leaf child [i] of [p] after a delete left it with fewer than
   [a] keys: borrow from or merge with an adjacent sibling leaf. [rest] is
   the path above [p]. Returns extra nodes visited. *)
let rebalance_leaf t th p rest i (l : leaf) =
  if Array.length p.children < 2 then 0
  else
  let sibling_index = if i > 0 then i - 1 else i + 1 in
  match p.children.(sibling_index) with
  | Internal _ ->
      (* mixed depth under relaxed balance: leave it *)
      coverage.mixed_depth_skips <- coverage.mixed_depth_skips + 1;
      0
  | Leaf s ->
      let li, ri = if sibling_index < i then (sibling_index, i) else (i, sibling_index) in
      let lkeys = (match p.children.(li) with Leaf x -> x.keys | Internal _ -> assert false) in
      let rkeys = (match p.children.(ri) with Leaf x -> x.keys | Internal _ -> assert false) in
      let combined = Array.append lkeys rkeys in
      if Array.length combined <= t.b then begin
        (* Merging: one fresh leaf replaces both. *)
        coverage.merges <- coverage.merges + 1;
        let merged = new_leaf t th combined in
        p.children.(li) <- merged;
        p.ikeys <- array_remove p.ikeys li;
        p.children <- array_remove p.children ri;
        retire_handle t th l.lh;
        retire_handle t th s.lh;
        collapse_single_child t th p rest;
        2
      end
      else begin
        (* Borrow: split the combined keys evenly into two fresh leaves. *)
        coverage.borrows <- coverage.borrows + 1;
        let m = Array.length combined / 2 in
        let new_l = Array.sub combined 0 m in
        let new_r = Array.sub combined m (Array.length combined - m) in
        p.children.(li) <- new_leaf t th new_l;
        p.children.(ri) <- new_leaf t th new_r;
        p.ikeys.(li) <- new_r.(0);
        retire_handle t th l.lh;
        retire_handle t th s.lh;
        3
      end

let delete t th key =
  let l, path, depth = descend t key in
  let visited = ref depth in
  let changed = mem_sorted l.keys key in
  if changed then begin
    t.size <- t.size - 1;
    let keys = sorted_remove l.keys key in
    match path with
    | [] ->
        (* Root leaf: replace in place, never rebalance. *)
        replace_child t path (new_leaf t th keys);
        retire_handle t th l.lh;
        incr visited
    | (p, i) :: rest ->
        if Array.length keys >= t.a then begin
          replace_child t path (new_leaf t th keys);
          retire_handle t th l.lh;
          incr visited
        end
        else begin
          (* Install the shrunken leaf, then rebalance it. *)
          let shrunk = { lh = alloc_handle t th; keys } in
          p.children.(i) <- Leaf shrunk;
          retire_handle t th l.lh;
          visited := !visited + 1 + rebalance_leaf t th p rest i shrunk
        end
  end;
  Ds.Ds_intf.charge t.ctx th !visited;
  { Ds.Ds_intf.changed; visited = !visited }

let contains t th key =
  let l, _path, depth = descend t key in
  Ds.Ds_intf.charge t.ctx th depth;
  { Ds.Ds_intf.changed = mem_sorted l.keys key; visited = depth }

let check_invariants t =
  let fail fmt = Printf.ksprintf invalid_arg ("Abtree: " ^^ fmt) in
  let count = ref 0 and node_count = ref 0 in
  let rec walk node lo hi is_root =
    incr node_count;
    match node with
    | Leaf l ->
        if Array.length l.keys > t.b then fail "leaf overflow (%d keys)" (Array.length l.keys);
        Array.iteri
          (fun i k ->
            if i > 0 && l.keys.(i - 1) >= k then fail "leaf keys not strictly sorted";
            if k < lo || k >= hi then fail "leaf key %d out of range [%d,%d)" k lo hi)
          l.keys;
        count := !count + Array.length l.keys
    | Internal n ->
        let nc = Array.length n.children in
        if nc <> Array.length n.ikeys + 1 then fail "child/separator count mismatch";
        if nc > t.b then fail "internal overflow";
        if nc < 2 && not is_root then fail "non-root internal with < 2 children";
        Array.iteri
          (fun i k ->
            if i > 0 && n.ikeys.(i - 1) >= k then fail "separators not sorted";
            if k < lo || k >= hi then fail "separator out of range")
          n.ikeys;
        for i = 0 to nc - 1 do
          let clo = if i = 0 then lo else n.ikeys.(i - 1) in
          let chi = if i = nc - 1 then hi else n.ikeys.(i) in
          walk n.children.(i) clo chi false
        done
  in
  walk t.root min_int max_int true;
  if !count <> t.size then fail "size counter %d but %d keys present" t.size !count;
  if !node_count <> t.nodes then fail "node counter %d but %d nodes reachable" t.nodes !node_count

let make ?a ?b ctx th =
  let t = create ?a ?b ctx th in
  {
    Ds.Ds_intf.name = "abtree";
    insert = insert t;
    delete = delete t;
    contains = contains t;
    size = (fun () -> t.size);
    node_count = (fun () -> t.nodes);
    check_invariants = (fun () -> check_invariants t);
    allocs_per_update = 1.1;
  }
