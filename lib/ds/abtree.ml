(* Brown's relaxed (a,b)-tree (the paper's "ABtree"), leaf-oriented with
   copy-on-write leaves.

   All keys live in leaves; internal nodes route. In the model an update
   copies the affected leaf, so every successful insert or delete allocates
   one or two 240-byte nodes and retires the replaced ones — the allocation
   profile that makes the ABtree the paper's RBF victim. Internal nodes are
   mutated in place and allocated on splits, like the relaxed balancing of
   the original structure.

   The host does not copy. A leaf keeps a fixed array of [b + 1] key slots
   and a length and is updated in place; what the copy changes is its
   allocator handle: [malloc] for the new node, then [retire] of the old
   handle, in the order the copy makes them. A descent allocates nothing:
   it records the child index taken at each level in the tree's [path], and
   only the rare restructuring paths (split, merge, borrow, collapse)
   re-walk it from the root to reach the parents. Every caller runs an
   operation inside an atomic section, so one [path] per tree suffices.

   Balance is relaxed exactly as in Brown's tree: leaves hold at most [b]
   keys and are merged/borrowed when they fall below [a]; internal nodes
   split at [b] children and the root collapses when it has one child. *)


let node_bytes = 240

type node =
  | Leaf of { mutable lh : int; keys : int array; mutable len : int }
      (* [keys.(0 .. len-1)] sorted; one slot more than [b] so that an
         insert into a full leaf fits before the leaf splits *)
  | Internal of {
      ih : int;
      mutable ikeys : int array;  (* separators, sorted *)
      mutable children : node array;  (* length = Array.length ikeys + 1 *)
    }

type t = {
  ctx : Ds_intf.ctx;
  a : int;
  b : int;
  mutable root : node;
  mutable size : int;  (* number of keys *)
  mutable nodes : int;  (* allocator objects reachable from [root] *)
  mutable path : int array;  (* child index taken at each level by the last descent *)
  mutable depth : int;  (* nodes on the last descent, leaf included *)
}

let alloc_handle t th =
  t.nodes <- t.nodes + 1;
  t.ctx.Ds_intf.alloc.Alloc.Alloc_intf.malloc th node_bytes

let retire_handle t th h =
  t.nodes <- t.nodes - 1;
  t.ctx.Ds_intf.retire th h

let create ?(a = 6) ?(b = 16) ctx th =
  if a < 2 || b < (2 * a) - 1 then invalid_arg "Abtree.create: need a >= 2 and b >= 2a-1";
  let t =
    { ctx; a; b; root = Leaf { lh = 0; keys = [||]; len = 0 }; size = 0; nodes = 0;
      path = Array.make 8 0; depth = 0 }
  in
  t.root <- Leaf { lh = alloc_handle t th; keys = Array.make (b + 1) 0; len = 0 };
  t

(* Index of the child to follow: number of separators <= key. The count
   runs over every separator instead of stopping at the first larger one,
   so it has no data-dependent branch to mispredict. *)
let child_index (ikeys : int array) key =
  let c = ref 0 in
  for j = 0 to Array.length ikeys - 1 do
    c := !c + Bool.to_int (Array.unsafe_get ikeys j <= key)
  done;
  !c

(* First index of [keys.(0 .. len-1)] holding a key >= [key], or [len]:
   the number of keys below [key], counted the same branch-free way. *)
let lower_bound (keys : int array) len key =
  let c = ref 0 in
  for j = 0 to len - 1 do
    c := !c + Bool.to_int (keys.(j) < key)
  done;
  !c

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

(* Follow [key] from [node], the level-[d] node of the path, down to its
   leaf: record each child index in [t.path] and the number of nodes
   visited in [t.depth], and return the leaf. *)
let rec descend t node key d =
  match node with
  | Leaf _ ->
      t.depth <- d + 1;
      node
  | Internal { ikeys; children; _ } ->
      let i = child_index ikeys key in
      if d = Array.length t.path then begin
        let path = Array.make (2 * d) 0 in
        Array.blit t.path 0 path 0 d;
        t.path <- path
      end;
      t.path.(d) <- i;
      descend t children.(i) key (d + 1)

(* The internal nodes of the last descent, each with the child index taken
   there, deepest first. Valid until the first structural change. *)
let parents t =
  let rec go node d acc =
    match node with
    | Leaf _ -> acc
    | Internal { children; _ } ->
        let i = t.path.(d) in
        go children.(i) (d + 1) ((node, i) :: acc)
  in
  go t.root 0 []

(* Insert separator [sep] with new right sibling [right] above child [i] of
   the deepest node on [path]; splits propagate toward the root. Returns
   extra nodes visited. *)
let rec insert_in_parent t th path ~left ~sep ~right =
  match path with
  | [] ->
      (* Root split: new internal root. *)
      let ih = alloc_handle t th in
      t.root <- Internal { ih; ikeys = [| sep |]; children = [| left; right |] };
      1
  | (Leaf _, _) :: _ -> assert false
  | ((Internal p as pnode), i) :: rest ->
      p.children.(i) <- left;
      p.ikeys <- array_insert p.ikeys i sep;
      p.children <- array_insert p.children (i + 1) right;
      if Array.length p.children <= t.b then 0
      else begin
        (* Split the internal node: promote the middle separator. The left
           half keeps [p]'s identity (in-place), the right half is a fresh
           allocation. *)
        let m = Array.length p.ikeys / 2 in
        let promoted = p.ikeys.(m) in
        let right_keys = Array.sub p.ikeys (m + 1) (Array.length p.ikeys - m - 1) in
        let right_children =
          Array.sub p.children (m + 1) (Array.length p.children - m - 1)
        in
        p.ikeys <- Array.sub p.ikeys 0 m;
        p.children <- Array.sub p.children 0 (m + 1);
        let ih = alloc_handle t th in
        let sibling = Internal { ih; ikeys = right_keys; children = right_children } in
        1 + insert_in_parent t th rest ~left:pnode ~sep:promoted ~right:sibling
      end

let insert t th key =
  match descend t t.root key 0 with
  | Internal _ -> assert false
  | Leaf l as leaf ->
      let visited = ref t.depth in
      let keys = l.keys and len = l.len in
      let pos = lower_bound keys len key in
      let present = pos < len && keys.(pos) = key in
      if not present then begin
        t.size <- t.size + 1;
        for j = len downto pos + 1 do
          keys.(j) <- keys.(j - 1)
        done;
        keys.(pos) <- key;
        let old = l.lh in
        if len < t.b then begin
          l.len <- len + 1;
          l.lh <- alloc_handle t th;
          retire_handle t th old;
          incr visited
        end
        else begin
          (* Leaf split: the left half stays in this node and the right half
             moves to a new one; both are fresh allocations in the model. *)
          let path = parents t in
          let n = len + 1 in
          let m = (n + 1) / 2 in
          l.len <- m;
          l.lh <- alloc_handle t th;
          let rkeys = Array.make (t.b + 1) 0 in
          for j = m to n - 1 do
            rkeys.(j - m) <- keys.(j)
          done;
          let right = Leaf { lh = alloc_handle t th; keys = rkeys; len = n - m } in
          retire_handle t th old;
          visited := !visited + 2 + insert_in_parent t th path ~left:leaf ~sep:rkeys.(0) ~right
        end
      end;
      Ds_intf.charge t.ctx th !visited;
      { Ds_intf.changed = not present; visited = !visited }

(* Collapse a single-child internal root. *)
let maybe_collapse_root t th =
  match t.root with
  | Internal n when Array.length n.children = 1 ->
      t.root <- n.children.(0);
      retire_handle t th n.ih
  | Internal _ | Leaf _ -> ()

(* If [p] was left with a single child, splice it out: the child takes
   [p]'s place under the grandparent (or the root collapses). *)
let collapse_single_child t th p rest =
  match p with
  | Internal n when Array.length n.children = 1 -> (
      match rest with
      | [] -> maybe_collapse_root t th
      | (Internal gp, gi) :: _ ->
          gp.children.(gi) <- n.children.(0);
          retire_handle t th n.ih
      | (Leaf _, _) :: _ -> assert false)
  | Internal _ | Leaf _ -> ()

(* Rebalance the leaf at the end of [path] after a delete left it with
   fewer than [a] keys: borrow from or merge with an adjacent sibling leaf.
   In the model both leaves are replaced by fresh copies; here the left one
   absorbs a merge and a borrow moves keys between the two arrays. Returns
   extra nodes visited. *)
let rebalance_leaf t th path =
  match path with
  | [] | (Leaf _, _) :: _ -> assert false
  | ((Internal p as pnode), i) :: rest -> (
      if Array.length p.children < 2 then 0
      else
        let sibling_index = if i > 0 then i - 1 else i + 1 in
        match p.children.(sibling_index) with
        | Internal _ -> 0  (* mixed depth under relaxed balance: leave it *)
        | Leaf _ -> (
            let li = if sibling_index < i then sibling_index else i in
            let ri = li + 1 in
            match (p.children.(li), p.children.(ri)) with
            | Leaf l, Leaf r ->
                let shrunk_h, sibling_h = if li = i then (l.lh, r.lh) else (r.lh, l.lh) in
                let ll = l.len and rl = r.len in
                let combined = ll + rl in
                if combined <= t.b then begin
                  (* Merging: one fresh leaf replaces both. *)
                  for j = 0 to rl - 1 do
                    l.keys.(ll + j) <- r.keys.(j)
                  done;
                  l.len <- combined;
                  l.lh <- alloc_handle t th;
                  p.ikeys <- array_remove p.ikeys li;
                  p.children <- array_remove p.children ri;
                  retire_handle t th shrunk_h;
                  retire_handle t th sibling_h;
                  collapse_single_child t th pnode rest;
                  2
                end
                else begin
                  (* Borrow: split the combined keys evenly into two fresh
                     leaves, the left one taking the first [m]. *)
                  let m = combined / 2 in
                  if ll > m then begin
                    let k = ll - m in
                    for j = rl - 1 downto 0 do
                      r.keys.(j + k) <- r.keys.(j)
                    done;
                    for j = 0 to k - 1 do
                      r.keys.(j) <- l.keys.(m + j)
                    done
                  end
                  else begin
                    let k = m - ll in
                    for j = 0 to k - 1 do
                      l.keys.(ll + j) <- r.keys.(j)
                    done;
                    for j = 0 to rl - k - 1 do
                      r.keys.(j) <- r.keys.(j + k)
                    done
                  end;
                  l.len <- m;
                  r.len <- combined - m;
                  l.lh <- alloc_handle t th;
                  r.lh <- alloc_handle t th;
                  p.ikeys.(li) <- r.keys.(0);
                  retire_handle t th shrunk_h;
                  retire_handle t th sibling_h;
                  3
                end
            | _ -> assert false))

let delete t th key =
  match descend t t.root key 0 with
  | Internal _ -> assert false
  | Leaf l ->
      let visited = ref t.depth in
      let keys = l.keys and len = l.len in
      let pos = lower_bound keys len key in
      let changed = pos < len && keys.(pos) = key in
      if changed then begin
        t.size <- t.size - 1;
        for j = pos to len - 2 do
          keys.(j) <- keys.(j + 1)
        done;
        l.len <- len - 1;
        let old = l.lh in
        l.lh <- alloc_handle t th;
        retire_handle t th old;
        incr visited;
        (* A root leaf never rebalances. *)
        if t.depth > 1 && len - 1 < t.a then
          visited := !visited + rebalance_leaf t th (parents t)
      end;
      Ds_intf.charge t.ctx th !visited;
      { Ds_intf.changed; visited = !visited }

let contains t th key =
  match descend t t.root key 0 with
  | Internal _ -> assert false
  | Leaf { keys; len; _ } ->
      let depth = t.depth in
      Ds_intf.charge t.ctx th depth;
      let pos = lower_bound keys len key in
      { Ds_intf.changed = pos < len && keys.(pos) = key; visited = depth }

let check_invariants t =
  let fail fmt = Printf.ksprintf invalid_arg ("Abtree: " ^^ fmt) in
  let count = ref 0 and node_count = ref 0 in
  let rec walk node lo hi is_root =
    incr node_count;
    match node with
    | Leaf l ->
        if l.len > t.b then fail "leaf overflow (%d keys)" l.len;
        if Array.length l.keys <> t.b + 1 then fail "leaf with %d key slots" (Array.length l.keys);
        for i = 0 to l.len - 1 do
          let k = l.keys.(i) in
          if i > 0 && l.keys.(i - 1) >= k then fail "leaf keys not strictly sorted";
          if k < lo || k >= hi then fail "leaf key %d out of range [%d,%d)" k lo hi
        done;
        count := !count + l.len
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
    Ds_intf.name = "abtree";
    insert = (fun th key -> insert t th key);
    delete = (fun th key -> delete t th key);
    contains = (fun th key -> contains t th key);
    size = (fun () -> t.size);
    node_count = (fun () -> t.nodes);
    check_invariants = (fun () -> check_invariants t);
    allocs_per_update = 1.1;
  }
