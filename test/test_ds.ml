open Simcore
(* Data structure semantics: every structure is model-checked against
   Stdlib.Set over random operation sequences, its internal invariants are
   verified, and the leak-freedom equation

     allocator live objects = reachable nodes + retired-but-unfreed

   is asserted throughout. *)

module IntSet = Set.Make (Int)

type op = Insert of int | Delete of int | Contains of int

let op_gen range =
  QCheck.Gen.(
    map2
      (fun k c -> match c with 0 -> Insert k | 1 -> Delete k | _ -> Contains k)
      (int_bound (range - 1)) (int_bound 2))

let ops_arb range = QCheck.make ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
    QCheck.Gen.(list_size (int_bound 400) (op_gen range))

(* Build a structure inside the simulator and apply [ops], checking against
   the model after every operation. *)
let model_check name ops =
  Helpers.in_sim (fun sched th ->
      let retired = ref [] in
      let alloc = Alloc.Registry.make "jemalloc" sched in
      let ctx = { Ds.Ds_intf.alloc; retire = (fun _ h -> retired := h :: !retired); node_cost = 5 } in
      let ds = Ds.Ds_registry.make name ctx th in
      let model = ref IntSet.empty in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Insert k ->
              let r = ds.Ds.Ds_intf.insert th k in
              let expected = not (IntSet.mem k !model) in
              if r.Ds.Ds_intf.changed <> expected then ok := false;
              model := IntSet.add k !model
          | Delete k ->
              let r = ds.Ds.Ds_intf.delete th k in
              if r.Ds.Ds_intf.changed <> IntSet.mem k !model then ok := false;
              model := IntSet.remove k !model
          | Contains k ->
              let r = ds.Ds.Ds_intf.contains th k in
              if r.Ds.Ds_intf.changed <> IntSet.mem k !model then ok := false);
          if ds.Ds.Ds_intf.size () <> IntSet.cardinal !model then ok := false)
        ops;
      ds.Ds.Ds_intf.check_invariants ();
      (* Leak freedom: live allocator objects are exactly the reachable
         nodes plus the retired-but-unfreed ones (nothing was freed here). *)
      let live = Alloc.Obj_table.live_count alloc.Alloc.Alloc_intf.table in
      if live <> ds.Ds.Ds_intf.node_count () + List.length !retired then ok := false;
      (* No handle retired twice. *)
      let sorted = List.sort compare !retired in
      let rec dup = function a :: b :: _ when a = b -> true | _ :: tl -> dup tl | [] -> false in
      if dup sorted then ok := false;
      !ok)

let model_prop name range =
  Helpers.prop ~count:60 (name ^ " matches Set model") (ops_arb range) (model_check name)

(* Deterministic unit tests per structure. *)
let basic name =
  Helpers.quick (name ^ "_basic") (fun () ->
      Helpers.in_sim (fun sched th ->
          let alloc = Alloc.Registry.make "jemalloc" sched in
          let ctx = { Ds.Ds_intf.alloc; retire = (fun _ _ -> ()); node_cost = 5 } in
          let ds = Ds.Ds_registry.make name ctx th in
          Alcotest.(check int) "empty" 0 (ds.Ds.Ds_intf.size ());
          Alcotest.(check bool) "insert fresh" true (ds.Ds.Ds_intf.insert th 5).Ds.Ds_intf.changed;
          Alcotest.(check bool) "insert duplicate" false
            (ds.Ds.Ds_intf.insert th 5).Ds.Ds_intf.changed;
          Alcotest.(check bool) "contains" true (ds.Ds.Ds_intf.contains th 5).Ds.Ds_intf.changed;
          Alcotest.(check bool) "contains absent" false
            (ds.Ds.Ds_intf.contains th 6).Ds.Ds_intf.changed;
          Alcotest.(check bool) "delete present" true
            (ds.Ds.Ds_intf.delete th 5).Ds.Ds_intf.changed;
          Alcotest.(check bool) "delete absent" false
            (ds.Ds.Ds_intf.delete th 5).Ds.Ds_intf.changed;
          Alcotest.(check int) "empty again" 0 (ds.Ds.Ds_intf.size ());
          ds.Ds.Ds_intf.check_invariants ()))

let ascending_descending name =
  Helpers.quick (name ^ "_ascending_descending") (fun () ->
      Helpers.in_sim (fun sched th ->
          let alloc = Alloc.Registry.make "jemalloc" sched in
          let ctx = { Ds.Ds_intf.alloc; retire = (fun _ _ -> ()); node_cost = 5 } in
          let ds = Ds.Ds_registry.make name ctx th in
          let n = 200 in
          for k = 0 to n - 1 do
            ignore (ds.Ds.Ds_intf.insert th k)
          done;
          ds.Ds.Ds_intf.check_invariants ();
          Alcotest.(check int) "all inserted" n (ds.Ds.Ds_intf.size ());
          for k = n - 1 downto 0 do
            Alcotest.(check bool) "present" true (ds.Ds.Ds_intf.contains th k).Ds.Ds_intf.changed;
            ignore (ds.Ds.Ds_intf.delete th k)
          done;
          ds.Ds.Ds_intf.check_invariants ();
          Alcotest.(check int) "all deleted" 0 (ds.Ds.Ds_intf.size ())))

let test_abtree_allocation_profile () =
  (* The paper's key asymmetry: ABtree updates copy 240-byte leaves on every
     successful update; OCCtree inserts allocate at most one 64-byte node
     and deletes allocate nothing. *)
  Helpers.in_sim (fun sched th ->
      let alloc = Alloc.Registry.make "leak" sched in
      let retired = ref 0 in
      let ctx = { Ds.Ds_intf.alloc; retire = (fun _ _ -> incr retired); node_cost = 5 } in
      let ds = Ds.Abtree.make ctx th in
      for k = 0 to 99 do
        ignore (ds.Ds.Ds_intf.insert th k)
      done;
      let allocs_before = th.Sched.metrics.Metrics.allocs in
      let retired_before = !retired in
      ignore (ds.Ds.Ds_intf.insert th 1000);
      let allocs = th.Sched.metrics.Metrics.allocs - allocs_before in
      let rets = !retired - retired_before in
      Alcotest.(check bool) "insert allocates one or two nodes" true
        (allocs >= 1 && allocs <= 3);
      Alcotest.(check bool) "insert retires the copied leaf" true (rets >= 1))

let test_occ_delete_no_alloc () =
  Helpers.in_sim (fun sched th ->
      let alloc = Alloc.Registry.make "leak" sched in
      let ctx = { Ds.Ds_intf.alloc; retire = (fun _ _ -> ()); node_cost = 5 } in
      let ds = Ds.Occ_tree.make ctx in
      for k = 0 to 99 do
        ignore (ds.Ds.Ds_intf.insert th k)
      done;
      let before = th.Sched.metrics.Metrics.allocs in
      for k = 0 to 99 do
        ignore (ds.Ds.Ds_intf.delete th k)
      done;
      Alcotest.(check int) "deletes never allocate" before th.Sched.metrics.Metrics.allocs;
      (* Reviving a routing key must not allocate either. *)
      ignore (ds.Ds.Ds_intf.insert th 50);
      Alcotest.(check bool) "revival allocates at most one" true
        (th.Sched.metrics.Metrics.allocs - before <= 1))

let test_dgt_two_nodes_per_update () =
  Helpers.in_sim (fun sched th ->
      let alloc = Alloc.Registry.make "leak" sched in
      let retired = ref 0 in
      let ctx = { Ds.Ds_intf.alloc; retire = (fun _ _ -> incr retired); node_cost = 5 } in
      let ds = Ds.Dgt_bst.make ctx in
      ignore (ds.Ds.Ds_intf.insert th 10);
      let before = th.Sched.metrics.Metrics.allocs in
      ignore (ds.Ds.Ds_intf.insert th 20);
      Alcotest.(check int) "insert allocates leaf + router" 2
        (th.Sched.metrics.Metrics.allocs - before);
      ignore (ds.Ds.Ds_intf.delete th 20);
      Alcotest.(check int) "delete retires leaf + router" 2 !retired)

let test_abtree_rejects_bad_params () =
  Alcotest.(check bool) "a/b constraint" true
    (try
       ignore
         (Helpers.in_sim (fun sched th ->
              let alloc = Alloc.Registry.make "leak" sched in
              let ctx = { Ds.Ds_intf.alloc; retire = (fun _ _ -> ()); node_cost = 5 } in
              Ds.Abtree.make ~a:8 ~b:9 ctx th));
       false
     with Invalid_argument _ -> true)

(* The in-place ABtree against the copy-on-write reference [Abtree_ref]:
   driven by the same script, the two must make the same allocator calls
   (size and returned handle of every malloc, every retire, in order) and
   return the same [changed] and [visited] on every operation, with equal
   size and node counts and the in-place tree's invariants intact after
   each step. Retired nodes are freed at once, so a handle retired out of
   order also changes which handle a later malloc returns. Scripts grow the
   tree, then mostly shrink it, over a key range scaled to [b] so that
   small trees reach internal splits and root collapses. *)
type alloc_event = Malloc of int * int | Retire of int

let recording_ctx (alloc : Alloc.Alloc_intf.t) log =
  let malloc th size =
    let h = alloc.Alloc.Alloc_intf.malloc th size in
    log := Malloc (size, h) :: !log;
    h
  in
  {
    Ds.Ds_intf.alloc = { alloc with Alloc.Alloc_intf.malloc };
    retire =
      (fun th h ->
        log := Retire h :: !log;
        alloc.Alloc.Alloc_intf.free th h);
    node_cost = 5;
  }

let apply (ds : Ds.Ds_intf.t) th = function
  | Insert k -> ds.Ds.Ds_intf.insert th k
  | Delete k -> ds.Ds.Ds_intf.delete th k
  | Contains k -> ds.Ds.Ds_intf.contains th k

let abtree_matches_reference (a, b) ops =
  Helpers.in_sim (fun sched th ->
      let log = ref [] and ref_log = ref [] in
      let tree = Ds.Abtree.make ~a ~b (recording_ctx (Alloc.Registry.make "jemalloc" sched) log) th in
      let reference =
        Abtree_ref.make ~a ~b (recording_ctx (Alloc.Registry.make "jemalloc" sched) ref_log) th
      in
      let same () =
        let ok =
          !log = !ref_log
          && tree.Ds.Ds_intf.size () = reference.Ds.Ds_intf.size ()
          && tree.Ds.Ds_intf.node_count () = reference.Ds.Ds_intf.node_count ()
        in
        log := [];
        ref_log := [];
        tree.Ds.Ds_intf.check_invariants ();
        ok
      in
      same ()
      && List.for_all
           (fun op ->
             let r = apply tree th op in
             let r' = apply reference th op in
             r = r' && same ())
           ops)

(* [len] operations that mostly insert, then [len] that mostly delete,
   over keys below [range]. *)
let grow_shrink ~range ~len =
  QCheck.Gen.(
    let phase ~insert ~delete =
      list_repeat len
        (map2
           (fun k c -> if c < insert then Insert k else if c < insert + delete then Delete k else Contains k)
           (int_bound (range - 1)) (int_bound 99))
    in
    map2 ( @ ) (phase ~insert:60 ~delete:20) (phase ~insert:15 ~delete:65))

let script_gen =
  QCheck.Gen.(
    oneofl [ (2, 3); (3, 5); (6, 16) ] >>= fun (a, b) ->
    int_range (2 * b) (24 * b) >>= fun range ->
    int_range 20 (40 * b) >>= fun len -> map (fun ops -> ((a, b), ops)) (grow_shrink ~range ~len))

let script_arb =
  QCheck.make script_gen
    ~print:(fun ((a, b), ops) -> Printf.sprintf "(a,b) = (%d,%d), %d ops" a b (List.length ops))
    ~shrink:(fun (ab, ops) -> QCheck.Iter.map (fun ops -> (ab, ops)) (QCheck.Shrink.list ops))

let prop_abtree_matches_reference =
  Helpers.prop ~count:300 "abtree matches copy-on-write reference" script_arb
    (fun (ab, ops) -> abtree_matches_reference ab ops)

(* The scripts must reach every restructuring path of the tree: a fixed
   sample of them, counted by the reference's coverage counters. *)
let test_abtree_reference_coverage () =
  let reached () =
    let c = Abtree_ref.coverage in
    [
      ("a leaf split", c.leaf_splits);
      ("an internal split", c.internal_splits);
      ("a root split", c.root_splits);
      ("a merge", c.merges);
      ("a borrow", c.borrows);
      ("the mixed-depth skip", c.mixed_depth_skips);
      ("a single-child splice", c.splices);
      ("a root collapse", c.root_collapses);
    ]
  in
  let before = reached () in
  let rand = Random.State.make [| 42 |] in
  for _ = 1 to 60 do
    let ab, ops = QCheck.Gen.generate1 ~rand script_gen in
    Alcotest.(check bool) "matches the reference" true (abtree_matches_reference ab ops)
  done;
  List.iter2
    (fun (path, was) (_, now) -> if now = was then Alcotest.failf "no script reached %s" path)
    before (reached ())

(* The arena OCC tree and skiplist against the pointer-based references
   [Occ_tree_ref] and [Skiplist_ref]. Each runs the same script in a
   simulator of its own, on thread 0 at the same seed, so the skiplist's
   tower heights come from the same random stream. After every operation
   the two runs must agree on its result ([changed], [visited]), the
   allocator calls it made (size and returned handle of every malloc,
   every retire, in order), the size and node count, the position of the
   thread's random stream and its virtual clock; the structure's
   invariants, its arena's accounting included, must hold after every
   step. Retired nodes are freed at once, so a handle retired out of order
   also changes which handle a later malloc returns. *)
type step = {
  result : Ds.Ds_intf.op_result;
  calls : alloc_event list;
  size : int;
  nodes : int;
  stream : int64;  (* the thread's next draw *)
  clock : int;
}

let run_script ?(check_every = 1) make ops =
  Helpers.in_sim (fun sched th ->
      let log = ref [] in
      let ds : Ds.Ds_intf.t = make (recording_ctx (Alloc.Registry.make "jemalloc" sched) log) in
      List.mapi
        (fun i op ->
          let result = apply ds th op in
          if i mod check_every = 0 then ds.Ds.Ds_intf.check_invariants ();
          let calls = List.rev !log in
          log := [];
          {
            result; calls; size = ds.Ds.Ds_intf.size (); nodes = ds.Ds.Ds_intf.node_count ();
            stream = Rng.next_int64 (Rng.copy th.Sched.rng); clock = Sched.now th;
          })
        ops)

let matches_reference ?check_every make make_ref ops =
  run_script ?check_every make ops = run_script ?check_every make_ref ops

(* The shrinking half reaches routing nodes and cascaded unlinks in the
   tree and reuses freed slots of every height in the skiplist. *)
let grow_shrink_arb =
  QCheck.make
    QCheck.Gen.(int_range 8 256 >>= fun range -> int_range 20 400 >>= fun len -> grow_shrink ~range ~len)
    ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
    ~shrink:QCheck.Shrink.list

let prop_occtree_matches_reference =
  Helpers.prop ~count:200 "occtree matches pointer reference" grow_shrink_arb
    (matches_reference Ds.Occ_tree.make Occ_tree_ref.make)

let prop_skiplist_matches_reference =
  Helpers.prop ~count:200 "skiplist matches pointer reference" grow_shrink_arb
    (matches_reference Ds.Skiplist.make Skiplist_ref.make)

(* Past the arenas' initial 16,384 words: 5,000 distinct keys in a
   scrambled order, then every one deleted. The invariants, a walk of the
   whole structure, are checked every 500 steps. *)
let test_arena_growth () =
  let keys = List.init 5_000 (fun i -> i * 7_919 mod 5_000) in
  let ops = List.map (fun k -> Insert k) keys @ List.map (fun k -> Delete k) (List.rev keys) in
  Alcotest.(check bool) "occtree matches the reference" true
    (matches_reference ~check_every:500 Ds.Occ_tree.make Occ_tree_ref.make ops);
  Alcotest.(check bool) "skiplist matches the reference" true
    (matches_reference ~check_every:500 Ds.Skiplist.make Skiplist_ref.make ops)

let test_visited_counts () =
  Helpers.in_sim (fun sched th ->
      let alloc = Alloc.Registry.make "leak" sched in
      let ctx = { Ds.Ds_intf.alloc; retire = (fun _ _ -> ()); node_cost = 5 } in
      let ds = Ds.Ds_registry.make "list" ctx th in
      for k = 1 to 10 do
        ignore (ds.Ds.Ds_intf.insert th k)
      done;
      let r = ds.Ds.Ds_intf.contains th 10 in
      Alcotest.(check bool) "deep key visits more nodes" true (r.Ds.Ds_intf.visited >= 10);
      let r1 = ds.Ds.Ds_intf.contains th 1 in
      Alcotest.(check bool) "shallow key visits fewer" true
        (r1.Ds.Ds_intf.visited < r.Ds.Ds_intf.visited))

(* As for the allocators: the unknown-name error names the culprit and
   lists every valid name. *)
let test_registry_unknown () =
  let unknown =
    Helpers.in_sim (fun sched th ->
        let alloc = Alloc.Registry.make "leak" sched in
        let ctx = { Ds.Ds_intf.alloc; retire = (fun _ _ -> ()); node_cost = 1 } in
        match Ds.Ds_registry.make "bogus" ctx th with
        | _ -> None
        | exception Invalid_argument msg -> Some msg)
  in
  match unknown with
  | None -> Alcotest.fail "unknown data structure accepted"
  | Some msg ->
      List.iter
        (fun name -> Alcotest.(check bool) ("error lists " ^ name) true (Helpers.contains msg name))
        ("bogus" :: Ds.Ds_registry.names)

let suite =
  ( "ds",
    [
      basic "abtree";
      basic "occtree";
      basic "dgt";
      basic "skiplist";
      basic "list";
      ascending_descending "abtree";
      ascending_descending "occtree";
      ascending_descending "dgt";
      ascending_descending "skiplist";
      ascending_descending "list";
      model_prop "abtree" 64;
      model_prop "occtree" 64;
      model_prop "dgt" 64;
      model_prop "skiplist" 64;
      model_prop "list" 32;
      Helpers.quick "abtree_allocation_profile" test_abtree_allocation_profile;
      Helpers.quick "occ_delete_no_alloc" test_occ_delete_no_alloc;
      Helpers.quick "dgt_two_nodes_per_update" test_dgt_two_nodes_per_update;
      Helpers.quick "abtree_rejects_bad_params" test_abtree_rejects_bad_params;
      Helpers.quick "visited_counts" test_visited_counts;
      prop_abtree_matches_reference;
      Helpers.quick "abtree_reference_coverage" test_abtree_reference_coverage;
      prop_occtree_matches_reference;
      prop_skiplist_matches_reference;
      Helpers.quick "arena_growth" test_arena_growth;
      Helpers.quick "registry_unknown" test_registry_unknown;
    ] )
