(* Data structures by name. A constructor needs a thread context because
   the ABtree allocates its initial (empty) leaf. The table is the one
   source of truth: [names], [make] and the unknown-name error derive
   from it. *)

open Simcore

let table : (string * (Ds_intf.ctx -> Sched.thread -> Ds_intf.t)) list =
  [
    ("abtree", fun ctx th -> Abtree.make ctx th);
    ("occtree", fun ctx _ -> Occ_tree.make ctx);
    ("dgt", fun ctx _ -> Dgt_bst.make ctx);
    ("skiplist", fun ctx _ -> Skiplist.make ctx);
    ("list", fun ctx _ -> Ll_set.make ctx);
  ]

let names = List.map fst table

let make name ctx th =
  match List.assoc_opt name table with
  | Some mk -> mk ctx th
  | None ->
      invalid_arg
        (Printf.sprintf "Ds_registry.make: unknown data structure %S (valid names: %s)" name
           (String.concat ", " names))
