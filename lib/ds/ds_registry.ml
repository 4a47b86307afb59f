(* Data structures by name. [make] needs a thread context because the
   ABtree allocates its initial (empty) leaf. *)

open Simcore

let names = [ "abtree"; "occtree"; "dgt"; "skiplist"; "list" ]

let make name ctx (th : Sched.thread) =
  match name with
  | "abtree" -> Abtree.make ctx th
  | "occtree" -> Occ_tree.make ctx
  | "dgt" -> Dgt_bst.make ctx
  | "skiplist" -> Skiplist.make ctx
  | "list" -> Ll_set.make ctx
  | _ -> invalid_arg (Printf.sprintf "Ds_registry.make: unknown data structure %S" name)
