(* Seeded protocol bugs, for validating that the oracles actually catch
   what they claim to catch (and for the CI self-test: a checker that
   never fails is indistinguishable from a checker that checks nothing).

   Each mutant perturbs one path of the scenario under test: the retire
   path (the generic three), the protect/validate read path and the
   retire list (the HP pair) or the thread-teardown chain (the churn
   pair). The structure and the SMR implementation itself are untouched,
   so a caught mutant demonstrates the oracle, not a broken build. The HP
   pair only bites in par/hp/* and the churn pair in sim/churn/*;
   elsewhere they run the genuine protocol, to the outcome digest. *)

type t =
  | Uaf_free_early
  | Uaf_short_grace
  | Lost_callback
  | Hp_skip_validate
  | Hp_drop_retired
  | Churn_skip_handoff
  | Churn_skip_death_flush

(* The one table: every mutant's CLI name and description (mutant.mli
   documents each bug). [names], [to_name], [of_name] and [describe]
   derive from it. *)
let table =
  [
    (Uaf_free_early, "uaf-free-early", "free retired objects immediately (no grace period)");
    ( Uaf_short_grace,
      "uaf-short-grace",
      "free retired objects after one further operation (too-short grace)" );
    (Lost_callback, "lost-callback", "drop release callbacks (leak)");
    ( Hp_skip_validate,
      "hp-skip-validate",
      "skip the validate after publishing a hazard slot (use-after-free; HP scenarios only)" );
    ( Hp_drop_retired,
      "hp-drop-retired",
      "drop every fifth hazard-pointer retire-list entry (leak; HP scenarios only)" );
    ( Churn_skip_handoff,
      "churn-skip-handoff",
      "skip reclaimer deregistration at thread teardown (ring stall; churn scenarios only)" );
    ( Churn_skip_death_flush,
      "churn-skip-death-flush",
      "drop the dying thread's freeable backlog at teardown (leak; churn scenarios only)" );
  ]

let names = List.map (fun (_, name, _) -> name) table
let entry m = List.find (fun (m', _, _) -> m' = m) table
let to_name m = match entry m with _, name, _ -> name
let describe m = match entry m with _, _, doc -> doc

let of_name name =
  List.find_map (fun (m, name', _) -> if name' = name then Some m else None) table
