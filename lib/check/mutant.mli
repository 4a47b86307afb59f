(** Seeded protocol bugs for oracle self-tests: each perturbs one path of
    the scenario under test — the retire path, the HP protect/validate
    path and retire list, or the thread-teardown chain — so a caught
    mutant demonstrates the oracle rather than a broken build. A scoped
    mutant runs the genuine protocol outside its scenarios. *)

type t =
  | Uaf_free_early  (** release at retire time: no grace period at all *)
  | Uaf_short_grace  (** release one operation later: too-short grace *)
  | Lost_callback  (** drop the release: a leak, caught by conservation *)
  | Hp_skip_validate
      (** skip the validate after publishing a hazard slot: a
          use-after-free when the object died between read and publish.
          Only effective in par/hp/*. *)
  | Hp_drop_retired
      (** drop every fifth HP retire-list entry: a leak the scan can never
          repair. Only effective in par/hp/*. *)
  | Churn_skip_handoff
      (** thread teardown skips the reclaimer's participant deregistration:
          a retiring token holder takes the token with it and the ring
          stalls. Only effective in sim/churn/*. *)
  | Churn_skip_death_flush
      (** thread teardown drops the dying thread's grace-proven freeable
          backlog instead of flushing it: a leak no ledger counts. Only
          effective in sim/churn/*. *)

val names : string list
(** CLI names, in declaration order. *)

val to_name : t -> string
val of_name : string -> t option
val describe : t -> string
