(** Counterexample traces: compact seed+choices witnesses of a failing
    schedule.

    A schedule is fully determined by the scenario, the workload seed and
    the list of controller decisions (checkpoint index → injected stall),
    so a trace replays bit-identically: the recorded [outcome_digest] must
    equal the digest of the replayed run. *)

type decision = { step : int; delay : int }

type t = {
  scenario : string;
  strategy : string;  (** strategy label the failure was found under *)
  seed : int;  (** workload seed: fixes the threads' op sequences *)
  mutant : Mutant.t option;  (** seeded bug, if this is a self-test trace *)
  decisions : decision list;  (** injected stalls, by global checkpoint index *)
  failure : string;  (** oracle id of the violation being witnessed *)
  outcome_digest : string;  (** digest the replay must reproduce *)
}

val schema_version : int

val decisions_repr : decision list -> string
(** Canonical rendering of the choice sequence (schedule-digest ingredient). *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
(** Rejects, by name, a mutant that {!Mutant.of_name} does not know. *)

val save : string -> t -> unit
val load : string -> (t, string) result
