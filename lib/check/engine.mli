(** The exploration engine: many adversarial schedules per scenario,
    failures turned into replayable traces, greedy trace shrinking. *)

type run_result = { outcome : Oracle.outcome; decisions : Trace.decision list }

val run_one :
  ?tracer:Simcore.Tracer.t ->
  Scenario.t ->
  spec:Strategy.spec ->
  seed:int ->
  mutant:Mutant.t option ->
  run_result

type report = {
  scenario : string;
  strategy : string;
  runs : int;
  distinct : int;  (** distinct schedule digests among the explored runs *)
  failing : int;
  ops : int;  (** operations executed across all runs *)
  failures : Trace.t list;  (** one trace per failing run, seed order *)
}

val explore :
  ?jobs:int ->
  Scenario.t ->
  spec:Strategy.spec ->
  strategy:string ->
  budget:int ->
  seed:int ->
  mutant:Mutant.t option ->
  report
(** Run [budget] schedules with consecutive seeds, fanned out over the
    domain pool; the report is bit-identical to a sequential exploration.
    @raise Invalid_argument naming the budget when it is below 1. *)

val replay : ?tracer:Simcore.Tracer.t -> Scenario.t -> Trace.t -> Oracle.outcome * bool
(** Re-run a trace; [true] iff the outcome digest matches the trace
    (bit-identical reproduction). With [tracer] the replay is recorded
    (same digest contract: tracing never perturbs the outcome). *)

val shrink : ?max_attempts:int -> Scenario.t -> Trace.t -> Trace.t * int
(** Greedy delta-debugging over the decision list, keeping candidates that
    still fail on the same oracle. Returns the shrunk trace (digest
    updated to its own replay) and the number of replays spent. *)
