(** Schedule-exploration strategies: seeded schedule controllers that
    record their decisions so any schedule can be re-emitted as a
    {!Trace.t} and replayed bit-identically. *)

open Simcore

type spec =
  | Random_walk of { p : float; max_delay : int }
      (** independent jitter at each checkpoint: broad neighbourhood search *)
  | Preempt_bound of { budget : int; p : float; delay : int }
      (** at most [budget] forced timeslice-scale preemptions per run *)
  | Delay_inject of { victims : int; period : int; delay : int }
      (** stall [victims] chosen threads periodically for a long time — the
          paper's stalled-reader pathology *)
  | Replay of Trace.decision list
      (** replay an explicit decision list (trace replay / shrinking) *)

type recorder = {
  controller : Sched.thread -> int;  (** install via {!Sched.set_controller} *)
  decisions : unit -> Trace.decision list;  (** recorded so far, in step order *)
  steps : unit -> int;  (** controller consultations so far *)
  injected_ns : unit -> int;  (** total stall injected so far *)
}

val defaults : (string * spec) list
(** The named strategies of the CLI and the CI smoke job. *)

val names : string list
val of_name : string -> spec option

val make : spec -> seed:int -> recorder
(** Fresh seeded recorder. Deterministic: the same [spec], [seed] and
    consultation sequence produce the same decisions. *)
