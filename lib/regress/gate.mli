(** Gate logic: compare a freshly measured {!Baseline.result} against the
    checked-in golden one and produce findings that render as a readable
    per-metric diff.

    {!exact} is the one gate of [simbench check]. It enforces the
    simulator's determinism contract, and the safety property reclamation
    exists to provide: the run's seed must equal the baseline's, the digest
    of the full serialized trial must match bit-for-bit (on a mismatch,
    every summary metric that moved is reported), and the run must record
    zero grace-period violations whatever the baseline holds. *)

type finding = {
  id : string;  (** suite entry *)
  metric : string;
  ok : bool;
  detail : string;  (** human-readable expected/actual *)
}

val exact : expected:Baseline.result -> got:Baseline.result -> finding list
(** One [digest] finding, or a failed [seed] finding, followed by one
    failed finding per moved metric on a digest mismatch, and a failed
    [violations] finding when the run's [violations] metric is non-zero or
    missing. *)

val error : id:string -> string -> finding
(** A finding for a failure that precedes comparison (missing or corrupt
    baseline file, unknown suite entry, ...). *)

val all_ok : finding list -> bool

val render : finding list -> string
(** One line per finding, failures marked [FAIL]. *)
