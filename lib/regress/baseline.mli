(** Golden baseline records: the schema-versioned JSON summary of one suite
    entry's trial, checked in under [regress/baselines/<id>.json] and
    compared by {!Gate} on every run.

    A record carries the seed and the digest of the full serialized
    {!Runtime.Trial.t}, which {!Gate.exact} compares, and a fixed ordered
    list of summary metrics: the readable diff on a digest mismatch, and
    the [violations] count the gate requires to be zero. *)

type result = {
  id : string;
  seed : int;
  digest : string;  (** {!Runtime.Trial.digest} of the trial *)
  metrics : (string * Json.t) list;  (** ordered summary, numeric values *)
}

val schema_version : int

val of_trial : id:string -> Runtime.Trial.t -> result
(** Summarize a trial. The metric list includes throughput, garbage
    statistics, reclamation counters, memory peaks, perf-style shares,
    op-latency percentiles p50/p99/p99.9 and grace-period violations. *)

val metric : result -> string -> float option
(** Numeric lookup into [metrics]. *)

(** {1 Files} *)

val to_json : result -> Json.t
val of_json : Json.t -> (result, string) Stdlib.result

val path : dir:string -> string -> string
(** [path ~dir id] is [dir/<id>.json]. *)

val save : dir:string -> result -> unit
(** Write [dir/<id>.json], creating [dir] if needed. *)

val load : dir:string -> string -> (result, string) Stdlib.result
(** Read and validate [dir/<id>.json]; missing files, malformed JSON and
    schema mismatches are all reported as [Error] with the path. *)
