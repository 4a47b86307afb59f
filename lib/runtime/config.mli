(** Experiment configuration — the paper's methodology (§3) as a record.

    Defaults are scaled down from the paper's testbed (2×10^7 keys, 5 s
    trials) so a full figure regenerates on one core in minutes; the shapes
    of the phenomena, not the absolute numbers, are the target. *)

open Simcore

(** Key-access distribution of the workload. *)
type key_dist = Uniform | Zipf of float  (** skew exponent, e.g. [Zipf 0.99] *)

(** Thread-churn plan: which threads retire during the measured window,
    when, and whether they come back. All times are virtual ns relative to
    the start of the measured window; [down_ns < 0] means never respawn. *)
type churn =
  | Rolling_restart of { first_ns : int; every_ns : int; down_ns : int }
      (** thread [tid] retires at [first_ns + tid * every_ns] *)
  | Resize of { at_ns : int; keep : int; down_ns : int }
      (** threads [keep..n-1] all retire at [at_ns] *)
  | Failover of { at_ns : int; socket : int; down_ns : int }
      (** every thread pinned to [socket] retires at [at_ns] *)

val churn_name : churn -> string
(** ["rolling"], ["resize"] or ["failover"]. *)

type t = {
  ds : string;  (** data structure; see {!Ds.Ds_registry.names} *)
  smr : string;  (** reclaimer; an ["_af"] suffix selects amortized freeing *)
  alloc : string;  (** allocator model; see {!Alloc.Registry.names} *)
  threads : int;
  topology : Topology.t;
  key_range : int;  (** keys drawn from [\[0, key_range)] *)
  key_dist : key_dist;
  insert_pct : float;
  delete_pct : float;  (** remainder of the mix are lookups *)
  warmup_ns : int;  (** settle time after prefill, before measuring *)
  duration_ns : int;  (** measured window *)
  grace_ns : int;  (** how far past the deadline stuck threads may run *)
  seed : int;
  trials : int;
  validate : bool;  (** arm the grace-period safety validator *)
  timeline : bool;  (** record timeline graphs *)
  af_drain : int;  (** objects freed per op under amortized freeing *)
  token_period : int;  (** Periodic Token-EBR check interval (paper: 100) *)
  buffer_size : int;
      (** buffered-reclaimer batch; 384 is the scale-equivalent of the
          paper's 32K at its 100x longer trials *)
  debra_check_every : int;
  alloc_config : Alloc.Alloc_intf.config;
  cost : Cost_model.t;
  churn : churn option;
      (** thread-churn plan; [None] = static population (all pre-churn
          behaviour, labels and manifests unchanged) *)
}

val default : t

val label : t -> string
(** One-line description, e.g. ["abtree/debra/jemalloc n=192"]; a churn
    plan appends [" churn=<name>"]. *)

val churn_spec_usage : string
(** Human-readable grammar of {!churn_of_spec} strings, for CLI help. *)

val churn_of_spec : string -> churn
(** Parse a CLI spec such as ["rolling:2000000:1000000:500000"]
    (see {!churn_spec_usage}).
    @raise Failure on a malformed spec, quoting the grammar. *)

val check : t -> (unit, string) result
(** The one validity check of a config. [ds], [smr] (after
    {!Smr.Smr_registry.parse} strips an ["_af"] suffix) and [alloc] must be
    registered names ({!Ds.Ds_registry.names}, {!Smr.Smr_registry.names},
    {!Alloc.Registry.names}); [threads], [key_range], [duration_ns],
    [trials], [af_drain], [token_period], [buffer_size] and
    [debra_check_every] must be [>= 1]; [insert_pct] and [delete_pct] lie
    in [\[0, 1\]] with a sum of at most 1, a Zipf exponent is [>= 0], and
    [warmup_ns] and [grace_ns] are [>= 0]. The [Error] starts with the
    field's name, then its value, and an unknown name's [Error] lists the
    valid names. Then the churn plan, if any, is checked
    against the run: [first_ns], [every_ns] and [at_ns] must be [>= 0], a
    resize's [keep] must lie in [\[0, threads)] and a failover's [socket]
    in [\[0, sockets)] of the machine; the [Error] names the plan, the
    field and its valid range. *)

val churn_schedule : t -> (int array * int array) option
(** Expand the plan into per-tid [(retire, respawn)] offsets relative to
    the start of the measured window; [max_int] = never. A pure function
    of the config, so every worker derives the same schedule — churn
    determinism rests on this.
    @raise Invalid_argument when {!check} rejects a config with a plan. *)

(** {1 Manifest serialization}

    Used by the simbench regression suite (lib/regress): a config is stored
    as a set of field overrides applied to {!default}. [alloc_config] and
    [cost] are not expressible in manifests and keep the base values. *)

val to_json : t -> Json.t
(** All manifest-expressible fields; the topology appears as its name. *)

val of_json : ?base:t -> Json.t -> (t, string) result
(** Apply the overrides in a JSON object to [base] (default {!default}).
    Unknown fields, unknown machine names, type mismatches and configs
    that {!check} rejects are reported as [Error]. *)
