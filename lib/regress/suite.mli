(** The curated simbench suite: small, fast trial configurations spanning
    the paper's axes (EBR vs Token-EBR vs amortized-free variants ×
    data structures × thread counts), each cheap enough that the whole
    suite runs in seconds and CI can gate every PR on it.

    The suite of record is the checked-in manifest [regress/suite.json];
    {!builtin} is the same list compiled in, used as the fallback when the
    manifest is absent and as the generator for [simbench manifest]. *)

type entry = { id : string; tier : string; config : Runtime.Config.t }

val builtin : entry list
(** Two tiers, both gated on every PR. ["pr"]: 20 small configurations
    spanning {debra, token, hazard} × batch/amortized free × {list,
    skiplist, occtree} at 1, 8 or 32 simulated threads, four of them with
    thread churn.
    ["paper"]: 36 paper-scale configurations — the ABtree at 192 threads
    on the 4-socket Xeon topology, all six allocator models × {debra,
    token, hazard} × batch/AF. *)

val default_tier : string
(** ["pr"], the tier commands select when none is named. *)

val tier_names : entry list -> string list
(** Distinct tiers present, sorted. *)

val filter_tier : tier:string -> entry list -> entry list
(** Entries of one tier; ["all"] selects everything. *)

val to_manifest : entry list -> Json.t
(** Manifest form: schema version plus one full config object per entry. *)

val of_manifest : Json.t -> (entry list, string) result
(** Accepts an optional ["defaults"] block of config overrides applied
    before each entry's own fields. Duplicate or empty ids are errors. *)

val load : string -> (entry list, string) result
(** Read and parse a manifest file. *)

val save : string -> entry list -> unit

val schema_version : int
