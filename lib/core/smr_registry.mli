(** Reclaimers by name: the ten algorithms of the paper's evaluation
    (hazard pointers as the genuine {!Hazard}), the Token-EBR development
    variants and the leaky/unsafe baselines.

    A single constructor table is the source of truth: {!names}, {!make}
    and the unknown-name error all derive from it, so registering a new
    reclaimer is a one-place change. *)

val names : string list
(** Every registered base name, in registry order. Each also accepts an
    ["_af"] suffix (see {!parse}). *)

val describe : string -> string option
(** One-line description of a registered base name; [None] if unknown. *)

val parse : string -> string * bool
(** [parse name] strips a trailing ["_af"], returning the base algorithm
    and whether amortized freeing was requested. *)

val make :
  ?token_period:int ->
  ?buffer_size:int ->
  ?debra_check_every:int ->
  string ->
  Smr_intf.ctx ->
  Smr_intf.t
(** Instantiate a reclaimer by base name (any member of {!names}). The
    AF/batch choice lives in the context's {!Free_policy.t}; [buffer_size]
    doubles as the ["hazard"] scan threshold.
    @raise Invalid_argument on an unknown name (the message lists the
    valid names). *)
