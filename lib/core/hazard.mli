(** Hazard-pointer SMR (Michael), the genuine non-epoch reclaimer in the
    zoo (registry name ["hazard"]).

    Retired objects go to a per-thread retire list tagged with their retire
    time; when the list reaches [scan_threshold] the thread scans every
    published slot and decides {e per object}: entries no in-flight
    operation could still reference are handed to the free policy, the rest
    survive on the list. There is no global epoch, no token and no bag
    rotation — a stalled thread pins only the objects retired after its own
    operation began.

    Protection is modelled at operation granularity, the finest the
    simulator can observe (see [Safety] on why pointer identity is not
    observable): an in-flight operation protects everything retired after
    it began. Freeing therefore satisfies the grace-period rule by
    construction and the validator is attached ([uses_grace_periods =
    true]).

    Observability: scans count in [Metrics.hp_scans] (and [epochs], as
    reclamation passes) with [Hp_scan] trace spans; protect/validate
    retries in [Metrics.hp_protect_retries] with [Hp_protect] instants; the
    retire-list high-water mark in [Metrics.max_retired]. *)

val slots_per_thread : int
(** Published hazard slots per thread; a scan reads [slots_per_thread * n]
    slots. *)

val make : scan_threshold:int -> Smr_intf.ctx -> Smr_intf.t
(** [make ~scan_threshold ctx] is the ["hazard"] reclaimer; a scan runs
    when a thread's retire list reaches [scan_threshold] (the registry
    wires the config's [buffer_size] here). *)
