(** Real hazard pointers for multicore OCaml (Domains + Atomics).

    Guards {e off-heap} resources addressed by integer handles (Slab block
    indices, descriptors): a reader publishes the handle into one of its
    hazard slots and re-validates before dereferencing; a retired handle is
    released only when a scan finds it in no published slot — per-object,
    non-batched reclamation, the structural opposite of the epoch schemes.

    Mirrors {!Ebr}'s shape (create/register/enter/exit/retire over deferred
    release callbacks, Batch vs Amortized draining) and adds the
    protect/clear slot API. The protect {e loop} — publish, re-read the
    source, retry until stable — belongs to the caller, which reports
    failed validates via {!note_retry}. *)

type mode =
  | Batch  (** release every unprotected entry during the scan itself *)
  | Amortized of int  (** queue unprotected entries; release [k] per {!enter} *)

type t
(** A reclamation domain shared by up to [max_domains] OCaml domains. *)

type handle
(** Per-domain participation handle. Not thread-safe: one per domain. *)

val create : ?mode:mode -> ?scan_threshold:int -> ?slots_per_domain:int -> max_domains:int -> unit -> t
(** [scan_threshold] (default [8]) is the retire-list length that triggers
    a scan; [slots_per_domain] (default [2]) the hazard slots per handle.
    @raise Invalid_argument if either is below [1]. *)

val register : t -> handle
(** Register the calling domain.
    @raise Invalid_argument beyond [max_domains]. *)

val protect : handle -> slot:int -> int -> unit
(** Publish a value in the caller's hazard slot. The caller must
    re-validate its source before dereferencing.
    @raise Invalid_argument on an out-of-range slot. *)

val clear : handle -> slot:int -> unit
(** Empty one hazard slot. *)

val clear_all : handle -> unit

val note_retry : handle -> unit
(** Record one failed protect/validate round (observable via {!retries}). *)

val enter : handle -> unit
(** Begin a protected operation: under [Amortized k], drain up to [k]
    queued releases. *)

val exit : handle -> unit
(** End the protected operation, dropping all of the handle's protections
    ({!clear_all}). *)

val retire : handle -> value:int -> (unit -> unit) -> unit
(** Defer a release callback until a scan finds [value] unprotected. The
    caller must clear its own slot for [value] first. Triggers a scan when
    the retire list reaches the threshold. *)

val scan_now : handle -> unit
(** Force a scan regardless of the threshold — the thread-exit / quiet-phase
    scan, for draining a retire list once retirements have stopped. *)

val is_protected : t -> int -> bool
(** Is the value currently published in any registered slot? This is the
    pointer-protection oracle: an object may be released only when no
    published hazard slot holds it. *)

val protected_values : t -> int list
(** Snapshot of all published (non-empty) slots, in slot order. *)

val pending : handle -> int
(** Entries retired but not yet released (retire list + drain queue). *)

val retired : handle -> int
val released : handle -> int

val scans : handle -> int
(** Scans this handle has performed. *)

val retries : handle -> int
(** Failed protect/validate rounds reported via {!note_retry}. *)

val max_retired : handle -> int
(** High-water mark of the handle's retire list. *)

val flush_unsafe : handle -> unit
(** Release everything immediately; only safe once no other domain can
    touch the retired resources (e.g. after joining all workers). *)
