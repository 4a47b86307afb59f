(** The buffered reclaimer family: HE, WFE, IBR, RCU, NBR, NBR+ and
    Hyaline, as cost models (hazard pointers are {!Hazard}).

    All accumulate retired objects into a per-thread buffer and, when it
    reaches [buffer_size], run a {e reclamation pass} whose cost is
    algorithm-specific (scanning every thread's hazard/era slots, or
    sending signals for NBR). Two generations make the grace period
    explicit: a pass frees the previous buffer. What distinguishes the
    algorithms is what distinguishes them in the paper: per-operation
    synchronization cost, per-node protection cost, pass cost — and the
    batch-free behaviour that amortized freeing repairs. *)

open Smr_intf

type spec = {
  name : string;
  buffer_size : int;
  per_node_ns : int;  (** per traversed node, contention-scaled *)
  op_cost_contended : int;  (** per-op announcement, contention-scaled *)
  op_cost_plain : int;  (** per-op cost, unscaled *)
  slots_per_pass : n:int -> int;  (** announcement slots read per pass *)
  signals_per_pass : n:int -> int;  (** signals delivered per pass *)
  uses_grace_periods : bool;
}

val make : spec -> ctx -> t

val he : buffer_size:int -> ctx -> t
(** Hazard eras (Ramalhete & Correia). *)

val wfe : buffer_size:int -> ctx -> t
(** Wait-free eras (Nikolaev & Ravindran): era costs plus helping. *)

val ibr : buffer_size:int -> ctx -> t
(** Interval based reclamation (2GE-IBR, Wen et al.). *)

val rcu : buffer_size:int -> ctx -> t
(** RCU in the style of Hart et al.: reader announcements per operation,
    reader-state scan per pass. *)

val nbr : buffer_size:int -> ctx -> t
(** Neutralization based reclamation (Singh et al.): signals per pass. *)

val nbr_plus : buffer_size:int -> ctx -> t
(** NBR+: published reservations avoid most signals. *)

val hyaline : buffer_size:int -> ctx -> t
(** Hyaline (Nikolaev & Ravindran): reference-counted batch handoff. *)
