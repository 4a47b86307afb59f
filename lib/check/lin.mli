(** Linearizability / sequential-consistency oracle for the simulated set
    scenarios: record each operation's invocation/response in virtual time
    plus its linearization index, then replay against a sequential set.
    Flags result mismatches (corrupted structure) and real-time order
    inversions. *)

type op = Insert of int | Delete of int | Contains of int

val op_repr : op -> string

type event = {
  exec : int;  (** linearization index (order the atomic bodies ran in) *)
  tid : int;
  inv : int;  (** invocation, virtual ns *)
  resp : int;  (** response, virtual ns *)
  op : op;
  result : int;  (** observed: 1 iff the operation found or changed the key *)
}

type t

val create : unit -> t

val linearize : t -> int
(** Claim the next linearization index; call at the operation's
    linearization point, inside the atomic body. *)

val record : t -> exec:int -> tid:int -> inv:int -> resp:int -> op:op -> result:int -> unit

val events : t -> event list
(** Sorted by linearization index. *)

val interleaving : t -> string
(** The observed thread order of linearization points (schedule-digest
    ingredient). *)

val check_set : t -> Oracle.violation list
(** Replay against the sequential set, then check real-time order: no
    operation may respond before an earlier-linearized one was invoked. *)
