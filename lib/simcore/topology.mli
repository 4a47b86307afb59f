(** NUMA machine descriptions and the paper's thread-pinning policy.

    Threads are pinned socket-fill first: each socket is fully populated
    (one thread per core, then the hyperthread siblings) before the next
    socket is used — the methodology of paper §3. *)

type t = {
  name : string;
  sockets : int;
  cores_per_socket : int;
  smt : int;  (** hardware threads per core *)
  ghz : float;  (** nominal frequency *)
}

val logical_per_socket : t -> int
val total_threads : t -> int

val intel_192t : t
(** The paper's main system: 4-socket Intel Xeon Platinum 8160, 24 cores +
    SMT per socket, 192 hardware threads. *)

val intel_144c : t
(** Appendix E.1: 4-socket, 144-core Intel machine. *)

val amd_256c : t
(** Appendix E.2: 2-socket, 256-thread AMD machine. *)

val tiny_8t : t
(** A tiny 4-socket, 8-thread machine: 8 threads span all four sockets,
    so the [ll-churn-failover-n8] suite entry can fail over one socket
    while the others keep running. Not in {!all} — it describes no
    measured system. *)

val by_name : string -> t option
(** Lookup by name or alias ("intel", "intel144", "amd", "tiny"). *)

val all : t list
(** The measured machines only (excludes {!tiny_8t}). *)

val socket_of_thread : t -> int -> int
(** Socket hosting the [i]-th pinned thread. Thread indices beyond the
    machine wrap around (oversubscription). *)

val core_of_thread : t -> int -> int
(** Machine-global physical core of the [i]-th pinned thread. *)

val shares_core : t -> n:int -> int -> bool
(** [shares_core t ~n i] is true when thread [i] shares its physical core
    with another of the [n] pinned threads (SMT slowdown applies). *)

val sockets_used : t -> n:int -> int
(** Number of sockets hosting at least one of [n] threads. *)

val oversubscription : t -> n:int -> float
(** Software threads per logical CPU ([1.0] when [n] fits the machine). *)

val pp : Format.formatter -> t -> unit
