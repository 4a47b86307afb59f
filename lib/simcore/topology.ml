(* NUMA machine descriptions and the thread pinning policy of the paper.

   The paper pins threads so that each socket is fully populated (first one
   thread per core, then the hyperthread siblings) before the next socket is
   used: on the 4-socket, 24-core/socket Intel system, threads 1-24 land on
   socket 0 without hyperthreading, 25-48 fill the socket 0 hyperthreads, and
   so on for sockets 1-3. *)

type t = {
  name : string;
  sockets : int;
  cores_per_socket : int;
  smt : int;  (* hardware threads per core *)
  ghz : float;  (* nominal frequency, used to convert cycles to ns *)
}

let logical_per_socket t = t.cores_per_socket * t.smt
let total_threads t = t.sockets * logical_per_socket t

(* The paper's main system: four-socket Intel Xeon Platinum 8160. *)
let intel_192t =
  { name = "intel-4s-192t"; sockets = 4; cores_per_socket = 24; smt = 2; ghz = 2.1 }

(* Appendix E.1: Intel four-socket 144-core machine (no hyperthreading in
   the reported thread counts). *)
let intel_144c =
  { name = "intel-4s-144c"; sockets = 4; cores_per_socket = 36; smt = 1; ghz = 2.4 }

(* Appendix E.2: AMD two-socket 256-thread machine. *)
let amd_256c =
  { name = "amd-2s-256t"; sockets = 2; cores_per_socket = 64; smt = 2; ghz = 2.0 }

(* A deliberately tiny 4-socket machine (2 cores/socket, no SMT, 8 logical
   threads). On the real topologies a handful of threads lands entirely on
   socket 0, so a socket failover would retire everyone; here 8 threads
   span four sockets and the [ll-churn-failover-n8] suite entry can lose
   one socket while the others keep running. Not part of [all] — it
   describes no measured system and must never appear in experiment
   sweeps. *)
let tiny_8t = { name = "tiny-4s-8t"; sockets = 4; cores_per_socket = 2; smt = 1; ghz = 2.1 }

let by_name = function
  | "intel-4s-192t" | "intel" -> Some intel_192t
  | "intel-4s-144c" | "intel144" -> Some intel_144c
  | "amd-2s-256t" | "amd" -> Some amd_256c
  | "tiny-4s-8t" | "tiny" -> Some tiny_8t
  | _ -> None

let all = [ intel_192t; intel_144c; amd_256c ]

(* Socket of the i-th pinned thread (0-based) under the socket-fill policy.
   Thread counts beyond the machine wrap around (oversubscription: several
   software threads share a logical CPU, as in the paper's 240-thread runs
   on the 192-thread machine). *)
let socket_of_thread t i =
  if i < 0 then invalid_arg "Topology.socket_of_thread";
  i mod total_threads t / logical_per_socket t

(* Physical core (machine-global id) of the i-th pinned thread. Within a
   socket, cores are populated once each before hyperthread siblings are
   added. *)
let core_of_thread t i =
  let i = i mod total_threads t in
  let s = socket_of_thread t i in
  let j = i mod logical_per_socket t in
  (s * t.cores_per_socket) + (j mod t.cores_per_socket)

(* True when thread [i] shares its physical core with another of the [n]
   pinned threads; such threads run slower due to SMT resource sharing. *)
let shares_core t ~n i =
  if n > total_threads t then t.smt >= 2  (* oversubscribed: everything shares *)
  else if t.smt < 2 then false
  else begin
    let j = i mod logical_per_socket t in
    let sibling =
      if j < t.cores_per_socket then i + t.cores_per_socket
      else i - t.cores_per_socket
    in
    sibling < n && sibling >= 0
    && socket_of_thread t i = socket_of_thread t sibling
  end

(* Number of sockets hosting at least one of [n] threads. *)
let sockets_used t ~n =
  if n <= 0 then 0 else min t.sockets (1 + ((n - 1) / logical_per_socket t))

(* How many software threads share each logical CPU (1.0 when not
   oversubscribed). *)
let oversubscription t ~n =
  if n <= total_threads t then 1.0
  else float_of_int n /. float_of_int (total_threads t)

let pp ppf t =
  Format.fprintf ppf "%s (%d sockets x %d cores x %d SMT @ %.1f GHz)" t.name
    t.sockets t.cores_per_socket t.smt t.ghz
