open Simcore

let t = Topology.intel_192t

let test_totals () =
  Alcotest.(check int) "logical per socket" 48 (Topology.logical_per_socket t);
  Alcotest.(check int) "total threads" 192 (Topology.total_threads t)

let test_socket_fill () =
  (* Paper pinning: threads 0-47 on socket 0, 48-95 on socket 1, ... *)
  Alcotest.(check int) "thread 0" 0 (Topology.socket_of_thread t 0);
  Alcotest.(check int) "thread 47" 0 (Topology.socket_of_thread t 47);
  Alcotest.(check int) "thread 48" 1 (Topology.socket_of_thread t 48);
  Alcotest.(check int) "thread 191" 3 (Topology.socket_of_thread t 191);
  (* Oversubscription wraps around. *)
  Alcotest.(check int) "thread 192 wraps to socket 0" 0 (Topology.socket_of_thread t 192);
  Alcotest.(check (float 0.001)) "oversubscription factor" 1.25
    (Topology.oversubscription t ~n:240)

let test_hyperthread_siblings () =
  (* Threads i and i+24 within a socket share a physical core. *)
  Alcotest.(check int) "core of thread 0" 0 (Topology.core_of_thread t 0);
  Alcotest.(check int) "core of thread 24" 0 (Topology.core_of_thread t 24);
  Alcotest.(check int) "core of thread 1" 1 (Topology.core_of_thread t 1);
  Alcotest.(check int) "core of thread 48 (socket 1)" 24 (Topology.core_of_thread t 48)

let test_shares_core () =
  (* With 24 threads, nobody shares; with 48, everybody does. *)
  for i = 0 to 23 do
    Alcotest.(check bool) "24 threads: no SMT" false (Topology.shares_core t ~n:24 i)
  done;
  for i = 0 to 47 do
    Alcotest.(check bool) "48 threads: all SMT" true (Topology.shares_core t ~n:48 i)
  done;
  (* 36 threads: 0-11 share with 24-35; 12-23 run alone. *)
  Alcotest.(check bool) "thread 0 shares at 36" true (Topology.shares_core t ~n:36 0);
  Alcotest.(check bool) "thread 12 alone at 36" false (Topology.shares_core t ~n:36 12)

let test_sockets_used () =
  Alcotest.(check int) "0 threads" 0 (Topology.sockets_used t ~n:0);
  Alcotest.(check int) "1 thread" 1 (Topology.sockets_used t ~n:1);
  Alcotest.(check int) "48 threads" 1 (Topology.sockets_used t ~n:48);
  Alcotest.(check int) "49 threads" 2 (Topology.sockets_used t ~n:49);
  Alcotest.(check int) "192 threads" 4 (Topology.sockets_used t ~n:192)

let test_no_smt_machine () =
  let m = Topology.intel_144c in
  Alcotest.(check int) "144 threads total" 144 (Topology.total_threads m);
  for i = 0 to 143 do
    if Topology.shares_core m ~n:144 i then
      Alcotest.failf "thread %d shares a core on an SMT-1 machine" i
  done

let test_socket_wraparound () =
  (* Oversubscription pins thread 192+k to the same CPU as thread k, on
     every machine model: the socket mapping — which remote lock wakes and
     socket failover key off — must be periodic in the machine size. *)
  List.iter
    (fun m ->
      let total = Topology.total_threads m in
      for k = 0 to total - 1 do
        let expect = Topology.socket_of_thread m k in
        List.iter
          (fun wrap ->
            if Topology.socket_of_thread m ((wrap * total) + k) <> expect then
              Alcotest.failf "%s: thread %d not on socket %d" m.Topology.name
                ((wrap * total) + k) expect)
          [ 1; 2; 5 ]
      done;
      (* The wrapped socket never names a socket the machine doesn't have. *)
      for i = 0 to (3 * total) - 1 do
        let s = Topology.socket_of_thread m i in
        if s < 0 || s >= m.Topology.sockets then
          Alcotest.failf "%s: thread %d on out-of-range socket %d" m.Topology.name i s
      done)
    Topology.all;
  Alcotest.check_raises "negative tid" (Invalid_argument "Topology.socket_of_thread")
    (fun () -> ignore (Topology.socket_of_thread t (-1)))

let test_shares_core_oversubscribed () =
  (* Beyond the machine size every logical CPU is multiplexed, so core
     sharing collapses to "does the machine have SMT at all". *)
  let oversub = Topology.total_threads t + 48 in
  for i = 0 to oversub - 1 do
    if not (Topology.shares_core t ~n:oversub i) then
      Alcotest.failf "thread %d must share when the SMT-2 machine is oversubscribed" i
  done;
  (* SMT-1 machine: nobody shares a core, however many threads pile on. *)
  let m = Topology.intel_144c in
  let n = Topology.total_threads m + 100 in
  for i = 0 to n - 1 do
    if Topology.shares_core m ~n i then
      Alcotest.failf "thread %d shares on an SMT-1 machine under oversubscription" i
  done;
  (* Exactly at the machine size the precise sibling rule still applies:
     192 threads on the Intel box all share, as in test_shares_core. *)
  Alcotest.(check bool) "boundary n=192 uses the sibling rule" true
    (Topology.shares_core t ~n:(Topology.total_threads t) 0)

let test_by_name () =
  Alcotest.(check bool) "intel alias" true (Topology.by_name "intel" = Some Topology.intel_192t);
  Alcotest.(check bool) "amd alias" true (Topology.by_name "amd" = Some Topology.amd_256c);
  Alcotest.(check bool) "unknown" true (Topology.by_name "riscv" = None)

let suite =
  ( "topology",
    [
      Helpers.quick "totals" test_totals;
      Helpers.quick "socket_fill" test_socket_fill;
      Helpers.quick "hyperthread_siblings" test_hyperthread_siblings;
      Helpers.quick "shares_core" test_shares_core;
      Helpers.quick "sockets_used" test_sockets_used;
      Helpers.quick "no_smt_machine" test_no_smt_machine;
      Helpers.quick "socket_wraparound" test_socket_wraparound;
      Helpers.quick "shares_core_oversubscribed" test_shares_core_oversubscribed;
      Helpers.quick "by_name" test_by_name;
    ] )
