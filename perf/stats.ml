(* Host-time sampling and order statistics. *)

let now () = Unix.gettimeofday ()

(* Wall ms of [f ()], with its result. *)
let timed f =
  let t0 = now () in
  let r = f () in
  ((now () -. t0) *. 1e3, r)

(* Correctness over a run: units of work attempted, and those whose outputs
   were wrong. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let note t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

(* Quantile [p] (in [0, 1]) by the "exclusive" method of Python's
   [statistics.quantiles], so spreads computed here agree with those an
   external script computes from the printed values. *)
let quantile ~p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples"
  else if n = 1 then a.(0)
  else begin
    let pos = p *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (int_of_float (Float.floor pos))) in
    let frac = pos -. float_of_int j in
    a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. frac)
  end

let median xs = quantile ~p:0.5 xs

(* A tail percentile is only reported with at least ten samples beyond it:
   p75 therefore needs 40. *)
let min_p75_samples = 40

let p75 xs =
  let n = List.length xs in
  if n < min_p75_samples then
    invalid_arg
      (Printf.sprintf "Stats.p75: %d samples, need at least %d (ten beyond the percentile)" n
         min_p75_samples);
  quantile ~p:0.75 xs

(* Distance between the first and third quartiles, as a share of the
   median: the run-to-run spread the bounds in BENCHMARK.json are set
   against. *)
let spread xs = (quantile ~p:0.75 xs -. quantile ~p:0.25 xs) /. median xs

(* -- machine speed ------------------------------------------------------- *)

(* Host speed on a shared machine follows the neighbours' load: one
   workload's passes took 300 ms in one run and 540 ms throughout another
   run minutes later. So a fixed probe is timed between samples, and every
   timing is scaled by [reference_probe_ms] over the probe time around it.
   The probe (perf/probe.ml) runs in a process of its own that links no
   library of the program, so nothing a change does to the program's
   runtime (a [Gc.set], a larger live heap) moves the reference and cancels
   out of the scaled times. Of the probes tried, inserts and removes on a
   Stdlib [Set] tracked pass times best. Scaled timings read as host ms on
   an unloaded 2-vCPU Intel Xeon VM with OCaml 5.1.1, where the probe takes
   10 ms. *)
let reference_probe_ms = 10.

type reference = {
  pid : int;
  requests : out_channel;
  replies : in_channel;
  mutable stopped : bool;
}

(* One probe: its wall ms, and the probe process's minor heap size and heap
   peak in words. *)
type probe = { ms : float; minor_heap_words : int; heap_words : int }

let probe r =
  output_string r.requests "probe\n";
  flush r.requests;
  let line = input_line r.replies in
  try Scanf.sscanf line "%f %d %d%!" (fun ms minor_heap_words heap_words ->
      { ms; minor_heap_words; heap_words })
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    failwith (Printf.sprintf "unreadable probe reply %S" line)

let probe_ms r = (probe r).ms

(* Closing its input ends the probe process; wait until it has. *)
let stop_reference r =
  if not r.stopped then begin
    r.stopped <- true;
    close_out_noerr r.requests;
    close_in_noerr r.replies;
    ignore (Unix.waitpid [] r.pid : int * Unix.process_status)
  end

(* Start the probe process [exe]. It is stopped when this process exits,
   at the latest. The first probe warms it up and is discarded. *)
let reference exe =
  let req_read, req_write = Unix.pipe ~cloexec:true () in
  let rep_read, rep_write = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe |] req_read rep_write Unix.stderr in
  Unix.close req_read;
  Unix.close rep_write;
  let r =
    {
      pid;
      requests = Unix.out_channel_of_descr req_write;
      replies = Unix.in_channel_of_descr rep_read;
      stopped = false;
    }
  in
  at_exit (fun () -> stop_reference r);
  ignore (probe r : probe);
  r

(* Every sample is taken on a collected heap, so one pass's garbage is not
   collected on the next one's clock. *)
let collected f =
  Gc.full_major ();
  f ()

type samples = {
  pass_ms : float list;  (** wall ms of each pass *)
  setup_ms : float list;  (** wall ms of the set-up sample before each pass *)
  probe_ms : float list;  (** one before each set-up and one after the last pass *)
}

(* The closed measuring loop: probe, set-up sample, timed pass, back to back,
   until both the sample floor and the time budget are met, and then only
   at a multiple of [sweep] passes, so every run covers the same mix of
   per-pass inputs. Sample [i] gets index [i]; the thunks return the wall ms
   they measured, so checking a pass's outputs stays outside its timing. *)
let loop reference ~sweep ~min_passes ~seconds ~setup ~pass =
  let t0 = now () in
  let rec go i passes setups probes =
    if i >= min_passes && i mod sweep = 0 && now () -. t0 >= seconds then
      {
        pass_ms = List.rev passes;
        setup_ms = List.rev setups;
        probe_ms = List.rev (probe_ms reference :: probes);
      }
    else
      let p = probe_ms reference in
      let s = collected (fun () -> setup i) in
      let x = collected (fun () -> pass i) in
      go (i + 1) (x :: passes) (s :: setups) (p :: probes)
  in
  go 0 [] [] []

(* [f ()] and the factor that scales host time measured during it to
   reference speed, from the probes just before and after it. *)
let at_reference reference f =
  let before = probe_ms reference in
  let r = f () in
  let after = probe_ms reference in
  (r, reference_probe_ms /. ((before +. after) /. 2.))

(* The samples scaled to reference speed: a pass by the mean of the probes
   before and after it, a set-up sample by the probe just before it. *)
let scaled s =
  let probes = Array.of_list s.probe_ms in
  let scale p x = x *. reference_probe_ms /. p in
  ( List.mapi (fun i x -> scale ((probes.(i) +. probes.(i + 1)) /. 2.) x) s.pass_ms,
    List.mapi (fun i x -> scale probes.(i) x) s.setup_ms )
