(* Schedule-exploration strategies.

   Each strategy is a schedule controller (see Sched.set_controller): it is
   consulted at every checkpoint and answers with an extra stall to inject
   before the yield. Strategies are seeded and record every nonzero answer
   as a (step, delay) decision, so any schedule they produce can be
   re-emitted as a Trace and replayed bit-identically by [Replay].

   - [Random_walk]: independent small jitter at each checkpoint. Explores
     the neighbourhood of the min-clock schedule broadly.
   - [Preempt_bound]: at most [budget] forced preemptions per run, each a
     timeslice-scale stall — the preemption-bounding heuristic: most SMR
     bugs need only a handful of adversarial context switches.
   - [Delay_inject]: pick [victims] threads and stall them periodically
     for a long time — the paper's stalled-reader / descheduled-thread
     pathology (a reader parked mid-operation while epochs try to move). *)

open Simcore

type spec =
  | Random_walk of { p : float; max_delay : int }
  | Preempt_bound of { budget : int; p : float; delay : int }
  | Delay_inject of { victims : int; period : int; delay : int }
  | Replay of Trace.decision list

type recorder = {
  controller : Sched.thread -> int;
  decisions : unit -> Trace.decision list;  (* recorded so far, in step order *)
  steps : unit -> int;  (* controller consultations so far *)
  injected_ns : unit -> int;  (* total stall injected so far *)
}

(* The named strategies of the CLI and the CI smoke job. *)
let defaults =
  [
    ("random-walk", Random_walk { p = 0.15; max_delay = 20_000 });
    ("preempt-bound", Preempt_bound { budget = 4; p = 0.03; delay = 2_000_000 });
    ("delay-inject", Delay_inject { victims = 1; period = 9; delay = 400_000 });
  ]

let names = List.map fst defaults
let of_name name = List.assoc_opt name defaults

let make spec ~seed =
  let steps = ref 0 in
  let injected = ref 0 in
  let decisions = ref [] in
  let decide =
    match spec with
    | Random_walk { p; max_delay } ->
        let rng = Rng.create seed in
        let max_delay = max 1 max_delay in
        fun _th -> if Rng.float rng < p then 1 + Rng.int_below rng max_delay else 0
    | Preempt_bound { budget; p; delay } ->
        let rng = Rng.create seed in
        let left = ref budget in
        fun _th ->
          if !left > 0 && Rng.float rng < p then begin
            decr left;
            delay
          end
          else 0
    | Delay_inject { victims; period; delay } ->
        let rng = Rng.create seed in
        let period = max 1 period in
        let chosen = ref None in
        let counts = Hashtbl.create 8 in
        fun (th : Sched.thread) ->
          let victim_set =
            match !chosen with
            | Some s -> s
            | None ->
                (* Victims are drawn lazily: the thread count is only known
                   once the scenario is running. *)
                let n = Sched.n_threads th.Sched.sched in
                let s = Hashtbl.create 4 in
                let want = max 1 (min victims n) in
                while Hashtbl.length s < want do
                  Hashtbl.replace s (Rng.int_below rng n) ()
                done;
                chosen := Some s;
                s
          in
          if Hashtbl.mem victim_set th.Sched.tid then begin
            let c = 1 + Option.value ~default:0 (Hashtbl.find_opt counts th.Sched.tid) in
            Hashtbl.replace counts th.Sched.tid c;
            if c mod period = 0 then delay else 0
          end
          else 0
    | Replay ds ->
        let tbl = Hashtbl.create (max 16 (2 * List.length ds)) in
        List.iter (fun (d : Trace.decision) -> Hashtbl.replace tbl d.Trace.step d.Trace.delay) ds;
        fun _th -> Option.value ~default:0 (Hashtbl.find_opt tbl !steps)
  in
  let controller th =
    let d = decide th in
    if d > 0 then begin
      decisions := { Trace.step = !steps; delay = d } :: !decisions;
      injected := !injected + d
    end;
    incr steps;
    d
  in
  {
    controller;
    decisions = (fun () -> List.rev !decisions);
    steps = (fun () -> !steps);
    injected_ns = (fun () -> !injected);
  }
