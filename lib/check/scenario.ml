(* Checkable scenarios: small, fully deterministic workloads over either
   the simulated stack (scheduler + allocator + reclaimer + set structure)
   or the real multicore protocols in lib/parallel, driven as coroutines
   on one domain so every interleaving is schedule-controlled.

   Two harnesses run them. [run_sim] drives a concurrent set over the
   simulator under any registered reclaimer. [run_par] drives one
   slab/Treiber-stack workload over every real reclaimer (EBR, the
   Token-EBR ring, hazard pointers); a [proto] record carries how each one
   protects the block a reader found at the stack head, so the workload,
   the retire mutants, the quiet-phase drain and the conservation and
   liveness epilogue exist once.

   A scenario owns its entire wiring; [run] executes one schedule under a
   strategy recorder and an optional seeded mutant, evaluates every oracle
   and returns the outcome. The same (scenario, seed, decision list) is
   guaranteed to reproduce the same outcome digest — the replay contract
   the trace format relies on. *)

open Simcore

type t = {
  name : string;
  summary : string;
  run :
    tracer:Tracer.t ->
    seed:int ->
    recorder:Strategy.recorder ->
    mutant:Mutant.t option ->
    Oracle.outcome;
}

(* One scheduler per run, every checkpoint decided by the strategy's
   controller; [tracer] (usually disabled) records without perturbing. *)
let new_sched ~n ~seed ~tracer (recorder : Strategy.recorder) =
  let sched = Sched.create ~topology:Topology.intel_192t ~n_threads:n ~seed () in
  Sched.set_controller sched (Some recorder.Strategy.controller);
  Sched.set_tracer sched tracer;
  sched

(* Close the liveness monitor at the latest thread clock and return its
   verdicts; the stall the adversary injected widens the stall budget. *)
let liveness_verdicts liv sched (recorder : Strategy.recorder) ?stall_budget ?pending_cap
    ~final_pending ~drain_slack () =
  let end_time =
    Array.fold_left (fun m (th : Sched.thread) -> max m th.Sched.clock) 0 (Sched.threads sched)
  in
  Liveness.finish liv ~end_time;
  Liveness.report liv ?stall_budget ?pending_cap
    ~injected_ns:(recorder.Strategy.injected_ns ())
    ~final_pending ~drain_slack ()

(* [violations] arrive newest first; [interleaving] is the observed
   thread order, a schedule-digest ingredient. *)
let outcome ~name ~seed ~(recorder : Strategy.recorder) sched ~ops ~interleaving violations =
  let final_clocks =
    Array.to_list (Array.map (fun (th : Sched.thread) -> th.Sched.clock) (Sched.threads sched))
  in
  {
    Oracle.scenario = name;
    seed;
    steps = recorder.Strategy.steps ();
    injected_ns = recorder.Strategy.injected_ns ();
    ops;
    schedule_digest =
      Oracle.schedule_digest ~decisions:(recorder.Strategy.decisions ()) ~interleaving
        ~final_clocks;
    violations = List.rev violations;
  }

(* ------------------------------------------------------------------ *)
(* Simulated scenarios: a concurrent set over the DES simulator.      *)
(* ------------------------------------------------------------------ *)

type sim_params = {
  n_threads : int;
  ops_per_thread : int;
  drain_ops : int;  (* trailing read-only ops: the AF backlog must drain *)
  key_range : int;
  insert_pct : float;
  delete_pct : float;
  stall_budget : int option;  (* base epoch-stall budget, virtual ns *)
  pending_cap : int option;
  drain_slack : int;
  churn : (int * int * int) list;
      (* thread-lifecycle plan: (tid, retire-after-ops, down-ns). The tid
         retires cooperatively after that many mutating operations, runs
         its teardown chain, and — when down-ns >= 0 — respawns that much
         virtual time later to join the quiet phase. A negative downtime
         means the thread never returns. *)
}

let default_sim =
  {
    n_threads = 4;
    ops_per_thread = 120;
    drain_ops = 64;
    key_range = 48;
    insert_pct = 0.4;
    delete_pct = 0.4;
    stall_budget = None;
    pending_cap = None;
    drain_slack = 0;
    churn = [];
  }

(* Wrap the reclaimer's retire path with a seeded bug. The mutants bypass
   the SMR entirely, so the grace-period validator (for the UAF pair) or
   the conservation count (for the lost callback) must catch them.
   [held] counts handles a mutant is privately sitting on, so the
   conservation oracle blames only genuine leaks. *)
let mutated_retire ~(smr : Smr.Smr_intf.t) ~safety ~policy ~held = function
  | None -> smr.Smr.Smr_intf.retire
  | Some Mutant.Uaf_free_early ->
      fun th h ->
        Smr.Safety.note_retire safety ~handle:h ~time:(Sched.now th);
        Smr.Free_policy.free_one policy th h
  | Some Mutant.Uaf_short_grace ->
      let stash = ref None in
      fun th h ->
        Smr.Safety.note_retire safety ~handle:h ~time:(Sched.now th);
        (match !stash with
        | Some g ->
            Smr.Free_policy.free_one policy th g;
            decr held
        | None -> ());
        stash := Some h;
        incr held
  | Some Mutant.Lost_callback -> fun _ _ -> ()
  (* The HP mutants live in [make_hp] (par/hp/* only), and the churn
     mutants perturb the teardown chain; on the retire path both families
     leave the protocol genuine. *)
  | Some
      ( Mutant.Hp_skip_validate | Mutant.Hp_drop_retired | Mutant.Churn_skip_handoff
      | Mutant.Churn_skip_death_flush ) ->
      smr.Smr.Smr_intf.retire

let run_sim ~name ~ds_name ~smr_name ~params ~tracer ~seed ~(recorder : Strategy.recorder)
    ~mutant =
  let p = params in
  let n = p.n_threads in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let sched = new_sched ~n ~seed ~tracer recorder in
  (* The leak allocator never recycles handles, so every free is visible
     to the grace-period validator exactly once. *)
  let alloc = Alloc.Registry.make "leak" sched in
  let safety = Smr.Safety.create ~n in
  let base_smr, af = Smr.Smr_registry.parse smr_name in
  let mode = if af then Smr.Free_policy.Amortized 1 else Smr.Free_policy.Batch in
  let policy = Smr.Free_policy.create ~safety ~mode ~alloc ~n () in
  let ctx = { Smr.Smr_intf.sched; alloc; policy; safety = Some safety } in
  (* [buffer_size] only reaches the buffered family and the hazard scan
     threshold; 24 makes hazard scans fire many times within the small
     checkable workload (epoch reclaimers ignore it). *)
  let smr =
    Smr.Smr_registry.make ~token_period:16 ~buffer_size:24 ~debra_check_every:2 base_smr ctx
  in
  let held = ref 0 in
  let retire = mutated_retire ~smr ~safety ~policy ~held mutant in
  let node_cost = Cost_model.node_cost (Sched.cost sched) ~sockets_used:1 in
  let ds_ctx = { Ds.Ds_intf.alloc; retire; node_cost } in
  let lin = Lin.create () in
  let liv = Liveness.create () in
  let ops_done = ref 0 in
  Array.iter
    (fun (th : Sched.thread) ->
      th.Sched.hooks.Sched.on_epoch_advance <-
        (fun ~time ~epoch:_ -> Liveness.note_advance liv ~time);
      (* Teardown chain, in registration order (mirroring Runtime.Runner):
         the validator learns the thread went quiescent, the reclaimer
         deregisters the participant (token handoff, slot release, bag
         adoption), and the grace-proven freeable backlog is flushed. The
         two churn mutants each break exactly one link. Hooks persist
         across retire/respawn cycles, so one registration covers every
         lifecycle the schedule produces. *)
      Sched.on_teardown th (fun th ->
          Smr.Safety.note_quiescent safety ~tid:th.Sched.tid);
      Sched.on_teardown th (fun th ->
          match mutant with
          | Some Mutant.Churn_skip_handoff -> ()
          | _ -> smr.Smr.Smr_intf.on_thread_exit th);
      Sched.on_teardown th (fun th ->
          match mutant with
          | Some Mutant.Churn_skip_death_flush ->
              (* Drop the backlog on the floor: the objects leave every
                 ledger at once, which only conservation can notice. *)
              Vec.clear policy.Smr.Free_policy.freeable.(th.Sched.tid)
          | _ -> ignore (Smr.Free_policy.drain_all policy th : int)))
    (Sched.threads sched);
  let retire_after = Array.make n max_int in
  let down_ns = Array.make n (-1) in
  List.iter
    (fun (tid, after, down) ->
      retire_after.(tid) <- after;
      down_ns.(tid) <- down)
    p.churn;
  (try
     (* Structure creation allocates (the ABtree's initial leaf), so it
        runs inside the simulation, to completion, before the workers. *)
     let ds_ref = ref None in
     Sched.spawn sched (Sched.thread sched 0) (fun th ->
         ds_ref := Some (Ds.Ds_registry.make ds_name ds_ctx th));
     Sched.run sched;
     let ds = match !ds_ref with Some ds -> ds | None -> assert false in
     let do_op (th : Sched.thread) ~read_only =
       let tid = th.Sched.tid in
       Smr.Safety.note_op_begin safety ~tid ~time:(Sched.now th);
       smr.Smr.Smr_intf.begin_op th;
       Sched.work th Metrics.Ds (Sched.cost sched).Cost_model.op_fixed;
       let key = Rng.int_below th.Sched.rng p.key_range in
       let coin = if read_only then 1.0 else Rng.float th.Sched.rng in
       let inv = Sched.now th in
       (* The structure operation is atomic (linearizable), so the order
          in which atomic bodies execute IS the linearization order; the
          oracle replays that order against a sequential model. *)
       let exec, op, result =
         Sched.atomically th (fun () ->
             let exec = Lin.linearize lin in
             if coin < p.insert_pct then
               (exec, Lin.Insert key, ds.Ds.Ds_intf.insert th key)
             else if coin < p.insert_pct +. p.delete_pct then
               (exec, Lin.Delete key, ds.Ds.Ds_intf.delete th key)
             else (exec, Lin.Contains key, ds.Ds.Ds_intf.contains th key))
       in
       smr.Smr.Smr_intf.end_op th;
       Lin.record lin ~exec ~tid ~inv ~resp:(Sched.now th) ~op
         ~result:(if result.Ds.Ds_intf.changed then 1 else 0);
       incr ops_done;
       Liveness.sample_pending liv (Smr.Free_policy.total_pending policy);
       Sched.checkpoint th
     in
     (* Quiet-phase coordination: every thread keeps doing read-only ops
        until ALL threads have finished the mutating phase and drained for
        at least [drain_ops] operations. A thread that stopped early would
        pin the epoch (its announcement goes stale), stranding the other
        threads' backlogs — exactly the stalled-thread pathology, but here
        it would be an artifact of the finite workload, not a bug.

        The quota also extends while anything is still pending: an
        adversarial stall can concentrate a whole run's retirements into
        one thread's bag, and amortized freeing clears at most one object
        per op, so a fixed quota would flag a backlog that merely needs a
        few more ops. The extension is capped, so a backlog that genuinely
        cannot drain (a liveness bug) still terminates and is flagged. *)
     let quiet = Array.make n 0 in
     let drain_cap = 8 * p.drain_ops in
     (* Only live threads owe quiet ops: a retired thread (or one parked
        awaiting its respawn) cannot drain anything, and its stale quota
        must not pin the survivors in the loop. Without churn every thread
        stays alive and this is exactly the historical contract. *)
     let exists_live f =
       let rec go tid =
         tid < n && (((Sched.thread sched tid).Sched.alive && f tid) || go (tid + 1))
       in
       go 0
     in
     let draining () =
       exists_live (fun tid -> quiet.(tid) < p.drain_ops)
       || (Smr.Free_policy.total_pending policy > p.drain_slack
          && exists_live (fun tid -> quiet.(tid) < drain_cap))
     in
     let mains_done = ref 0 in
     let main_phase_over () =
       (* Once every thread is past the mutating phase (or dead) the
          adversary is retired: the drain contract below counts
          operations, not virtual time, so further stalls could not mask
          a bug — they would only make the catch-up through
          stall-inflated clocks expensive. *)
       incr mains_done;
       if !mains_done = n then Sched.set_controller sched None
     in
     (* Quiet phase: no retirements, so the amortized-free backlog must
        drain back toward zero — the AF liveness contract. Respawned
        threads enter here directly: their mutating quota died with their
        first life. *)
     let quiet_phase (th : Sched.thread) =
       while draining () do
         do_op th ~read_only:true;
         (* Idle between quiet ops to catch up cheaply through any
            stall-inflated clocks — and yield right after, so the next
            atomic op still runs only when this thread is minimal (the
            invariant the real-time linearizability check rests on). *)
         Sched.wait th Metrics.Idle 20_000;
         Sched.checkpoint th;
         quiet.(th.Sched.tid) <- quiet.(th.Sched.tid) + 1
       done;
       Smr.Safety.note_quiescent safety ~tid:th.Sched.tid
     in
     let body (th : Sched.thread) =
       let tid = th.Sched.tid in
       let k = ref 0 in
       let retired = ref false in
       while (not !retired) && !k < p.ops_per_thread do
         do_op th ~read_only:false;
         incr k;
         if !k = retire_after.(tid) then begin
           (* Cooperative retirement at an operation boundary: the
              teardown chain runs on this coroutine, then the body
              returns. The downtime clock starts once teardown is paid
              for, so the respawn time can never precede the thread's
              own clock. *)
           retired := true;
           main_phase_over ();
           Sched.retire sched ~tid;
           if down_ns.(tid) >= 0 then
             Sched.respawn sched ~tid ~at:(Sched.now th + down_ns.(tid)) quiet_phase
         end
       done;
       if not !retired then begin
         main_phase_over ();
         quiet_phase th
       end
     in
     Array.iter (fun th -> Sched.spawn sched th body) (Sched.threads sched);
     Sched.run sched;
     (* --- Oracles --- *)
     List.iter
       (fun v ->
         add
           {
             Oracle.oracle = Oracle.smr_safety;
             detail = Format.asprintf "%a" Smr.Safety.pp_violation v;
           })
       (Smr.Safety.violations safety);
     List.iter add (Lin.check_set lin);
     (try ds.Ds.Ds_intf.check_invariants ()
      with Invalid_argument msg ->
        add { Oracle.oracle = Oracle.ds_invariant; detail = msg });
     (* Leak freedom: live allocator objects are exactly the reachable
        nodes plus the reclaimer's unreclaimed garbage (which already
        counts the amortized-pending backlog). *)
     let live = Alloc.Obj_table.live_count alloc.Alloc.Alloc_intf.table in
     let expected =
       ds.Ds.Ds_intf.node_count () + smr.Smr.Smr_intf.total_garbage () + !held
     in
     if live <> expected then
       add
         {
           Oracle.oracle = Oracle.conservation;
           detail =
             Printf.sprintf
               "%d live allocator objects but %d accounted for (%d in the structure, %d \
                reclaimer garbage) — objects leaked or released twice"
               live expected
               (ds.Ds.Ds_intf.node_count ())
               (smr.Smr.Smr_intf.total_garbage ());
         };
     List.iter add
       (liveness_verdicts liv sched recorder ?stall_budget:p.stall_budget
          ?pending_cap:p.pending_cap
          ~final_pending:(Smr.Free_policy.total_pending policy)
          ~drain_slack:p.drain_slack ())
   with e ->
     add { Oracle.oracle = Oracle.crash; detail = Printexc.to_string e });
  outcome ~name ~seed ~recorder sched ~ops:!ops_done ~interleaving:(Lin.interleaving lin)
    !violations

(* ------------------------------------------------------------------ *)
(* Parallel scenarios: the real lib/parallel protocols (Atomics code), *)
(* driven from scheduler coroutines on one domain.                     *)
(* ------------------------------------------------------------------ *)

type par_params = {
  par_threads : int;
  par_ops : int;
  par_quiet : int;  (* trailing enter/exit cycles with no retirements *)
  blocks : int;
  par_pending_cap : int option;
  par_drain_slack : int;
}

let default_par =
  {
    par_threads = 3;
    par_ops = 160;
    par_quiet = 48;
    blocks = 48;
    par_pending_cap = None;
    par_drain_slack = 8;
  }

(* A protocol-neutral view of Ebr, Token_ring and Hp, so one workload
   checks every real reclaimer. The protocols differ only in how a reader
   protects the block it found at the stack head:

   - [acquire th ~slot] returns the head's (block, push-time sequence),
     protected until [release i ~slot]. For the epoch schemes the open
     operation is itself the protection, so it is a bare peek.
   - [protected b] is the release-time pointer-protection oracle: whether
     a published protection still names block [b].
   - [quiet i] runs in every quiet-phase operation.
   - [progress ()] counts reclamation progress (epochs, token receipts,
     HP scans) for the liveness monitor. *)
type proto = {
  enter : int -> unit;
  exit_ : int -> unit;
  acquire : Sched.thread -> slot:int -> (int * int) option;
  release : int -> slot:int -> unit;
  retire : int -> value:int -> (unit -> unit) -> unit;
  protected : int -> bool;
  quiet : int -> unit;
  pending : int -> int;
  progress : unit -> int;
  flush : unit -> unit;  (* end of run: release everything retired *)
  totals : unit -> int * int;  (* retired, released *)
}

(* The epoch schemes have no protocol-specific mutants, nothing to
   publish or clear, and nothing to do when quiet: epochs and the token
   keep moving on enter/exit alone. *)
let make_ebr ~mode ~n ~stack ~mutant:_ =
  let ebr = Parallel.Ebr.create ~mode ~check_every:1 ~max_domains:n () in
  let handles = Array.init n (fun _ -> Parallel.Ebr.register ebr) in
  {
    enter = (fun i -> Parallel.Ebr.enter handles.(i));
    exit_ = (fun i -> Parallel.Ebr.exit handles.(i));
    acquire = (fun _ ~slot:_ -> Parallel.Treiber_stack.peek stack);
    release = (fun _ ~slot:_ -> ());
    retire = (fun i ~value:_ cb -> Parallel.Ebr.retire handles.(i) cb);
    protected = (fun _ -> false);
    quiet = ignore;
    pending = (fun i -> Parallel.Ebr.pending handles.(i));
    progress = (fun () -> Parallel.Ebr.current_epoch ebr);
    flush = (fun () -> Array.iter Parallel.Ebr.flush_unsafe handles);
    totals =
      (fun () ->
        Array.fold_left
          (fun (r, f) h -> (r + Parallel.Ebr.retired h, f + Parallel.Ebr.released h))
          (0, 0) handles);
  }

let make_token ~mode ~n ~stack ~mutant:_ =
  let ring = Parallel.Token_ring.create ~mode ~max_domains:n () in
  let handles = Array.init n (fun _ -> Parallel.Token_ring.register ring) in
  {
    enter = (fun i -> Parallel.Token_ring.enter handles.(i));
    exit_ = (fun i -> Parallel.Token_ring.exit handles.(i));
    acquire = (fun _ ~slot:_ -> Parallel.Treiber_stack.peek stack);
    release = (fun _ ~slot:_ -> ());
    retire = (fun i ~value:_ cb -> Parallel.Token_ring.retire handles.(i) cb);
    protected = (fun _ -> false);
    quiet = ignore;
    pending = (fun i -> Parallel.Token_ring.pending handles.(i));
    progress =
      (fun () -> Array.fold_left (fun a h -> a + Parallel.Token_ring.receipts h) 0 handles);
    flush = (fun () -> Array.iter Parallel.Token_ring.flush_unsafe handles);
    totals =
      (fun () ->
        Array.fold_left
          (fun (r, f) h -> (r + Parallel.Token_ring.retired h, f + Parallel.Token_ring.released h))
          (0, 0) handles);
  }

(* Hazard pointers, with the protect/validate loop driven explicitly so
   the adversary can park a reader between the read, the publish and the
   validate — the races hazard pointers exist to survive. [acquire] peeks
   the head, checkpoints (the block may die right there), publishes it in
   [slot], then re-validates the head: same block, same push-time
   sequence, so an ABA re-push fails. A failed validation clears the slot
   before its retry, so the release-time oracle never sees a stale,
   harmless slot; after 32 retries the reader gives up.

   Nothing advances HP reclamation once retires stop, so [quiet] runs the
   protocol's thread-exit scan to drive leftover retire-list entries out.

   Mutants: [Hp_skip_validate] returns straight after the publish (the
   classic misuse; the probe catches the schedule where the block died
   between read and publish); [Hp_drop_retired] silently drops every
   fifth retire-list entry (no scan can repair it; conservation counts
   the missing blocks after the final flush). *)
let make_hp ~mode ~n ~stack ~mutant =
  let hp = Parallel.Hp.create ~mode ~scan_threshold:8 ~slots_per_domain:2 ~max_domains:n () in
  let handles = Array.init n (fun _ -> Parallel.Hp.register hp) in
  let rec acquire (th : Sched.thread) ~slot tries =
    let h = handles.(th.Sched.tid) in
    match Parallel.Treiber_stack.peek stack with
    | None -> None
    | Some (b, seq) -> (
        Sched.checkpoint th;
        Parallel.Hp.protect h ~slot b;
        if mutant = Some Mutant.Hp_skip_validate then Some (b, seq)
        else
          match Parallel.Treiber_stack.peek stack with
          | Some (b', seq') when b' = b && seq' = seq -> Some (b, seq)
          | _ ->
              Parallel.Hp.clear h ~slot;
              Parallel.Hp.note_retry h;
              if tries < 32 then acquire th ~slot (tries + 1) else None)
  in
  let retire i ~value cb = Parallel.Hp.retire handles.(i) ~value cb in
  let retire =
    if mutant <> Some Mutant.Hp_drop_retired then retire
    else
      let k = ref 0 in
      fun i ~value cb ->
        incr k;
        if !k mod 5 <> 0 then retire i ~value cb
  in
  {
    enter = (fun i -> Parallel.Hp.enter handles.(i));
    exit_ = (fun i -> Parallel.Hp.exit handles.(i));
    acquire = (fun th ~slot -> acquire th ~slot 0);
    release = (fun i ~slot -> Parallel.Hp.clear handles.(i) ~slot);
    retire;
    protected = Parallel.Hp.is_protected hp;
    quiet = (fun i -> Parallel.Hp.scan_now handles.(i));
    pending = (fun i -> Parallel.Hp.pending handles.(i));
    progress = (fun () -> Array.fold_left (fun a h -> a + Parallel.Hp.scans h) 0 handles);
    flush = (fun () -> Array.iter Parallel.Hp.flush_unsafe handles);
    totals =
      (fun () ->
        Array.fold_left
          (fun (r, f) h -> (r + Parallel.Hp.retired h, f + Parallel.Hp.released h))
          (0, 0) handles);
  }

(* Producers publish slab blocks through a Treiber stack; consumers
   acquire the head, probe it, pop it, release and retire it; stalled
   readers acquire the head and yield while holding the protection. Two
   safety oracles watch: the probe on every protected dereference (a
   recycled block is a use-after-free made observable) and the
   pointer-protection check inside every release callback. *)
let run_par ~name ~make_proto ~params ~tracer ~seed ~(recorder : Strategy.recorder) ~mutant =
  let p = params in
  let n = p.par_threads in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let sched = new_sched ~n ~seed ~tracer recorder in
  let slab = Parallel.Slab.create ~blocks:p.blocks ~block_words:2 in
  let stack = Parallel.Treiber_stack.create () in
  let liv = Liveness.create () in
  let proto = make_proto ~n ~stack ~mutant in
  let last_progress = ref 0 in
  let note_progress i =
    let c = proto.progress () in
    if c > !last_progress then begin
      last_progress := c;
      Liveness.note_advance liv ~time:(Sched.thread sched i).Sched.clock
    end
  in
  let release b () =
    if proto.protected b then
      add
        {
          Oracle.oracle = Oracle.smr_safety;
          detail =
            Printf.sprintf "block %d released while a published hazard slot still holds it" b;
        };
    Parallel.Slab.free slab b
  in
  (* Mutant wrapping of the retire path: run the release too early, one
     retirement late, or never. The stash is drained at the end so only
     the genuinely lost releases show up as a conservation deficit. *)
  let stash = ref None in
  let retire i b =
    let cb = release b in
    match mutant with
    | Some Mutant.Uaf_free_early -> cb ()
    | Some Mutant.Uaf_short_grace ->
        Option.iter (fun f -> f ()) !stash;
        stash := Some cb
    | Some Mutant.Lost_callback -> ()
    | None
    | Some
        ( Mutant.Hp_skip_validate | Mutant.Hp_drop_retired | Mutant.Churn_skip_handoff
        | Mutant.Churn_skip_death_flush ) ->
        proto.retire i ~value:b cb
  in
  (* A protected block must still carry the sequence it was pushed with,
     and its payload. *)
  let probe i b seq ~where =
    let found = Parallel.Slab.sequence slab b in
    if found <> seq then
      add
        {
          Oracle.oracle = Oracle.smr_safety;
          detail =
            Printf.sprintf
              "thread %d (%s) read block %d with sequence %d, found %d — block recycled under \
               a protected reader"
              i where b seq found;
        }
    else if Parallel.Slab.read slab b ~word:0 <> (b * 7) + 1 then
      add
        {
          Oracle.oracle = Oracle.smr_safety;
          detail = Printf.sprintf "thread %d (%s) read torn payload in block %d" i where b;
        }
  in
  let total_pending () =
    let rec sum i acc = if i < 0 then acc else sum (i - 1) (acc + proto.pending i) in
    sum (n - 1) 0
  in
  let interleaving = Buffer.create 256 in
  let ops_done = ref 0 in
  (try
     (* See the sim runner: every thread keeps cycling until all threads
        have finished producing and drained, because a stopped participant
        pins the epoch / halts the token ring and would strand the other
        threads' backlogs — a workload artifact, not a protocol bug. As
        there, the quota extends (bounded) while releases are pending. *)
     let quiet = Array.make n 0 in
     let drain_cap = 8 * p.par_quiet in
     let draining () =
       Array.exists (fun q -> q < p.par_quiet) quiet
       || (total_pending () > p.par_drain_slack && Array.exists (fun q -> q < drain_cap) quiet)
     in
     let mains_done = ref 0 in
     let body (th : Sched.thread) =
       let i = th.Sched.tid in
       for _ = 1 to p.par_ops do
         proto.enter i;
         Sched.work th Metrics.Ds 120;
         Buffer.add_string interleaving (string_of_int i);
         Buffer.add_char interleaving ';';
         (match Rng.int_below th.Sched.rng 3 with
         | 0 -> (
             (* Producer: publish a block through the stack. *)
             match Parallel.Slab.alloc slab with
             | Some b ->
                 Parallel.Slab.write slab b ~word:0 ((b * 7) + 1);
                 Parallel.Treiber_stack.push stack ~value:b ~seq:(Parallel.Slab.sequence slab b)
             | None -> ())
         | 1 -> (
             (* Consumer. Acquire and pop run back to back (no checkpoint),
                so the pop takes exactly the acquired block unless a
                mutant skipped the validation. *)
             match proto.acquire th ~slot:0 with
             | Some (b, seq) ->
                 probe i b seq ~where:"consumer";
                 let popped = Parallel.Treiber_stack.pop stack in
                 proto.release i ~slot:0;
                 Option.iter (fun (b, _) -> retire i b) popped
             | None -> ())
         | _ -> (
             (* Stalled reader: the adversary may park this thread inside
                the protected section for a long virtual time; the
                reclaimer must still not recycle the acquired block. *)
             match proto.acquire th ~slot:1 with
             | Some (b, seq) ->
                 Sched.work th Metrics.Ds 40;
                 Sched.checkpoint th;
                 probe i b seq ~where:"stalled reader";
                 proto.release i ~slot:1
             | None -> ()));
         proto.exit_ i;
         note_progress i;
         incr ops_done;
         Liveness.sample_pending liv (proto.pending i);
         Sched.checkpoint th
       done;
       (* The adversary is retired once everyone stopped retiring; see the
          sim runner for why this cannot mask a drain bug. *)
       incr mains_done;
       if !mains_done = n then Sched.set_controller sched None;
       (* Quiet phase: keep entering but retire nothing, so the backlog
          must drain. *)
       while draining () do
         proto.enter i;
         Sched.work th Metrics.Ds 60;
         proto.quiet i;
         proto.exit_ i;
         note_progress i;
         quiet.(i) <- quiet.(i) + 1;
         Sched.wait th Metrics.Idle 20_000;
         Sched.checkpoint th
       done
     in
     Array.iter (fun th -> Sched.spawn sched th body) (Sched.threads sched);
     Sched.run sched;
     (* --- Epilogue: all workers done, so flushing is safe. --- *)
     Option.iter (fun f -> f ()) !stash;
     let pending_before_flush = total_pending () in
     proto.flush ();
     let rec drain () =
       match Parallel.Treiber_stack.pop stack with
       | Some (b, _) ->
           Parallel.Slab.free slab b;
           drain ()
       | None -> ()
     in
     drain ();
     if Parallel.Slab.free_blocks slab <> p.blocks then
       add
         {
           Oracle.oracle = Oracle.conservation;
           detail =
             Printf.sprintf
               "%d of %d slab blocks unaccounted for after flushing and draining — release \
                callbacks were lost"
               (p.blocks - Parallel.Slab.free_blocks slab)
               p.blocks;
         };
     let retired, released = proto.totals () in
     if retired <> released then
       add
         {
           Oracle.oracle = Oracle.conservation;
           detail =
             Printf.sprintf "%d retirements but %d releases after the final flush" retired
               released;
         };
     List.iter add
       (liveness_verdicts liv sched recorder ?pending_cap:p.par_pending_cap
          ~final_pending:pending_before_flush ~drain_slack:p.par_drain_slack ())
   with e -> add { Oracle.oracle = Oracle.crash; detail = Printexc.to_string e });
  outcome ~name ~seed ~recorder sched ~ops:!ops_done ~interleaving:(Buffer.contents interleaving)
    !violations

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let sim ~name ~summary ~ds_name ~smr_name params =
  {
    name;
    summary;
    run =
      (fun ~tracer ~seed ~recorder ~mutant ->
        run_sim ~name ~ds_name ~smr_name ~params ~tracer ~seed ~recorder ~mutant);
  }

let par ~name ~summary ~make_proto params =
  {
    name;
    summary;
    run =
      (fun ~tracer ~seed ~recorder ~mutant ->
        run_par ~name ~make_proto ~params ~tracer ~seed ~recorder ~mutant);
  }

(* Base epoch-stall budgets (virtual ns) are calibrated against the
   unperturbed runs with a ~5x margin; injected stalls extend them at
   runtime (see Liveness). AF scenarios additionally bound the backlog
   and require it drained after the read-only tail. *)
let all =
  [
    sim ~name:"sim/list/debra" ~summary:"lazy list set, DEBRA, batch free"
      ~ds_name:"list" ~smr_name:"debra"
      { default_sim with stall_budget = Some 6_000_000 };
    sim ~name:"sim/list/debra_af" ~summary:"lazy list set, DEBRA, amortized free"
      ~ds_name:"list" ~smr_name:"debra_af"
      {
        default_sim with
        stall_budget = Some 6_000_000;
        pending_cap = Some 512;
        drain_slack = 4;
      };
    sim ~name:"sim/skiplist/token" ~summary:"skiplist set, Token-EBR, batch free"
      ~ds_name:"skiplist" ~smr_name:"token"
      { default_sim with stall_budget = Some 12_000_000 };
    sim ~name:"sim/skiplist/token_af" ~summary:"skiplist set, Token-EBR, amortized free"
      ~ds_name:"skiplist" ~smr_name:"token_af"
      {
        default_sim with
        stall_budget = Some 12_000_000;
        pending_cap = Some 512;
        drain_slack = 4;
      };
    sim ~name:"sim/abtree/debra_af" ~summary:"(a,b)-tree, DEBRA, amortized free"
      ~ds_name:"abtree" ~smr_name:"debra_af"
      {
        default_sim with
        stall_budget = Some 6_000_000;
        pending_cap = Some 512;
        drain_slack = 4;
      };
    sim ~name:"sim/abtree/token" ~summary:"(a,b)-tree, Token-EBR, batch free"
      ~ds_name:"abtree" ~smr_name:"token"
      { default_sim with stall_budget = Some 12_000_000 };
    par ~name:"par/ebr/batch" ~summary:"real EBR (Atomics), batch release"
      ~make_proto:(make_ebr ~mode:Parallel.Ebr.Batch) default_par;
    par ~name:"par/ebr/af" ~summary:"real EBR (Atomics), amortized release"
      ~make_proto:(make_ebr ~mode:(Parallel.Ebr.Amortized 2))
      { default_par with par_pending_cap = Some 256 };
    par ~name:"par/token/batch" ~summary:"real Token-EBR ring (Atomics), batch release"
      ~make_proto:(make_token ~mode:Parallel.Token_ring.Batch) default_par;
    par ~name:"par/token/af" ~summary:"real Token-EBR ring (Atomics), amortized release"
      ~make_proto:(make_token ~mode:(Parallel.Token_ring.Amortized 2))
      { default_par with par_pending_cap = Some 256 };
    sim ~name:"sim/list/hazard" ~summary:"lazy list set, hazard pointers, batch free"
      ~ds_name:"list" ~smr_name:"hazard"
      { default_sim with stall_budget = Some 12_000_000 };
    sim ~name:"sim/abtree/hazard_af"
      ~summary:"(a,b)-tree, hazard pointers, amortized free"
      ~ds_name:"abtree" ~smr_name:"hazard_af"
      {
        default_sim with
        stall_budget = Some 12_000_000;
        pending_cap = Some 512;
        drain_slack = 4;
      };
    (* Churn scenarios: thread retirement and respawn under every
       reclaimer family. Each churn triple is (tid, retire-after-ops,
       down-ns); a negative downtime means the thread never returns.

       sim/churn/token-holder retires three of the four ring members at
       staggered op counts, so on most schedules at least one of them
       holds the token — mid-grace-period, with receipts outstanding —
       when it dies; the handoff in the reclaimer's teardown must keep
       the ring turning. Its stall budget is deliberately much tighter
       than the long quiet tail (400 quiet ops x 20us), so a ring that
       stalls at a holder's death blows the budget on every schedule —
       the churn-skip-handoff selftest rests on this gap. *)
    sim ~name:"sim/churn/token-holder"
      ~summary:"token holder retires mid-grace-period; ring must keep turning"
      ~ds_name:"skiplist" ~smr_name:"token"
      {
        default_sim with
        churn = [ (1, 30, -1); (2, 45, -1); (3, 60, -1) ];
        drain_ops = 400;
        stall_budget = Some 5_000_000;
      };
    (* The adversary can park tid 3 mid-operation with its epoch
       announcement pinning the global epoch, then let it retire; the
       alive-skip in the epoch scan must unpin reclamation, and the AF
       backlog — including the dead threads' adopted bags — must still
       drain. The churn-skip-death-flush selftest runs here: under AF the
       dying thread usually sits on a grace-proven backlog. *)
    sim ~name:"sim/churn/ebr-stalled-reader"
      ~summary:"stalled EBR reader retires; epoch must unpin, AF backlog must drain"
      ~ds_name:"list" ~smr_name:"debra_af"
      {
        default_sim with
        churn = [ (1, 40, -1); (3, 60, -1) ];
        stall_budget = Some 6_000_000;
        pending_cap = Some 512;
        drain_slack = 4;
      };
    (* A hazard-pointer owner retires while its op_start gate would
       otherwise block every other thread's scan quiescence check, and
       with a live retire list; teardown must release the slots and hand
       the orphaned retire list to a survivor. One retiree comes back. *)
    sim ~name:"sim/churn/hp-owner"
      ~summary:"HP owner retires with live protections; slots release, orphans adopted"
      ~ds_name:"list" ~smr_name:"hazard_af"
      {
        default_sim with
        churn = [ (1, 40, -1); (2, 70, 300_000) ];
        stall_budget = Some 12_000_000;
        pending_cap = Some 512;
        drain_slack = 4;
      };
    (* A full rolling restart over the lazy list: every thread retires
       once, staggered, and rejoins 200us later — the suite's
       rolling-restart churn plan at checkable scale. *)
    sim ~name:"sim/churn/list-rolling"
      ~summary:"rolling restart over the lazy list set; every thread retires and rejoins"
      ~ds_name:"list" ~smr_name:"debra"
      {
        default_sim with
        churn = [ (0, 30, 200_000); (1, 45, 200_000); (2, 60, 200_000); (3, 75, 200_000) ];
        stall_budget = Some 6_000_000;
      };
    par ~name:"par/hp/batch"
      ~summary:"real hazard pointers (Atomics), protect/validate loop, batch release"
      ~make_proto:(make_hp ~mode:Parallel.Hp.Batch) default_par;
    par ~name:"par/hp/af"
      ~summary:"real hazard pointers (Atomics), protect/validate loop, amortized release"
      ~make_proto:(make_hp ~mode:(Parallel.Hp.Amortized 2))
      { default_par with par_pending_cap = Some 256 };
  ]

let names = List.map (fun s -> s.name) all
let of_name n = List.find_opt (fun s -> s.name = n) all
