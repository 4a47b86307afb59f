(* Simulated workloads: suite entries from regress/suite.json, unchanged,
   driven through [Runtime.Runner.run_trial] one trial after another. *)

open Runtime

type entry = { id : string; config : Config.t; baseline : Regress.Baseline.result }

let load ~root ids =
  let all =
    match Regress.Suite.load (Filename.concat root "regress/suite.json") with
    | Ok all -> all
    | Error e -> failwith e
  in
  let dir = Filename.concat root "regress/baselines" in
  List.map
    (fun id ->
      match List.find_opt (fun (e : Regress.Suite.entry) -> e.Regress.Suite.id = id) all with
      | None -> failwith (Printf.sprintf "regress/suite.json has no entry %s" id)
      | Some e -> (
          match Regress.Baseline.load ~dir id with
          | Ok baseline -> { id; config = e.Regress.Suite.config; baseline }
          | Error msg -> failwith msg))
    ids

(* Throughput the paper reports for the same configuration (Table 2). *)
let paper_mops = [ ("paper-je-ebr-n192", 43.4); ("paper-je-ebr-af-n192", 111.3) ]

(* Correctness of every trial a run makes. A trial fails on a grace-period
   violation or on a digest that differs from the expected one for its
   entry and seed: the blessed baseline at the seed it was blessed at,
   otherwise the digest the first trial of that entry and seed produced, so
   repetitions and the traced trial must reproduce it. *)
type checker = { expected : (string * int, string) Hashtbl.t; tally : Stats.tally }

let checker ~tally entries =
  let expected = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let b = e.baseline in
      Hashtbl.replace expected (e.id, b.Regress.Baseline.seed) b.Regress.Baseline.digest)
    entries;
  { expected; tally }

(* One checked trial; the wall ms cover [run_trial] alone. A traced trial
   also fails when its ring dropped events, since its counts would be
   partial. *)
let trial ?tracer c ~seed e =
  let ms, t = Stats.timed (fun () -> Runner.run_trial ?tracer e.config ~seed) in
  let d = Trial.digest t in
  let same =
    match Hashtbl.find_opt c.expected (e.id, seed) with
    | Some x -> x = d
    | None ->
        Hashtbl.replace c.expected (e.id, seed) d;
        true
  in
  let complete = match tracer with Some tr -> Simcore.Tracer.dropped tr = 0 | None -> true in
  Stats.note c.tally (t.Trial.violations = 0 && same && complete);
  (ms, t)

(* One pass: a trial of each entry. *)
let pass c ~seed entries =
  List.fold_left
    (fun (ms, trials) e ->
      let t_ms, t = trial c ~seed e in
      (ms +. t_ms, trials @ [ t ]))
    (0., []) entries

(* Set-up alone: the same configuration with an empty measured window, so
   the trial builds the stack, prefills and stops. *)
let setup_only (c : Config.t) = { c with Config.warmup_ns = 0; duration_ns = 1; grace_ns = 0 }

let setup_ms ~seed entries =
  List.fold_left
    (fun acc e -> acc +. fst (Stats.timed (fun () -> Runner.run_trial (setup_only e.config) ~seed)))
    0. entries
