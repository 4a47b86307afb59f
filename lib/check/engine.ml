(* The exploration engine: drives a scenario through many adversarial
   schedules, turns failures into replayable traces, and shrinks them.

   Exploration fans out across domains with Runtime.Pool — every run is an
   independent (seed, strategy) pair, and results are reassembled in
   submission order, so a parallel exploration reports exactly what the
   sequential one would. *)

type run_result = { outcome : Oracle.outcome; decisions : Trace.decision list }

let run_one ?(tracer = Simcore.Tracer.disabled) (sc : Scenario.t) ~spec ~seed ~mutant =
  let recorder = Strategy.make spec ~seed in
  let outcome = sc.Scenario.run ~tracer ~seed ~recorder ~mutant in
  { outcome; decisions = recorder.Strategy.decisions () }

let trace_of_failure (sc : Scenario.t) ~strategy ~mutant (r : run_result) =
  match Oracle.first_failure r.outcome with
  | None -> None
  | Some failure ->
      Some
        {
          Trace.scenario = sc.Scenario.name;
          strategy;
          seed = r.outcome.Oracle.seed;
          mutant;
          decisions = r.decisions;
          failure;
          outcome_digest = Oracle.digest r.outcome;
        }

type report = {
  scenario : string;
  strategy : string;
  runs : int;
  distinct : int;  (* distinct schedule digests among the explored runs *)
  failing : int;
  ops : int;  (* operations executed across all runs *)
  failures : Trace.t list;  (* one trace per failing run, seed order *)
}

let explore ?jobs (sc : Scenario.t) ~spec ~strategy ~budget ~seed ~mutant =
  if budget < 1 then
    invalid_arg (Printf.sprintf "Engine.explore: budget %d, expected at least 1" budget);
  let results =
    List.init budget (fun i -> seed + i)
    |> Runtime.Pool.map ?jobs (fun seed -> run_one sc ~spec ~seed ~mutant)
  in
  let digests = Hashtbl.create (2 * budget) in
  let distinct = ref 0 and failing = ref 0 and ops = ref 0 in
  let failures = ref [] in
  List.iter
    (fun r ->
      let d = r.outcome.Oracle.schedule_digest in
      if not (Hashtbl.mem digests d) then begin
        Hashtbl.replace digests d ();
        incr distinct
      end;
      ops := !ops + r.outcome.Oracle.ops;
      if Oracle.failed r.outcome then begin
        incr failing;
        match trace_of_failure sc ~strategy ~mutant r with
        | Some t -> failures := t :: !failures
        | None -> ()
      end)
    results;
  {
    scenario = sc.Scenario.name;
    strategy;
    runs = budget;
    distinct = !distinct;
    failing = !failing;
    ops = !ops;
    failures = List.rev !failures;
  }

(* Replay a trace: re-run the scenario under the recorded decision list.
   The run is bit-identical iff the outcome digest matches the trace. *)
let replay ?tracer (sc : Scenario.t) (t : Trace.t) =
  let r =
    run_one ?tracer sc ~spec:(Strategy.Replay t.Trace.decisions) ~seed:t.Trace.seed
      ~mutant:t.Trace.mutant
  in
  (r.outcome, Oracle.digest r.outcome = t.Trace.outcome_digest)

(* Greedy delta-debugging over the decision list: drop chunks (halving the
   chunk size), then single decisions, keeping any candidate that still
   fails on the same oracle. Bounded by [max_attempts] replays, so
   shrinking a large trace degrades gracefully instead of running O(n^2)
   simulations. *)
let shrink ?(max_attempts = 400) (sc : Scenario.t) (t : Trace.t) =
  let attempts = ref 0 in
  let still_fails decisions =
    if !attempts >= max_attempts then None
    else begin
      incr attempts;
      let r =
        run_one sc ~spec:(Strategy.Replay decisions) ~seed:t.Trace.seed ~mutant:t.Trace.mutant
      in
      if Oracle.first_failure r.outcome = Some t.Trace.failure then Some r else None
    end
  in
  let drop_range l lo len =
    List.filteri (fun i _ -> i < lo || i >= lo + len) l
  in
  let best = ref t.Trace.decisions in
  let best_run = ref None in
  let improved = ref true in
  let chunk = ref (max 1 (List.length !best / 2)) in
  while (!improved || !chunk > 1) && !attempts < max_attempts do
    if not !improved then chunk := max 1 (!chunk / 2);
    improved := false;
    let n = List.length !best in
    let lo = ref 0 in
    while !lo < n && !attempts < max_attempts do
      let candidate = drop_range !best !lo !chunk in
      (match if List.length candidate < List.length !best then still_fails candidate else None with
      | Some r ->
          best := candidate;
          best_run := Some r;
          improved := true
      | None -> lo := !lo + !chunk);
      if !improved then lo := n (* restart scanning on the smaller list *)
    done
  done;
  match !best_run with
  | None -> (t, !attempts)  (* nothing removable (or empty to begin with) *)
  | Some r ->
      ( {
          t with
          Trace.decisions = !best;
          outcome_digest = Oracle.digest r.outcome;
        },
        !attempts )
