(* Gate logic. See gate.mli. *)

type finding = { id : string; metric : string; ok : bool; detail : string }

let error ~id detail = { id; metric = "baseline"; ok = false; detail }
let all_ok = List.for_all (fun f -> f.ok)

(* Metric-aware value formatting for readable diffs. *)
let show metric v =
  if Float.is_integer v then begin
    let i = int_of_float v in
    match metric with
    | "throughput" -> Report.Table.mops v
    | "peak_mapped_bytes" | "peak_live_bytes" -> Report.Table.bytes i
    | _ -> Report.Table.count i
  end
  else if metric = "throughput" then Report.Table.mops v
  else Printf.sprintf "%.2f" v

let pct_change ~from ~to_ =
  if from = 0. then if to_ = 0. then 0. else Float.infinity
  else (to_ -. from) /. from *. 100.

let change_str ~metric ~from ~to_ =
  Printf.sprintf "%s -> %s (%+.1f%%)" (show metric from) (show metric to_)
    (pct_change ~from ~to_)

let digest_findings ~(expected : Baseline.result) ~(got : Baseline.result) =
  let id = expected.Baseline.id in
  if expected.Baseline.seed <> got.Baseline.seed then
    [
      {
        id;
        metric = "seed";
        ok = false;
        detail =
          Printf.sprintf "baseline was blessed with seed %d but the run used seed %d"
            expected.Baseline.seed got.Baseline.seed;
      };
    ]
  else if String.equal expected.Baseline.digest got.Baseline.digest then
    [ { id; metric = "digest"; ok = true; detail = got.Baseline.digest } ]
  else begin
    let moved =
      List.filter_map
        (fun (name, _) ->
          match (Baseline.metric expected name, Baseline.metric got name) with
          | Some a, Some b when a <> b ->
              Some { id; metric = name; ok = false; detail = change_str ~metric:name ~from:a ~to_:b }
          | Some _, None ->
              Some { id; metric = name; ok = false; detail = "missing from this run" }
          | _ -> None)
        expected.Baseline.metrics
    in
    let digest_finding =
      {
        id;
        metric = "digest";
        ok = false;
        detail =
          Printf.sprintf "expected %s, got %s%s" expected.Baseline.digest got.Baseline.digest
            (if moved = [] then
               " (summary metrics agree; deep state — histograms or garbage trace — diverged)"
             else "");
      }
    in
    digest_finding :: moved
  end

(* Safety is checked on the run alone: a baseline blessed from an unsafe
   run must not make the run pass. *)
let safety (got : Baseline.result) =
  let fail detail = [ { id = got.Baseline.id; metric = "violations"; ok = false; detail } ] in
  match Baseline.metric got "violations" with
  | Some 0. -> []
  | Some v -> fail (Printf.sprintf "%.0f grace-period violations (must be 0)" v)
  | None -> fail "missing from this run"

let exact ~expected ~got = digest_findings ~expected ~got @ safety got

let render findings =
  let line f =
    Printf.sprintf "%s %-18s %-20s %s" (if f.ok then " ok " else "FAIL") f.id f.metric f.detail
  in
  String.concat "\n" (List.map line findings)
