(* The host-cost benchmark (perf/README.md).

     dune exec perf/main.exe -- run --workload W [--seed S] [--seconds N] [--trace 0|1]
     dune exec perf/main.exe -- compare PARENT CHANGE [--pairs N] [--workload W]...
     dune exec perf/main.exe -- record --commit C --out FILE [--seed S]

   [run] prints every metric as [name workload value unit], writes
   perf/out/W.json (W.trace.json when traced) and prints the result as one
   JSON object on its last line. It starts the reference probe (probe.ml,
   built beside this executable) in a process of its own. [compare] and
   [record] run workloads in child processes, one per run. *)

open Perf

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf: " ^ s);
      exit 2)
    fmt

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : int option;
  mutable trace : bool;
  mutable root : string;
  mutable pairs : int;
  mutable commit : string option;
  mutable out : string option;
  mutable args : string list;
}

let usage =
  "usage: main.exe run --workload W [--seed S] [--seconds N] [--trace 0|1] [--root DIR]\n\
  \       main.exe compare PARENT CHANGE [--pairs N] [--workload W]... [--seed S] [--seconds N]\n\
  \       main.exe record --commit C --out FILE [--seed S] [--seconds N] [--root DIR]"

let parse () =
  let o =
    {
      workloads = [];
      seed = 42;
      seconds = None;
      trace = false;
      root = ".";
      pairs = 10;
      commit = None;
      out = None;
      args = [];
    }
  in
  let spec =
    [
      ("--workload", Arg.String (fun w -> o.workloads <- o.workloads @ [ w ]), "W workload name");
      ("--seed", Arg.Int (fun s -> o.seed <- s), "S input seed (default 42, the baselines' seed)");
      ( "--seconds",
        Arg.Int
          (fun n ->
            if n < 1 then raise (Arg.Bad "--seconds must be positive") else o.seconds <- Some n),
        "N measuring time per run (default: run_seconds of BENCHMARK.json)" );
      ( "--trace",
        Arg.Int
          (function
          | 0 -> o.trace <- false
          | 1 -> o.trace <- true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 the untraced run (end-to-end metrics) or the traced run (per-layer)" );
      ("--root", Arg.String (fun r -> o.root <- r), "DIR repository root (default .)");
      ( "--pairs",
        Arg.Int
          (fun n -> if n < 1 then raise (Arg.Bad "--pairs must be positive") else o.pairs <- n),
        "N compare: alternating pairs per workload (default 10)" );
      ("--commit", Arg.String (fun c -> o.commit <- Some c), "C record: commit measured");
      ("--out", Arg.String (fun f -> o.out <- Some f), "FILE record: trajectory file to write");
    ]
  in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun a -> o.args <- o.args @ [ a ]) usage with
  | Arg.Bad msg -> die "%s" msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  o

let load_spec root = try Spec.load ~root with Failure e | Sys_error e -> die "%s" e

let seconds o (spec : Spec.t) = Option.value o.seconds ~default:spec.Spec.run_seconds

(* -- run ------------------------------------------------------------------ *)

let run o =
  let spec = load_spec o.root in
  let w =
    match o.workloads with
    | [ name ] -> (
        match Bench.find name with
        | Some w -> w
        | None ->
            die "unknown workload %s (one of %s)" name (String.concat ", " spec.Spec.workloads))
    | _ -> die "run takes exactly one --workload"
  in
  let r =
    try
      let reference =
        Stats.reference (Filename.concat (Filename.dirname Sys.executable_name) Probe_exe.name)
      in
      let r =
        Bench.run reference ~root:o.root ~seed:o.seed
          ~seconds:(float_of_int (seconds o spec))
          ~min_passes:Stats.min_p75_samples ~traced:o.trace w
      in
      Stats.stop_reference reference;
      r
    with
    | Failure e | Sys_error e | Invalid_argument e -> die "%s: %s" w.Bench.name e
    | Unix.Unix_error (err, f, _) -> die "%s: %s: %s" w.Bench.name f (Unix.error_message err)
  in
  let declared = if o.trace then spec.Spec.per_layer else spec.Spec.end_to_end in
  let key (name, u) = name ^ " [" ^ u ^ "]" in
  let emitted =
    List.map (fun (m : Bench.metric) -> key (m.Bench.name, m.Bench.unit_)) r.Bench.metrics
  in
  let expected = List.map (fun (m : Spec.metric) -> key (m.Spec.name, m.Spec.unit_)) declared in
  if emitted <> expected then
    die "metrics differ from BENCHMARK.json:\n  emitted  %s\n  declared %s"
      (String.concat ", " emitted) (String.concat ", " expected);
  List.iter
    (fun (m : Bench.metric) ->
      Printf.printf "%s %s %s %s\n" m.Bench.name w.Bench.name (Json.float_str m.Bench.value)
        m.Bench.unit_)
    r.Bench.metrics;
  Printf.printf "# %s seed=%d samples=%s attempted=%d failed=%d failed_share=%s\n" w.Bench.name
    o.seed
    (Json.render ~minify:true (List.assoc "samples" r.Bench.info))
    r.Bench.attempted r.Bench.failed
    (Json.float_str (float_of_int r.Bench.failed /. float_of_int r.Bench.attempted));
  List.iter
    (fun k ->
      match List.assoc_opt k r.Bench.info with
      | Some j -> Printf.printf "# %s %s\n" k (Json.render ~minify:true j)
      | None -> ())
    [ "wall_pass_ms_p50"; "sim_mops"; "largest_layer"; "dropped"; "gc_lost_events" ];
  let dir = Filename.concat o.root "perf/out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file =
    Filename.concat dir (w.Bench.name ^ if o.trace then ".trace.json" else ".json")
  in
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (Json.render (Bench.out_json r)));
  print_endline (Json.render ~minify:true (Bench.summary_json r));
  exit (if Bench.correct r then 0 else 1)

(* -- child runs ------------------------------------------------------------- *)

(* Run [exe] with [args] and return the JSON object on the last line of its
   standard output, or an error. *)
let child exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out) in
  match (status, List.rev lines) with
  | Unix.WEXITED (0 | 1), last :: _ -> (
      match Json.parse last with Ok j -> Ok j | Error e -> Error ("unreadable result: " ^ e))
  | _ -> Error (Printf.sprintf "%s %s failed" exe (String.concat " " args))

let run_args o ~root ~workload ~traced =
  [
    "run";
    "--root";
    root;
    "--workload";
    workload;
    "--seed";
    string_of_int o.seed;
    "--trace";
    (if traced then "1" else "0");
  ]
  @ match o.seconds with Some n -> [ "--seconds"; string_of_int n ] | None -> []

let metric_values j =
  List.map
    (fun (k, v) -> (k, Json.to_float (Json.member "value" v)))
    (Json.to_assoc (Json.member "metrics" j))

(* -- compare ---------------------------------------------------------------- *)

(* Both sides are checkouts with perf/; each is built once and runs its own
   benchmark, alternating which side goes first. *)
let compare o =
  let parent, change =
    match o.args with [ p; c ] -> (p, c) | _ -> die "compare takes PARENT and CHANGE directories"
  in
  let spec = load_spec parent in
  let exe dir = Filename.concat dir "_build/default/perf/main.exe" in
  List.iter
    (fun dir ->
      let build = Filename.quote_command "dune" [ "build"; "--root"; dir; "./perf/main.exe" ] in
      if Sys.command build <> 0 then die "cannot build %s" (exe dir))
    [ parent; change ];
  let workloads = if o.workloads = [] then spec.Spec.workloads else o.workloads in
  Printf.printf "%-15s %-16s %28s %28s %6s  %s\n" "workload" "metric" "parent p50 [q1, q3]"
    "change p50 [q1, q3]" "wins" "verdict";
  List.iter
    (fun w ->
      let side dir =
        match child (exe dir) (run_args o ~root:dir ~workload:w ~traced:false) with
        | Ok j when Json.to_bool (Json.member "correct" j) -> metric_values j
        | Ok _ -> die "%s: %s reported incorrect outputs" w dir
        | Error e -> die "%s: %s" w e
      in
      let runs =
        List.init o.pairs (fun i ->
            if i mod 2 = 0 then
              let p = side parent in
              (p, side change)
            else
              let c = side change in
              (side parent, c))
      in
      List.iter
        (fun (metric : Spec.metric) ->
          let values f = List.map (fun r -> List.assoc metric.Spec.name (f r)) runs in
          let parent = values fst and change = values snd in
          let describe xs =
            Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median xs) (Stats.quantile ~p:0.25 xs)
              (Stats.quantile ~p:0.75 xs)
          in
          Printf.printf "%-15s %-16s %28s %28s %3d/%-2d  %s\n%!" w metric.Spec.name
            (describe parent) (describe change)
            (Compare.wins metric ~parent ~change)
            o.pairs
            (Compare.verdict_name (Compare.verdict metric ~parent ~change)))
        spec.Spec.end_to_end)
    workloads

(* -- record ----------------------------------------------------------------- *)

(* One trajectory point: every workload's run and traced run, each in its
   own process, with the records they wrote under perf/out/. A run whose
   outputs were wrong stops it, so no point holds one. *)
let record o =
  let spec = load_spec o.root in
  let commit = match o.commit with Some c -> c | None -> die "record needs --commit" in
  let out = match o.out with Some f -> f | None -> die "record needs --out" in
  let read file = Json.parse_exn (In_channel.with_open_bin file In_channel.input_all) in
  let workloads =
    List.map
      (fun w ->
        let one traced =
          match child Sys.executable_name (run_args o ~root:o.root ~workload:w ~traced) with
          | Error e -> die "%s" e
          | Ok j when not (Json.to_bool (Json.member "correct" j)) ->
              die "%s%s reported incorrect outputs" w (if traced then " (traced)" else "")
          | Ok _ ->
              read
                (Filename.concat o.root
                   (Printf.sprintf "perf/out/%s%s" w (if traced then ".trace.json" else ".json")))
        in
        let run = one false in
        (w, Json.Assoc [ ("run", run); ("trace", one true) ]))
      spec.Spec.workloads
  in
  let j =
    Json.Assoc
      [
        ("commit", Json.String commit);
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("seed", Json.Int o.seed);
        ("seconds", Json.Int (seconds o spec));
        ("workloads", Json.Assoc workloads);
      ]
  in
  Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc (Json.render j));
  Printf.printf "trajectory point written to %s\n" out

let () =
  if Array.length Sys.argv < 2 then die "%s" usage;
  let o = parse () in
  match Sys.argv.(1) with
  | "run" -> run o
  | "compare" -> compare o
  | "record" -> record o
  | cmd -> die "unknown command %s\n%s" cmd usage
