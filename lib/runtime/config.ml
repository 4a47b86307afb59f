(* Experiment configuration: the paper's methodology (§3) as a record.

   Defaults are scaled down from the paper's testbed (2x10^7 keys, 5 s
   trials) so a full figure regenerates on one core in minutes: the shapes
   of the phenomena, not the absolute numbers, are the target. *)

open Simcore

(* Key-access distribution of the workload. *)
type key_dist = Uniform | Zipf of float  (* skew exponent, e.g. 0.99 *)

(* Thread-churn plan: which threads retire during the measured window, when,
   and whether they come back. All times are virtual ns relative to the start
   of the measured window; [down_ns < 0] means the thread never respawns. *)
type churn =
  | Rolling_restart of { first_ns : int; every_ns : int; down_ns : int }
      (* thread [tid] retires at [first_ns + tid * every_ns] — a rolling
         restart marching around the ring *)
  | Resize of { at_ns : int; keep : int; down_ns : int }
      (* threads [keep..n-1] all retire at [at_ns]: shrink under load *)
  | Failover of { at_ns : int; socket : int; down_ns : int }
      (* every thread pinned to [socket] retires at [at_ns]: socket loss *)

let churn_name = function
  | Rolling_restart _ -> "rolling"
  | Resize _ -> "resize"
  | Failover _ -> "failover"

type t = {
  ds : string;  (* data structure, see Ds.Ds_registry.names *)
  smr : string;  (* reclaimer; an "_af" suffix selects amortized freeing *)
  alloc : string;  (* allocator model, see Alloc.Registry.names *)
  threads : int;
  topology : Topology.t;
  key_range : int;  (* keys drawn from [0, key_range) *)
  key_dist : key_dist;
  insert_pct : float;  (* fraction of operations that are inserts *)
  delete_pct : float;  (* fraction that are deletes; rest are lookups *)
  warmup_ns : int;  (* settle time after prefill, before measuring *)
  duration_ns : int;  (* measured window *)
  grace_ns : int;  (* how far past the deadline stuck threads may run *)
  seed : int;
  trials : int;
  validate : bool;  (* enable the grace-period safety validator *)
  timeline : bool;  (* record timeline graphs *)
  timeline_min_free_ns : int;  (* smallest free call recorded as a box *)
  af_drain : int;  (* objects freed per op under amortized freeing *)
  token_period : int;  (* Periodic Token-EBR check interval (paper: 100) *)
  buffer_size : int;
      (* batch size for buffered reclaimers. The paper uses 32K objects with
         5-second trials; our virtual trials are ~100x shorter, so the
         scale-equivalent default is 384 (same number of reclamation passes
         per trial). *)
  debra_check_every : int;  (* ops between DEBRA announcement scans *)
  alloc_config : Alloc.Alloc_intf.config;
  cost : Cost_model.t;
  churn : churn option;
      (* thread-churn plan, [None] = static population (all pre-churn
         behaviour and manifests unchanged) *)
}

let default =
  {
    ds = "abtree";
    smr = "debra";
    alloc = "jemalloc";
    threads = 192;
    topology = Topology.intel_192t;
    key_range = 1 lsl 14;
    key_dist = Uniform;
    insert_pct = 0.5;
    delete_pct = 0.5;
    warmup_ns = 2_000_000;
    duration_ns = 30_000_000;
    grace_ns = 30_000_000;
    seed = 42;
    trials = 3;
    validate = false;
    timeline = false;
    timeline_min_free_ns = 1_000;
    af_drain = 1;
    token_period = 100;
    buffer_size = 384;
    debra_check_every = 3;
    alloc_config = Alloc.Alloc_intf.default_config;
    cost = Cost_model.default;
    churn = None;
  }

let label cfg =
  let base = Printf.sprintf "%s/%s/%s n=%d" cfg.ds cfg.smr cfg.alloc cfg.threads in
  match cfg.churn with
  | None -> base
  | Some c -> Printf.sprintf "%s churn=%s" base (churn_name c)

(* Manifest (de)serialization for the regression harness: every simbench
   suite entry is a set of overrides applied to [default] (or to a
   manifest-level defaults block). [alloc_config] and [cost] are not
   expressible in manifests and keep the base values — the suite pins the
   calibrated cost model on purpose, so a cost-model change shows up as a
   digest change rather than being silently absorbed into baselines. *)

let key_dist_to_json = function
  | Uniform -> Json.String "uniform"
  | Zipf theta -> Json.Assoc [ ("zipf", Json.Float theta) ]

let key_dist_of_json = function
  | Json.String "uniform" -> Uniform
  | Json.Assoc _ as j when Json.mem "zipf" j -> Zipf (Json.to_float (Json.member "zipf" j))
  | j ->
      raise
        (Json.Type_error ("key_dist must be \"uniform\" or {\"zipf\": theta}, got " ^ Json.type_name j))

let churn_to_json = function
  | Rolling_restart { first_ns; every_ns; down_ns } ->
      Json.Assoc
        [
          ("plan", Json.String "rolling");
          ("first_ns", Json.Int first_ns);
          ("every_ns", Json.Int every_ns);
          ("down_ns", Json.Int down_ns);
        ]
  | Resize { at_ns; keep; down_ns } ->
      Json.Assoc
        [
          ("plan", Json.String "resize");
          ("at_ns", Json.Int at_ns);
          ("keep", Json.Int keep);
          ("down_ns", Json.Int down_ns);
        ]
  | Failover { at_ns; socket; down_ns } ->
      Json.Assoc
        [
          ("plan", Json.String "failover");
          ("at_ns", Json.Int at_ns);
          ("socket", Json.Int socket);
          ("down_ns", Json.Int down_ns);
        ]

let churn_of_json j =
  let int k = Json.to_int (Json.member k j) in
  match Json.to_string (Json.member "plan" j) with
  | "rolling" ->
      Rolling_restart { first_ns = int "first_ns"; every_ns = int "every_ns"; down_ns = int "down_ns" }
  | "resize" -> Resize { at_ns = int "at_ns"; keep = int "keep"; down_ns = int "down_ns" }
  | "failover" -> Failover { at_ns = int "at_ns"; socket = int "socket"; down_ns = int "down_ns" }
  | other -> failwith (Printf.sprintf "unknown churn plan %S (rolling|resize|failover)" other)

(* CLI spec strings, e.g. "rolling:2000000:1000000:500000". *)
let churn_spec_usage =
  "rolling:FIRST_NS:EVERY_NS:DOWN_NS | resize:AT_NS:KEEP:DOWN_NS | \
   failover:AT_NS:SOCKET:DOWN_NS (times are virtual ns from the start of the \
   measured window; DOWN_NS < 0 = never respawn)"

let churn_of_spec spec =
  let fail () =
    failwith (Printf.sprintf "bad churn spec %S; expected %s" spec churn_spec_usage)
  in
  match String.split_on_char ':' spec with
  | [ plan; a; b; c ] -> (
      let int s = match int_of_string_opt s with Some v -> v | None -> fail () in
      match plan with
      | "rolling" -> Rolling_restart { first_ns = int a; every_ns = int b; down_ns = int c }
      | "resize" -> Resize { at_ns = int a; keep = int b; down_ns = int c }
      | "failover" -> Failover { at_ns = int a; socket = int b; down_ns = int c }
      | _ -> fail ())
  | _ -> fail ()

(* The one validity check of a config. The data structure, reclaimer and
   allocator must be registered names; an unknown one would otherwise
   escape as an exception from the registry's [make]. A run needs at
   least one thread, key, virtual ns of window and trial; with none it
   crashes deep inside the simulator or reports a throughput over an empty
   window. Amortized freeing needs [af_drain >= 1], or it frees nothing
   and garbage grows for the whole trial. A churn plan must name a real
   thread or socket and no time before the start of the measured window.
   Otherwise it would silently retire nobody, the wrong threads, or
   everyone. Manifests ([of_json]), the CLI and [churn_schedule] all go
   through here. *)
let check cfg =
  let negative field v =
    if v < 0 then Some (Printf.sprintf "%s %d is negative; it must be >= 0" field v) else None
  in
  let outside field v ~hi ~why =
    if v < 0 || v >= hi then Some (Printf.sprintf "%s %d is outside [0, %d) (%s)" field v hi why)
    else None
  in
  let problems = function
    | Rolling_restart { first_ns; every_ns; down_ns = _ } ->
        [ negative "first_ns" first_ns; negative "every_ns" every_ns ]
    | Resize { at_ns; keep; down_ns = _ } ->
        [
          negative "at_ns" at_ns;
          outside "keep" keep ~hi:cfg.threads
            ~why:(Printf.sprintf "the run has %d threads" cfg.threads);
        ]
    | Failover { at_ns; socket; down_ns = _ } ->
        let m = cfg.topology in
        [
          negative "at_ns" at_ns;
          outside "socket" socket ~hi:m.Topology.sockets
            ~why:(Printf.sprintf "machine %s has %d sockets" m.Topology.name m.Topology.sockets);
        ]
  in
  let below_one field v =
    if v < 1 then Some (Printf.sprintf "%s %d is out of range; it must be >= 1" field v) else None
  in
  let unknown ?(hint = "") field v ~base names =
    if List.mem base names then None
    else
      Some
        (Printf.sprintf "%s %S is unknown; valid names: %s%s" field v (String.concat ", " names)
           hint)
  in
  let fields =
    [
      unknown "ds" cfg.ds ~base:cfg.ds Ds.Ds_registry.names;
      unknown "smr" cfg.smr ~base:(fst (Smr.Smr_registry.parse cfg.smr)) Smr.Smr_registry.names
        ~hint:" (each also with an _af suffix)";
      unknown "alloc" cfg.alloc ~base:cfg.alloc Alloc.Registry.names;
      below_one "threads" cfg.threads;
      below_one "key_range" cfg.key_range;
      below_one "duration_ns" cfg.duration_ns;
      below_one "trials" cfg.trials;
      below_one "af_drain" cfg.af_drain;
    ]
  in
  match (List.find_map Fun.id fields, cfg.churn) with
  | Some msg, _ -> Error msg
  | None, None -> Ok ()
  | None, Some plan -> (
      match List.find_map Fun.id (problems plan) with
      | None -> Ok ()
      | Some msg -> Error (Printf.sprintf "churn %s: %s" (churn_name plan) msg))

(* Expand the plan into per-tid (retire, respawn) offsets relative to the
   start of the measured window; [max_int] = never. The schedule is a pure
   function of the config, so every worker sees the same one — churn
   determinism rests on this. *)
let churn_schedule cfg =
  match cfg.churn with
  | None -> None
  | Some plan ->
      (match check cfg with Ok () -> () | Error msg -> invalid_arg msg);
      let n = cfg.threads in
      let retire_at = Array.make n max_int in
      let respawn_at = Array.make n max_int in
      let plan_thread tid at down =
        retire_at.(tid) <- at;
        if down >= 0 then respawn_at.(tid) <- at + down
      in
      (match plan with
      | Rolling_restart { first_ns; every_ns; down_ns } ->
          for tid = 0 to n - 1 do
            plan_thread tid (first_ns + (tid * every_ns)) down_ns
          done
      | Resize { at_ns; keep; down_ns } ->
          for tid = keep to n - 1 do
            plan_thread tid at_ns down_ns
          done
      | Failover { at_ns; socket; down_ns } ->
          for tid = 0 to n - 1 do
            if Topology.socket_of_thread cfg.topology tid = socket then
              plan_thread tid at_ns down_ns
          done);
      Some (retire_at, respawn_at)

let to_json cfg =
  let churn_field =
    match cfg.churn with None -> [] | Some c -> [ ("churn", churn_to_json c) ]
  in
  Json.Assoc
    ([
      ("ds", Json.String cfg.ds);
      ("smr", Json.String cfg.smr);
      ("alloc", Json.String cfg.alloc);
      ("threads", Json.Int cfg.threads);
      ("machine", Json.String cfg.topology.Topology.name);
      ("key_range", Json.Int cfg.key_range);
      ("key_dist", key_dist_to_json cfg.key_dist);
      ("insert_pct", Json.Float cfg.insert_pct);
      ("delete_pct", Json.Float cfg.delete_pct);
      ("warmup_ns", Json.Int cfg.warmup_ns);
      ("duration_ns", Json.Int cfg.duration_ns);
      ("grace_ns", Json.Int cfg.grace_ns);
      ("seed", Json.Int cfg.seed);
      ("trials", Json.Int cfg.trials);
      ("validate", Json.Bool cfg.validate);
      ("timeline", Json.Bool cfg.timeline);
      ("timeline_min_free_ns", Json.Int cfg.timeline_min_free_ns);
      ("af_drain", Json.Int cfg.af_drain);
      ("token_period", Json.Int cfg.token_period);
      ("buffer_size", Json.Int cfg.buffer_size);
      ("debra_check_every", Json.Int cfg.debra_check_every);
    ]
    @ churn_field)

let of_json ?(base = default) j =
  let apply cfg (key, v) =
    match key with
    | "ds" -> { cfg with ds = Json.to_string v }
    | "smr" -> { cfg with smr = Json.to_string v }
    | "alloc" -> { cfg with alloc = Json.to_string v }
    | "threads" -> { cfg with threads = Json.to_int v }
    | "machine" -> (
        let name = Json.to_string v in
        match Topology.by_name name with
        | Some t -> { cfg with topology = t }
        | None -> failwith (Printf.sprintf "unknown machine %S" name))
    | "key_range" -> { cfg with key_range = Json.to_int v }
    | "key_dist" -> { cfg with key_dist = key_dist_of_json v }
    | "insert_pct" -> { cfg with insert_pct = Json.to_float v }
    | "delete_pct" -> { cfg with delete_pct = Json.to_float v }
    | "warmup_ns" -> { cfg with warmup_ns = Json.to_int v }
    | "duration_ns" -> { cfg with duration_ns = Json.to_int v }
    | "grace_ns" -> { cfg with grace_ns = Json.to_int v }
    | "seed" -> { cfg with seed = Json.to_int v }
    | "trials" -> { cfg with trials = Json.to_int v }
    | "validate" -> { cfg with validate = Json.to_bool v }
    | "timeline" -> { cfg with timeline = Json.to_bool v }
    | "timeline_min_free_ns" -> { cfg with timeline_min_free_ns = Json.to_int v }
    | "af_drain" -> { cfg with af_drain = Json.to_int v }
    | "token_period" -> { cfg with token_period = Json.to_int v }
    | "buffer_size" -> { cfg with buffer_size = Json.to_int v }
    | "debra_check_every" -> { cfg with debra_check_every = Json.to_int v }
    | "churn" -> { cfg with churn = Some (churn_of_json v) }
    | other -> failwith (Printf.sprintf "unknown config field %S" other)
  in
  match List.fold_left apply base (Json.to_assoc j) with
  | cfg -> Result.map (fun () -> cfg) (check cfg)
  | exception Failure msg -> Error msg
  | exception Json.Type_error msg -> Error msg
