(* The curated simbench suite, in tiers.

   - "pr": deliberately tiny configurations — a few virtual milliseconds
     each — so the whole tier gates in seconds.
   - "paper": the paper's headline shape — 192 virtual threads on the
     4-socket Xeon 8160 topology, every allocator model crossed with
     {debra, token, hazard} x {batch, amortized free} — about 7 s on two
     domains.

   Both tiers carry golden baselines and both are gated on every PR;
   `simbench --tier` selects which to run (default "pr"). *)

type entry = { id : string; tier : string; config : Runtime.Config.t }

let schema_version = 1
let default_tier = "pr"

(* Small windows, steady-state prefill, safety validator armed. The list
   runs on a smaller key range: its operations are O(n) and 512 keys
   already exercises every reclamation path. *)
let base ~ds ~smr ~threads =
  let key_range = match ds with "list" -> 512 | _ -> 4096 in
  {
    Runtime.Config.default with
    Runtime.Config.ds;
    smr;
    threads;
    key_range;
    warmup_ns = 1_000_000;
    duration_ns = 8_000_000;
    grace_ns = 8_000_000;
    seed = 42;
    trials = 1;
    validate = true;
  }

(* Hazard-pointer entries scan when a thread's retire list reaches
   [buffer_size]; the 384 default is sized for long CLI runs and would
   never fire inside these few-millisecond windows (a thread retires a
   couple hundred objects at most), leaving the reclaimer degenerate —
   zero scans, zero frees. 48 yields several scans per thread per window
   in both tiers. *)
let hp_buffer_size = 48

let with_hp_threshold (cfg : Runtime.Config.t) =
  if String.length cfg.Runtime.Config.smr >= 6 && String.sub cfg.Runtime.Config.smr 0 6 = "hazard"
  then { cfg with Runtime.Config.buffer_size = hp_buffer_size }
  else cfg

let pr_tier =
  List.map
    (fun (id, ds, smr, threads) ->
      { id; tier = "pr"; config = with_hp_threshold (base ~ds ~smr ~threads) })
    [
      (* EBR (DEBRA) vs Token-EBR vs their amortized-free variants, over the
         three structures and 1/8/32 simulated threads. *)
      ("ll-ebr-n1", "list", "debra", 1);
      ("ll-ebr-af-n8", "list", "debra_af", 8);
      ("ll-token-n8", "list", "token", 8);
      ("ll-token-af-n1", "list", "token_af", 1);
      ("sl-ebr-n8", "skiplist", "debra", 8);
      ("sl-ebr-af-n1", "skiplist", "debra_af", 1);
      ("sl-token-n32", "skiplist", "token", 32);
      ("sl-token-af-n32", "skiplist", "token_af", 32);
      ("occ-ebr-n32", "occtree", "debra", 32);
      ("occ-ebr-af-n32", "occtree", "debra_af", 32);
      ("occ-token-n8", "occtree", "token", 8);
      ("occ-token-af-n32", "occtree", "token_af", 32);
      (* Hazard pointers: the zoo's non-epoch reclaimer, batch and AF. *)
      ("ll-hp-n8", "list", "hazard", 8);
      ("sl-hp-af-n8", "skiplist", "hazard_af", 8);
      ("occ-hp-n32", "occtree", "hazard", 32);
      ("occ-hp-af-n32", "occtree", "hazard_af", 32);
    ]

(* Paper-scale: the ABtree (the paper's RBF victim) at the testbed's full
   192 threads, all six allocator models x {debra, token, hazard} x {batch,
   AF}. Virtual windows are kept short — 192 threads generate ~6x the
   events of the n32 entries per virtual ns, and this tier is 36 entries. *)
let paper_base ~smr ~alloc =
  {
    Runtime.Config.default with
    Runtime.Config.ds = "abtree";
    smr;
    alloc;
    threads = 192;
    topology = Simcore.Topology.intel_192t;
    key_range = 8192;
    warmup_ns = 1_000_000;
    duration_ns = 4_000_000;
    grace_ns = 4_000_000;
    seed = 42;
    trials = 1;
    validate = true;
  }

let paper_tier =
  List.concat_map
    (fun (alloc, tag) ->
      List.map
        (fun (smr, smr_tag) ->
          {
            id = Printf.sprintf "paper-%s-%s-n192" tag smr_tag;
            tier = "paper";
            config = with_hp_threshold (paper_base ~smr ~alloc);
          })
        [
          ("debra", "ebr");
          ("debra_af", "ebr-af");
          ("token", "token");
          ("token_af", "token-af");
          ("hazard", "hp");
          ("hazard_af", "hp-af");
        ])
    [
      ("jemalloc", "je");
      ("jemalloc-ba", "jeba");
      ("jemalloc-pool", "jepool");
      ("tcmalloc", "tc");
      ("mimalloc", "mi");
      ("leak", "leak");
    ]

(* Churn entries: the thread-lifecycle plans from Config.churn, in the pr
   tier so the exact gate replays retire/respawn/teardown on every PR. The
   rolling n32 entry is the acceptance config — retires staggered every
   150us starting 500us into the window, everyone back up 400us later, all
   inside the 8ms measured window. The failover entry runs on the tiny_8t
   machine: the default 192t topology is socket-fill-first, so at n=8 a
   socket failure would kill either every thread or none. *)
let churn_pr =
  let mk id ds smr threads churn =
    {
      id;
      tier = "pr";
      config =
        { (with_hp_threshold (base ~ds ~smr ~threads)) with Runtime.Config.churn = Some churn };
    }
  in
  [
    mk "ll-churn-rolling-n8" "list" "debra" 8
      (Runtime.Config.Rolling_restart
         { first_ns = 1_000_000; every_ns = 500_000; down_ns = 500_000 });
    mk "occ-churn-rolling-n32" "occtree" "debra_af" 32
      (Runtime.Config.Rolling_restart
         { first_ns = 500_000; every_ns = 150_000; down_ns = 400_000 });
    mk "sl-churn-resize-n32" "skiplist" "token_af" 32
      (Runtime.Config.Resize { at_ns = 2_000_000; keep = 16; down_ns = -1 });
    (let e =
       mk "ll-churn-failover-n8" "list" "hazard" 8
         (Runtime.Config.Failover { at_ns = 2_000_000; socket = 1; down_ns = 1_000_000 })
     in
     { e with config = { e.config with Runtime.Config.topology = Simcore.Topology.tiny_8t } });
  ]

let builtin = pr_tier @ churn_pr @ paper_tier

let tier_names entries =
  List.sort_uniq compare (List.map (fun e -> e.tier) entries)

let filter_tier ~tier entries =
  if tier = "all" then entries else List.filter (fun e -> e.tier = tier) entries

let to_manifest entries =
  Json.Assoc
    [
      ("schema_version", Json.Int schema_version);
      ( "entries",
        Json.List
          (List.map
             (fun e ->
               match Runtime.Config.to_json e.config with
               | Json.Assoc fields ->
                   Json.Assoc
                     (("id", Json.String e.id) :: ("tier", Json.String e.tier) :: fields)
               | j -> j)
             entries) );
    ]

let of_manifest j =
  try
    let v = Json.member "schema_version" j in
    (match v with
    | Json.Int v when v = schema_version -> ()
    | Json.Int v -> failwith (Printf.sprintf "unsupported manifest schema_version %d" v)
    | _ -> failwith "manifest missing schema_version");
    let defaults =
      match Json.member "defaults" j with
      | Json.Null -> Runtime.Config.default
      | d -> (
          match Runtime.Config.of_json d with
          | Ok cfg -> cfg
          | Error msg -> failwith ("manifest defaults: " ^ msg))
    in
    let entry ej =
      let id =
        match Json.member "id" ej with
        | Json.String id when id <> "" -> id
        | Json.String _ -> failwith "entry with empty id"
        | _ -> failwith "entry missing id"
      in
      let tier =
        match Json.member "tier" ej with
        | Json.Null -> default_tier
        | Json.String t when t <> "" && t <> "all" -> t
        | Json.String _ -> failwith (Printf.sprintf "entry %S: invalid tier" id)
        | _ -> failwith (Printf.sprintf "entry %S: tier must be a string" id)
      in
      let overrides =
        List.filter (fun (k, _) -> k <> "id" && k <> "tier") (Json.to_assoc ej)
      in
      match Runtime.Config.of_json ~base:defaults (Json.Assoc overrides) with
      | Ok config -> { id; tier; config }
      | Error msg -> failwith (Printf.sprintf "entry %S: %s" id msg)
    in
    let entries = List.map entry (Json.to_list (Json.member "entries" j)) in
    if entries = [] then failwith "manifest has no entries";
    let seen = Hashtbl.create 16 in
    List.iter
      (fun e ->
        if Hashtbl.mem seen e.id then failwith (Printf.sprintf "duplicate entry id %S" e.id);
        Hashtbl.add seen e.id ())
      entries;
    Ok entries
  with
  | Failure msg -> Error msg
  | Json.Type_error msg -> Error msg

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> (
      match Json.parse contents with
      | Ok j -> (
          match of_manifest j with
          | Ok entries -> Ok entries
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  | exception Sys_error msg -> Error msg

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let save path entries =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Json.render (to_manifest entries)))
