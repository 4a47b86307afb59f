(* Golden baseline records. See baseline.mli. *)

type result = {
  id : string;
  seed : int;
  digest : string;
  metrics : (string * Json.t) list;
}

let schema_version = 1

let of_trial ~id (t : Runtime.Trial.t) =
  {
    id;
    seed = t.Runtime.Trial.seed;
    digest = Runtime.Trial.digest t;
    metrics =
      [
        ("throughput", Json.Float t.Runtime.Trial.throughput);
        ("ops", Json.Int t.Runtime.Trial.ops);
        ("freed", Json.Int t.Runtime.Trial.freed);
        ("retired", Json.Int t.Runtime.Trial.retired);
        ("allocs", Json.Int t.Runtime.Trial.allocs);
        ("epochs", Json.Int t.Runtime.Trial.epochs);
        ("remote_frees", Json.Int t.Runtime.Trial.remote_frees);
        ("flushes", Json.Int t.Runtime.Trial.flushes);
        ("end_garbage", Json.Int t.Runtime.Trial.end_garbage);
        ("peak_epoch_garbage", Json.Int t.Runtime.Trial.peak_epoch_garbage);
        ("avg_epoch_garbage", Json.Float t.Runtime.Trial.avg_epoch_garbage);
        ("peak_mapped_bytes", Json.Int t.Runtime.Trial.peak_mapped_bytes);
        ("peak_live_bytes", Json.Int t.Runtime.Trial.peak_live_bytes);
        ("final_size", Json.Int t.Runtime.Trial.final_size);
        ("pct_free", Json.Float t.Runtime.Trial.pct_free);
        ("pct_flush", Json.Float t.Runtime.Trial.pct_flush);
        ("pct_lock", Json.Float t.Runtime.Trial.pct_lock);
        ("pct_ds", Json.Float t.Runtime.Trial.pct_ds);
        ("op_p50", Json.Int (Runtime.Trial.op_p t 50.));
        ("op_p99", Json.Int (Runtime.Trial.op_p t 99.));
        ("op_p999", Json.Int (Runtime.Trial.op_p t 99.9));
        ("violations", Json.Int t.Runtime.Trial.violations);
      ];
  }

let metric r name =
  match List.assoc_opt name r.metrics with
  | Some v -> ( try Some (Json.to_float v) with Json.Type_error _ -> None)
  | None -> None

let to_json r =
  Json.Assoc
    [
      ("schema_version", Json.Int schema_version);
      ("id", Json.String r.id);
      ("seed", Json.Int r.seed);
      ("digest", Json.String r.digest);
      ("metrics", Json.Assoc r.metrics);
    ]

let of_json j =
  try
    (match Json.member "schema_version" j with
    | Json.Int v when v = schema_version -> ()
    | Json.Int v ->
        failwith
          (Printf.sprintf "schema_version %d does not match supported version %d (re-bless?)" v
             schema_version)
    | _ -> failwith "missing schema_version");
    let id = Json.to_string (Json.member "id" j) in
    if id = "" then failwith "empty id";
    Ok
      {
        id;
        seed = Json.to_int (Json.member "seed" j);
        digest = Json.to_string (Json.member "digest" j);
        metrics = Json.to_assoc (Json.member "metrics" j);
      }
  with
  | Failure msg -> Error msg
  | Json.Type_error msg -> Error msg

let path ~dir id = Filename.concat dir (id ^ ".json")

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let save ~dir r =
  mkdir_p dir;
  Out_channel.with_open_bin (path ~dir r.id) (fun oc ->
      Out_channel.output_string oc (Json.render (to_json r)))

let load ~dir id =
  let file = path ~dir id in
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error _ ->
      Error (Printf.sprintf "%s: missing baseline (run `simbench bless` to create it)" file)
  | contents -> (
      match Json.parse contents with
      | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
      | Ok j -> (
          match of_json j with
          | Ok r when r.id <> id -> Error (Printf.sprintf "%s: baseline id %S does not match file" file r.id)
          | Ok r -> Ok r
          | Error msg -> Error (Printf.sprintf "%s: %s" file msg)))
