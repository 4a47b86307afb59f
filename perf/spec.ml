(* BENCHMARK.json is the one source of truth for workload names, metric
   names, units, directions and regression bounds. The runner refuses to
   print a metric set that differs from it, and [compare] judges with its
   bounds, so the two can never drift apart. *)

type metric = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  bound : float option;  (** end-to-end metrics only: allowed worsening, as a share *)
}

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let path ~root = Filename.concat root "BENCHMARK.json"

let metric j =
  let str k = Json.to_string (Json.member k j) in
  {
    name = str "name";
    unit_ = str "unit";
    higher_is_better =
      (match str "better" with
      | "higher" -> true
      | "lower" -> false
      | s -> raise (Json.Type_error (Printf.sprintf "better must be higher or lower, got %S" s)));
    bound = (match Json.member "bound" j with Json.Null -> None | b -> Some (Json.to_float b));
  }

let load ~root =
  let file = path ~root in
  match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)
  | Ok j -> (
      let list k = Json.to_list (Json.member k j) in
      try
        {
          run_seconds = Json.to_int (Json.member "run_seconds" j);
          workloads = List.map (fun w -> Json.to_string (Json.member "name" w)) (list "workloads");
          end_to_end = List.map metric (list "end_to_end");
          per_layer = List.map metric (list "per_layer");
        }
      with Json.Type_error e -> failwith (Printf.sprintf "%s: %s" file e))
