(* Counterexample traces.

   A schedule is fully determined by the scenario, its workload seed, and
   the list of (checkpoint index, injected stall) decisions the schedule
   controller took: everything else in the simulator is deterministic.
   That makes a failing schedule serializable as a compact seed+choices
   trace which replays bit-identically — the [outcome_digest] recorded at
   emission time must match the digest of the replayed run exactly. *)

type decision = { step : int; delay : int }

type t = {
  scenario : string;
  strategy : string;  (* strategy label the failure was found under *)
  seed : int;  (* workload seed: fixes threads' op sequences *)
  mutant : Mutant.t option;  (* seeded bug, if this is a self-test trace *)
  decisions : decision list;  (* injected stalls, by global checkpoint index *)
  failure : string;  (* oracle id of the violation being witnessed *)
  outcome_digest : string;  (* digest the replay must reproduce *)
}

let schema_version = 1

(* Canonical rendering of the choice sequence, also used as the schedule
   digest ingredient. *)
let decisions_repr decisions =
  String.concat ";"
    (List.map (fun d -> Printf.sprintf "%d:%d" d.step d.delay) decisions)

let to_json t =
  Json.Assoc
    [
      ("schema_version", Json.Int schema_version);
      ("scenario", Json.String t.scenario);
      ("strategy", Json.String t.strategy);
      ("seed", Json.Int t.seed);
      ( "mutant",
        match t.mutant with Some m -> Json.String (Mutant.to_name m) | None -> Json.Null );
      ( "decisions",
        Json.List
          (List.map (fun d -> Json.List [ Json.Int d.step; Json.Int d.delay ]) t.decisions) );
      ("failure", Json.String t.failure);
      ("outcome_digest", Json.String t.outcome_digest);
    ]

let of_json j =
  let v = Json.to_int (Json.member "schema_version" j) in
  if v <> schema_version then
    Error (Printf.sprintf "trace schema version %d, expected %d" v schema_version)
  else
    match
      {
        scenario = Json.to_string (Json.member "scenario" j);
        strategy = Json.to_string (Json.member "strategy" j);
        seed = Json.to_int (Json.member "seed" j);
        mutant =
          (match Json.member "mutant" j with
          | Json.Null -> None
          | m -> (
              let name = Json.to_string m in
              match Mutant.of_name name with
              | Some m -> Some m
              | None ->
                  raise
                    (Json.Type_error
                       (Printf.sprintf "trace names unknown mutant %S (known: %s)" name
                          (String.concat ", " Mutant.names)))));
        decisions =
          List.map
            (function
              | Json.List [ s; d ] -> { step = Json.to_int s; delay = Json.to_int d }
              | j -> raise (Json.Type_error ("expected [step, delay], got " ^ Json.type_name j)))
            (Json.to_list (Json.member "decisions" j));
        failure = Json.to_string (Json.member "failure" j);
        outcome_digest = Json.to_string (Json.member "outcome_digest" j);
      }
    with
    | t -> Ok t
    | exception Json.Type_error msg -> Error msg

let save path t =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Json.render (to_json t)))

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> (
      match Json.parse s with
      | Error msg -> Error msg
      | Ok j -> ( try of_json j with Json.Type_error msg -> Error msg))
