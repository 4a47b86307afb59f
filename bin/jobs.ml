(* The -j/--jobs option of epochs, simbench and simcheck, and the
   converters that bound it and the binaries' other numbers. A value out of
   range is a usage error (cmdliner exits 124 naming the option or the
   environment variable, and the value) before any work starts; without
   the option the count comes from EPOCHS_JOBS, read through the same
   converter, else the recommended domain count. *)

open Cmdliner

(* Surrounding blanks are ignored, as [Runtime.Pool.parse_jobs] ignores
   them in EPOCHS_JOBS. *)
let bounded conv ~ok ~expected =
  let parse s =
    match Arg.conv_parser conv (String.trim s) with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let at_least lo =
  bounded Arg.int ~ok:(fun n -> n >= lo) ~expected:(Printf.sprintf "an integer >= %d" lo)

let at_least_one = at_least 1

(* A float >= 0; NaN is refused too. *)
let non_negative = bounded Arg.float ~ok:(fun x -> x >= 0.) ~expected:"a number >= 0"

(* [term ~over] is the domain count to fan [over] out over. *)
let term ~over =
  let doc =
    Printf.sprintf
      "Domains to fan %s out over, at least 1. Defaults to $(b,EPOCHS_JOBS) when set, else the \
       recommended domain count. Output is bit-identical to a sequential run: parallelism \
       changes nothing but wall-clock time."
      over
  in
  let env = Cmd.Env.info Runtime.Pool.env_var in
  let arg = Arg.(value & opt (some at_least_one) None & info [ "j"; "jobs" ] ~env ~docv:"N" ~doc) in
  Term.(const (function Some j -> j | None -> Runtime.Pool.default_jobs ()) $ arg)
