(* The -j/--jobs option of epochs, simbench and simcheck, and the integer
   converters that bound it and the binaries' other counts. A value out of
   range is a usage error (cmdliner exits 124 naming the option and the
   value) before any work starts; without the option the count comes from
   EPOCHS_JOBS, else the recommended domain count. *)

open Cmdliner

let at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= lo -> Ok n
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer >= %d" s lo))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let at_least_one = at_least 1

(* [term ~over] is the domain count to fan [over] out over. *)
let term ~over =
  let doc =
    Printf.sprintf
      "Domains to fan %s out over, at least 1. Defaults to $(b,EPOCHS_JOBS) when set, else the \
       recommended domain count. Output is bit-identical to a sequential run: parallelism \
       changes nothing but wall-clock time."
      over
  in
  let arg = Arg.(value & opt (some at_least_one) None & info [ "j"; "jobs" ] ~docv:"N" ~doc) in
  Term.(const (function Some j -> j | None -> Runtime.Pool.default_jobs ()) $ arg)
