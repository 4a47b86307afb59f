(* The paper-reproduction benchmark harness.

     dune exec bench/main.exe            regenerate every table and figure
     dune exec bench/main.exe -- fig11a  just one experiment
     dune exec bench/main.exe -- list    list experiment ids
     QUICK=1 dune exec bench/main.exe    coarse, fast pass
     FULL=1  dune exec bench/main.exe    3 trials, longer windows

   Results are printed as paper-style tables and ASCII charts, with
   qualitative shape checks against the paper's reported numbers. *)

let usage () =
  print_endline "usage: main.exe [experiment-id ...] | list | smoke";
  print_endline "experiments:";
  List.iter (fun (id, _) -> Printf.printf "  %s\n" id) (Figures.all_figures @ Figures.extras)

(* The cheapest representative subset, for CI: exercises the full
   config -> runner -> figure -> shape-check pipeline in well under a
   minute with QUICK=1 (`make bench-smoke`). *)
let smoke_ids = [ "fig1" ]

let rec run_one id =
  match List.assoc_opt id (Figures.all_figures @ Figures.extras) with
  | Some f -> f ()
  | None when id = "smoke" -> List.iter run_one smoke_ids
  | None ->
      Printf.printf "unknown experiment %S\n" id;
      usage ();
      exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: [] ->
      Exp.note "Regenerating every table and figure (QUICK=%b, trials=%d, window=%dms)."
        Exp.quick Exp.trials Exp.duration_ms;
      let t0 = Unix.gettimeofday () in
      List.iter (fun (_, f) -> f ()) Figures.all_figures;
      Exp.note "\nAll experiments regenerated in %.1f minutes."
        ((Unix.gettimeofday () -. t0) /. 60.)
  | _ :: [ "list" ] -> usage ()
  | _ :: ids -> List.iter run_one ids
  | [] -> usage ()
