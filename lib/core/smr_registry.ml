(* Reclaimers by name: the ten algorithms of the paper's evaluation, the
   Token-EBR development variants, the genuine hazard-pointer reclaimer and
   the leaky/unsafe baselines. A "<name>_af" suffix selects the
   amortized-free variant of any algorithm; the policy itself is
   constructed by the caller (the runtime), so this module only maps names
   to constructors.

   The table below is the single source of truth: [names], [make] and the
   unknown-name error all derive from it, so a new reclaimer is registered
   in exactly one place (adding it here puts it in `epochs list`,
   `epochs sweep --smr all`, `simcheck list` and the exhaustive
   registry-coverage tests automatically). *)

type params = { token_period : int; buffer_size : int; debra_check_every : int }

let table : (string * string * (params -> Smr_intf.ctx -> Smr_intf.t)) list =
  [
    ( "token",
      "Token-EBR, periodic token passing (the paper's algorithm)",
      fun p ctx -> Token_ebr.make ~variant:(Token_ebr.Periodic p.token_period) ctx );
    ( "debra",
      "epoch-based with limbo-bag rotation (Brown)",
      fun p -> Epoch_based.debra ~check_every:p.debra_check_every );
    ( "he",
      "hazard eras cost model (Ramalhete & Correia)",
      fun p -> Buffered.he ~buffer_size:p.buffer_size );
    ( "hp",
      "hazard pointers cost model in the buffered family (Michael)",
      fun p -> Buffered.hp ~buffer_size:p.buffer_size );
    ( "ibr",
      "interval-based reclamation cost model (2GE-IBR, Wen et al.)",
      fun p -> Buffered.ibr ~buffer_size:p.buffer_size );
    ( "nbr",
      "neutralization-based reclamation cost model (Singh et al.)",
      fun p -> Buffered.nbr ~buffer_size:p.buffer_size );
    ( "nbr+",
      "NBR with published reservations",
      fun p -> Buffered.nbr_plus ~buffer_size:p.buffer_size );
    ("qsbr", "quiescent-state-based reclamation", fun _ -> Epoch_based.qsbr);
    ( "rcu",
      "RCU in the style of Hart et al.",
      fun p -> Buffered.rcu ~buffer_size:p.buffer_size );
    ( "wfe",
      "wait-free eras cost model (Nikolaev & Ravindran)",
      fun p -> Buffered.wfe ~buffer_size:p.buffer_size );
    ( "hazard",
      "genuine hazard pointers: per-object frees at slot scans",
      fun p -> Hazard.make ~scan_threshold:p.buffer_size );
    ("none", "leak everything (the paper's false upper bound)", fun _ -> None_smr.make);
    ( "token-naive",
      "Token-EBR development variant: advance on every hop",
      fun _ ctx -> Token_ebr.make ~variant:Token_ebr.Naive ctx );
    ( "token-passfirst",
      "Token-EBR development variant: pass before checking",
      fun _ ctx -> Token_ebr.make ~variant:Token_ebr.Pass_first ctx );
    ( "hyaline",
      "Hyaline cost model: reference-counted batch handoff",
      fun p -> Buffered.hyaline ~buffer_size:p.buffer_size );
    ( "unsafe-immediate",
      "free at retire, no grace period (validator demo)",
      fun _ -> None_smr.unsafe_immediate );
  ]

let names = List.map (fun (name, _, _) -> name) table
let describe name = List.find_map (fun (n, doc, _) -> if n = name then Some doc else None) table

(* Strip a trailing "_af" and report whether it was present. *)
let parse name =
  match Filename.chop_suffix_opt ~suffix:"_af" name with
  | Some base -> (base, true)
  | None -> (name, false)

let make ?(token_period = 100) ?(buffer_size = 384) ?(debra_check_every = 3) name ctx =
  match List.find_opt (fun (n, _, _) -> n = name) table with
  | Some (_, _, mk) -> mk { token_period; buffer_size; debra_check_every } ctx
  | None ->
      invalid_arg
        (Printf.sprintf
           "Smr_registry.make: unknown reclaimer %S (valid names, each also accepting an _af \
            suffix: %s)"
           name (String.concat ", " names))
