(* The hazard-pointer family: property tests of the real Parallel.Hp
   against a reference model, the simulated reclaimer's registry coverage,
   and the registry-vs-CLI enumeration contract.

   The Hp properties drive a single handle deterministically (handles are
   per-domain, so a sequential driver is the honest unit harness; the
   cross-domain races live in the simcheck par/hp scenarios): whatever the
   op sequence, retirement counts are conserved, a scan is idempotent
   until the protected set changes, and the published slots always equal a
   trivial reference model. *)

(* --- generators -------------------------------------------------------- *)

(* An op sequence over one handle: values are kept in a small range so
   protect/retire collisions actually happen. *)
type hp_op = Retire of int | Scan | Protect of int * int | Clear of int | Clear_all

let slots = 3

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun v -> Retire v) (int_range 0 15));
        (2, return Scan);
        (3, map2 (fun s v -> Protect (s, v)) (int_range 0 (slots - 1)) (int_range 0 15));
        (2, map (fun s -> Clear s) (int_range 0 (slots - 1)));
        (1, return Clear_all);
      ])

let print_op = function
  | Retire v -> Printf.sprintf "Retire %d" v
  | Scan -> "Scan"
  | Protect (s, v) -> Printf.sprintf "Protect (%d, %d)" s v
  | Clear s -> Printf.sprintf "Clear %d" s
  | Clear_all -> "Clear_all"

let ops_arb mode_name =
  QCheck.make
    ~print:(fun l -> mode_name ^ ": [" ^ String.concat "; " (List.map print_op l) ^ "]")
    QCheck.Gen.(list_size (int_range 0 60) op_gen)

let make_hp mode =
  let t = Parallel.Hp.create ~mode ~scan_threshold:4 ~slots_per_domain:slots ~max_domains:1 () in
  (t, Parallel.Hp.register t)

let apply h released op =
  match op with
  | Retire v -> Parallel.Hp.retire h ~value:v (fun () -> incr released)
  | Scan -> Parallel.Hp.scan_now h
  | Protect (s, v) -> Parallel.Hp.protect h ~slot:s v
  | Clear s -> Parallel.Hp.clear h ~slot:s
  | Clear_all -> Parallel.Hp.clear_all h

(* Conservation: at every step, retirements = release callbacks run +
   entries still pending; a final flush returns every callback. *)
let prop_conservation mode =
  QCheck.Test.make ~count:300 ~name:("hp conservation " ^ fst mode) (ops_arb (fst mode))
    (fun ops ->
      let _, h = make_hp (snd mode) in
      let released = ref 0 in
      List.for_all
        (fun op ->
          apply h released op;
          Parallel.Hp.retired h = !released + Parallel.Hp.pending h
          && Parallel.Hp.released h = !released)
        ops
      &&
      (Parallel.Hp.flush_unsafe h;
       Parallel.Hp.pending h = 0 && Parallel.Hp.retired h = !released))

(* Scan idempotence: with the protected set unchanged, a second scan
   releases nothing further and leaves the same entries pending. *)
let prop_scan_idempotent mode =
  QCheck.Test.make ~count:300 ~name:("hp scan idempotent " ^ fst mode) (ops_arb (fst mode))
    (fun ops ->
      let _, h = make_hp (snd mode) in
      let released = ref 0 in
      List.iter (apply h released) ops;
      Parallel.Hp.scan_now h;
      let r1 = Parallel.Hp.released h and p1 = Parallel.Hp.pending h in
      Parallel.Hp.scan_now h;
      Parallel.Hp.released h = r1 && Parallel.Hp.pending h = p1)

(* Protect/clear slot reuse: the published slots always equal a reference
   model (an option per slot), through any overwrite/clear sequence. *)
let prop_slots_vs_model mode =
  QCheck.Test.make ~count:300 ~name:("hp slots vs model " ^ fst mode) (ops_arb (fst mode))
    (fun ops ->
      let t, h = make_hp (snd mode) in
      let model = Array.make slots None in
      let released = ref 0 in
      List.for_all
        (fun op ->
          apply h released op;
          (match op with
          | Protect (s, v) -> model.(s) <- Some v
          | Clear s -> model.(s) <- None
          | Clear_all -> Array.fill model 0 slots None
          | Retire _ | Scan -> ());
          let expected = Array.to_list model |> List.filter_map Fun.id in
          Parallel.Hp.protected_values t = expected
          && List.for_all (fun v -> Parallel.Hp.is_protected t v = List.mem v expected)
               (List.init 16 Fun.id))
        ops)

(* A protected value survives any number of scans; releasing it is exactly
   one clear + scan away. *)
let test_protected_value_pinned () =
  let _, h = make_hp (Parallel.Hp.Batch : Parallel.Hp.mode) in
  let released = ref 0 in
  Parallel.Hp.protect h ~slot:0 7;
  Parallel.Hp.retire h ~value:7 (fun () -> incr released);
  for _ = 1 to 5 do
    Parallel.Hp.scan_now h
  done;
  Alcotest.(check int) "pinned while published" 0 !released;
  Alcotest.(check int) "still pending" 1 (Parallel.Hp.pending h);
  Parallel.Hp.clear h ~slot:0;
  Parallel.Hp.scan_now h;
  Alcotest.(check int) "released once unpublished" 1 !released

(* --- registry coverage ------------------------------------------------- *)

(* The unknown-name error must teach: it lists every valid name. *)
let test_unknown_name_error () =
  let ctx, _ = Helpers.make_ctx () in
  match Smr.Smr_registry.make "no-such-reclaimer" ctx with
  | _ -> Alcotest.fail "unknown name did not raise"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the culprit" true (Helpers.contains msg "no-such-reclaimer");
      List.iter
        (fun name ->
          Alcotest.(check bool) ("error lists " ^ name) true (Helpers.contains msg name))
        Smr.Smr_registry.names

(* Every registered name (and its _af variant) survives a Config JSON
   round-trip: what `epochs list` advertises, a results file can carry. *)
let test_config_roundtrip_all_names () =
  List.iter
    (fun smr ->
      let cfg = { Runtime.Config.default with Runtime.Config.smr } in
      match Runtime.Config.of_json (Runtime.Config.to_json cfg) with
      | Ok cfg' -> Alcotest.(check string) ("round-trip " ^ smr) smr cfg'.Runtime.Config.smr
      | Error e -> Alcotest.failf "%s: round-trip failed: %s" smr e)
    (Smr.Smr_registry.names @ List.map (fun n -> n ^ "_af") Smr.Smr_registry.names)

(* Exhaustive registry x allocator smoke: every reclaimer completes a tiny
   validated trial under every allocator model, and the trial digest is
   reproducible (the determinism contract, per pair). *)
let test_registry_allocator_matrix () =
  List.iter
    (fun alloc ->
      List.iter
        (fun smr ->
          let cfg =
            {
              Runtime.Config.default with
              Runtime.Config.ds = "list";
              smr;
              alloc;
              threads = 3;
              key_range = 64;
              warmup_ns = 200_000;
              duration_ns = 800_000;
              grace_ns = 800_000;
              seed = 9;
              trials = 1;
              validate = smr <> "unsafe-immediate";
            }
          in
          let label = smr ^ " x " ^ alloc in
          let t1 = Runtime.Runner.run_trial cfg ~seed:9 in
          let t2 = Runtime.Runner.run_trial cfg ~seed:9 in
          Alcotest.(check bool) (label ^ ": ops ran") true (t1.Runtime.Trial.ops > 0);
          Alcotest.(check string)
            (label ^ ": digest reproducible")
            (Runtime.Trial.digest t1) (Runtime.Trial.digest t2))
        Smr.Smr_registry.names)
    Alloc.Registry.names

(* --- registry vs CLI enumeration --------------------------------------- *)

(* The CLIs enumerate from the registry (`epochs list` / `--smr all`,
   `simcheck list`); this pins the contract those paths rely on: names are
   unique, documented, constructible in both policy modes, and every sim
   scenario's reclaimer resolves through the registry. *)
let test_registry_enumeration_contract () =
  let names = Smr.Smr_registry.names in
  Alcotest.(check int)
    "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun name ->
      (match Smr.Smr_registry.describe name with
      | Some doc -> Alcotest.(check bool) (name ^ " documented") true (String.length doc > 0)
      | None -> Alcotest.failf "%s has no description" name);
      (* A reclaimer names itself by its registry base name whatever the
         free policy: the [_af] suffix selects the policy, not the scheme. *)
      List.iter
        (fun mode ->
          let ctx, _ = Helpers.make_ctx ~mode () in
          let smr = Smr.Smr_registry.make name ctx in
          Alcotest.(check string)
            (Printf.sprintf "%s self-names (%s)" name (Smr.Free_policy.mode_name mode))
            name smr.Smr.Smr_intf.name)
        [ Smr.Free_policy.Batch; Smr.Free_policy.Amortized 1 ])
    names;
  List.iter
    (fun (s : Check.Scenario.t) ->
      match String.index_opt s.Check.Scenario.name '/' with
      (* sim/churn/* names describe lifecycle behaviors (token-holder,
         list-rolling, ...), not reclaimers, so they are exempt from the
         last-segment-resolves-via-registry convention. *)
      | Some _
        when String.length s.Check.Scenario.name > 10
             && String.sub s.Check.Scenario.name 0 10 = "sim/churn/" ->
          ()
      | Some _ when String.length s.Check.Scenario.name > 4 && String.sub s.Check.Scenario.name 0 4 = "sim/" -> (
          match String.rindex_opt s.Check.Scenario.name '/' with
          | Some i ->
              let smr_name =
                String.sub s.Check.Scenario.name (i + 1)
                  (String.length s.Check.Scenario.name - i - 1)
              in
              let base =
                match Filename.chop_suffix_opt ~suffix:"_af" smr_name with
                | Some b -> b
                | None -> smr_name
              in
              Alcotest.(check bool)
                (s.Check.Scenario.name ^ " resolves via registry")
                true (List.mem base names)
          | None -> ())
      | _ -> ())
    Check.Scenario.all

let suite =
  ( "hazard",
    [
      QCheck_alcotest.to_alcotest (prop_conservation ("batch", Parallel.Hp.Batch));
      QCheck_alcotest.to_alcotest (prop_conservation ("af", Parallel.Hp.Amortized 2));
      QCheck_alcotest.to_alcotest (prop_scan_idempotent ("batch", Parallel.Hp.Batch));
      QCheck_alcotest.to_alcotest (prop_scan_idempotent ("af", Parallel.Hp.Amortized 2));
      QCheck_alcotest.to_alcotest (prop_slots_vs_model ("batch", Parallel.Hp.Batch));
      QCheck_alcotest.to_alcotest (prop_slots_vs_model ("af", Parallel.Hp.Amortized 2));
      Helpers.quick "protected_value_pinned" test_protected_value_pinned;
      Helpers.quick "unknown_name_error" test_unknown_name_error;
      Helpers.quick "config_roundtrip_all_names" test_config_roundtrip_all_names;
      Helpers.quick "registry_allocator_matrix" test_registry_allocator_matrix;
      Helpers.quick "registry_enumeration_contract" test_registry_enumeration_contract;
    ] )
