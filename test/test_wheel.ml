(* The timing wheel against the heap reference: both must produce the same
   pop sequence for any operation sequence that respects the scheduler's
   monotone-pop-key discipline (pushes never key below the last popped
   key, sequence numbers strictly increase). The unit tests pin the
   boundary cases — ties, cascade edges, far-future overflow, growth,
   clock-regression errors — and the QCheck property drives random
   monotone-safe traces with jumps spanning every wheel level. *)

open Simcore

(* Level horizons for the default granularity (9 bits, 512 ns buckets,
   256 slots per level): level 0 spans 2^17 ns, level 1 spans 2^25 ns,
   level 2 spans 2^33 ns; beyond that is the overflow list. *)
let l0_span = 1 lsl (9 + 8)
let l1_span = 1 lsl (9 + 16)
let l2_span = 1 lsl (9 + 24)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let drain_wheel w =
  let rec go acc = match Wheel.pop w with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let drain_heap h =
  let rec go acc = match Heap.pop h with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

(* Push the same (key, value) list into a wheel and a heap (seq = list
   position) and check the wheel drains in exactly the heap's order. *)
let check_against_heap name kvs =
  let w = Wheel.create ~dummy:(-1) () and h = Heap.create ~dummy:(-1) in
  List.iteri
    (fun i (key, x) ->
      Wheel.push w ~key ~seq:i x;
      Heap.push h ~key ~seq:i x)
    kvs;
  Alcotest.(check (list int)) name (drain_heap h) (drain_wheel w)

let test_ordering () =
  check_against_heap "mixed keys"
    [ (5000, 0); (100, 1); (4096, 2); (100, 3); (3000, 4); (0, 5) ]

let test_fifo_ties () =
  let w = Wheel.create ~dummy:"" () in
  Wheel.push w ~key:7777 ~seq:1 "first";
  Wheel.push w ~key:7777 ~seq:2 "second";
  Wheel.push w ~key:7777 ~seq:3 "third";
  Alcotest.(check (list string)) "insertion order on equal keys"
    [ "first"; "second"; "third" ] (drain_wheel w)

let test_cascade_boundaries () =
  (* Keys hugging each level boundary, in shuffled order: popping the
     early ones forces cascades that must preserve the total order. *)
  let keys =
    [
      l1_span + 1; l0_span - 1; l0_span; l0_span + 1; 1; l1_span - 1; l1_span;
      l2_span - 1; l2_span; l2_span + 1; 0; l0_span * 2;
    ]
  in
  check_against_heap "level boundaries" (List.mapi (fun i k -> (k, i)) keys)

let test_far_future_overflow () =
  (* Far beyond the top horizon: parked in the overflow list, must still
     come out in order after everything nearer, with overflow ties broken
     by insertion order. *)
  let keys = [ l2_span * 40; 512; l2_span * 12; 1024; l2_span * 12; 7 ] in
  check_against_heap "overflow list" (List.mapi (fun i k -> (k, i)) keys)

let test_growth () =
  (* Thousands of ties in one bucket: exercises per-bucket array growth
     far past any initial capacity. *)
  let n = 5000 in
  let w = Wheel.create ~dummy:(-1) () in
  for i = 0 to n - 1 do
    Wheel.push w ~key:42 ~seq:i i
  done;
  Alcotest.(check int) "length" n (Wheel.length w);
  Alcotest.(check (list int)) "ties drain in seq order" (List.init n Fun.id) (drain_wheel w)

let test_clock_regression_raises () =
  let w = Wheel.create ~dummy:(-1) () in
  Wheel.push w ~key:1000 ~seq:0 0;
  Alcotest.(check (option int)) "pop" (Some 0) (Wheel.pop w);
  (match Wheel.push w ~key:500 ~seq:1 1 with
  | () -> Alcotest.fail "wheel accepted a key below the last popped key"
  | exception Failure msg ->
      Alcotest.(check bool) "wheel error names the regressing key" true
        (contains_sub msg "500"));
  (* A bare heap has no monotonicity contract; [Event_queue] enables the
     check on the heap it wraps, after which a regressing push fails
     loudly. *)
  let h = Heap.create ~dummy:(-1) in
  Heap.push h ~key:1000 ~seq:0 0;
  ignore (Heap.pop h);
  Heap.push h ~key:500 ~seq:1 1;
  let h2 = Heap.create ~dummy:(-1) in
  Heap.enable_monotone_check h2;
  Heap.push h2 ~key:1000 ~seq:0 0;
  ignore (Heap.pop h2);
  match Heap.push h2 ~key:500 ~seq:1 1 with
  | () -> Alcotest.fail "checked heap accepted a key below the last popped key"
  | exception Failure msg ->
      Alcotest.(check bool) "heap error names the regressing key" true
        (contains_sub msg "500")

let test_pop_le_bounds () =
  let w = Wheel.create ~dummy:(-1) () in
  Alcotest.(check (option int)) "empty" None (Wheel.pop_le w ~bound:max_int);
  Wheel.push w ~key:1000 ~seq:0 0;
  Alcotest.(check (option int)) "below min" None (Wheel.pop_le w ~bound:999);
  Alcotest.(check int) "default sentinel" (-1) (Wheel.pop_le_default w ~bound:999);
  Alcotest.(check (option int)) "at min" (Some 0) (Wheel.pop_le w ~bound:1000);
  Wheel.push w ~key:2000 ~seq:1 1;
  Alcotest.(check int) "default hit" 1 (Wheel.pop_le_default w ~bound:3000);
  Alcotest.(check bool) "drained" true (Wheel.is_empty w)

let test_has_le_conservative () =
  (* has_le may say true for an event slightly beyond the bound but never
     false when one exists at or below it. *)
  let keys = [ 100; l0_span + 3; l1_span + 9; l2_span * 3 ] in
  let w = Wheel.create ~dummy:(-1) () in
  List.iteri (fun i k -> Wheel.push w ~key:k ~seq:i i) keys;
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "has_le at %d" k)
        true (Wheel.has_le w ~bound:k))
    keys;
  ignore (Wheel.pop w);
  Alcotest.(check bool) "popped min gone" false (Wheel.has_le w ~bound:200)

(* The property: drive a wheel and a heap with the same random
   monotone-safe trace and require identical observable behaviour. An
   instruction is (op, scale, magnitude); pushes key at [floor + delta]
   where [floor] is the last popped key, so the monotone discipline holds
   by construction, and the scale spreads deltas across all wheel levels
   so cascades, overflow parking and un-parking all get hit. *)
let trace_matches instrs =
  let w = Wheel.create ~dummy:(-1) () and h = Heap.create ~dummy:(-1) in
  Heap.enable_monotone_check h;
  let keys = Hashtbl.create 64 in
  (* seq (= value) -> key *)
  let seq = ref 0 and floor = ref 0 and ok = ref true in
  let note = function Some x -> x | None -> -1 in
  let advance_floor x = if x >= 0 then floor := max !floor (Hashtbl.find keys x) in
  List.iter
    (fun (op, scale, m) ->
      let delta =
        match scale mod 4 with
        | 0 -> m (* within a level-0 bucket or two *)
        | 1 -> m * 211 (* crosses level-0 buckets *)
        | 2 -> m * 70099 (* level 1 / level 2 *)
        | _ -> m * 17_000_017 (* level 2 / overflow *)
      in
      match op mod 4 with
      | 0 ->
          let key = !floor + delta in
          incr seq;
          Hashtbl.replace keys !seq key;
          Wheel.push w ~key ~seq:!seq !seq;
          Heap.push h ~key ~seq:!seq !seq
      | 1 ->
          let xw = note (Wheel.pop w) and xh = note (Heap.pop h) in
          if xw <> xh then ok := false;
          advance_floor xh
      | 2 ->
          let bound = !floor + delta in
          let xw = note (Wheel.pop_le w ~bound) and xh = note (Heap.pop_le h ~bound) in
          if xw <> xh then ok := false;
          advance_floor xh
      | _ ->
          (* Read-only probes: peek is exact; has_le may be conservative
             on the wheel but must never answer false when the heap (an
             exact oracle) sees an event at or below the bound. *)
          let bound = !floor + delta in
          if note (Wheel.peek_key w) <> note (Heap.peek_key h) then ok := false;
          if Heap.has_le h ~bound && not (Wheel.has_le w ~bound) then ok := false)
    instrs;
  !ok && drain_wheel w = drain_heap h

let gen_instr = QCheck.(triple (int_bound 1000) (int_bound 1000) (int_bound 2000))

let prop_matches_heap =
  Helpers.prop ~count:300 "wheel matches heap on monotone-safe traces"
    QCheck.(list_of_size Gen.(int_range 0 120) gen_instr)
    trace_matches

let prop_granularities =
  (* Pure pushes at every granularity from near-degenerate (2 ns buckets,
     maximal cascade pressure) to coarse (64 us buckets, maximal tie
     pressure): drain order is the stable sort regardless. *)
  Helpers.prop ~count:100 "pure pushes match stable sort at any granularity"
    QCheck.(pair (int_range 1 16) (list_of_size Gen.(int_range 0 80) (int_bound 100_000)))
    (fun (gbits, keys) ->
      let w = Wheel.create ~granularity_bits:gbits ~dummy:(-1) () in
      List.iteri (fun i k -> Wheel.push w ~key:k ~seq:i i) keys;
      let expect =
        List.map snd (List.stable_sort compare (List.mapi (fun i k -> (k, i)) keys))
      in
      drain_wheel w = expect)

let suite =
  ( "wheel",
    [
      Helpers.quick "ordering" test_ordering;
      Helpers.quick "fifo_ties" test_fifo_ties;
      Helpers.quick "cascade_boundaries" test_cascade_boundaries;
      Helpers.quick "far_future_overflow" test_far_future_overflow;
      Helpers.quick "growth" test_growth;
      Helpers.quick "clock_regression_raises" test_clock_regression_raises;
      Helpers.quick "pop_le_bounds" test_pop_le_bounds;
      Helpers.quick "has_le_conservative" test_has_le_conservative;
      prop_matches_heap;
      prop_granularities;
    ] )
