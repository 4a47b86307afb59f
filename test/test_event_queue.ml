(* The tournament tree against two references, on traces that keep the
   scheduler's discipline (a push goes to a free slot, a re-key or a
   remove to a queued one, keys never fall below the last dispatched key,
   sequence numbers strictly increase). The binary heap must pop the same
   slots on push/pop traces; it cannot re-key, so a per-slot linear scan
   checks traces that also re-key, remove and read the root in place. The
   unit cases pin ties, the loud failures and the empty pop; the QCheck
   properties drive random traces whose slots grow the tree past its
   initial capacity. *)

open Simcore

let tree () = Event_queue.create ~kind:Event_queue.Tree ~dummy:(-1)

let drain q =
  let rec go acc =
    let s = Event_queue.pop_le_default q ~bound:max_int in
    if s < 0 then List.rev acc else go (s :: acc)
  in
  go []

let failure_of f = match f () with () -> "" | exception Failure msg -> msg

let test_fifo_ties () =
  let q = tree () in
  List.iteri (fun seq slot -> Event_queue.push q ~key:7777 ~seq slot) [ 5; 2; 9; 0 ];
  Alcotest.(check (list int)) "seq order on equal keys" [ 5; 2; 9; 0 ] (drain q)

let test_occupied_slot_raises () =
  let q = tree () in
  Event_queue.push q ~key:100 ~seq:1 3;
  let msg = failure_of (fun () -> Event_queue.push q ~key:200 ~seq:2 3) in
  Alcotest.(check bool) "error names the slot" true (Helpers.contains msg "slot 3");
  Alcotest.(check (list int)) "first event kept" [ 3 ] (drain q)

let test_clock_regression_raises () =
  let q = tree () in
  Event_queue.push q ~key:1000 ~seq:0 0;
  Alcotest.(check int) "pop" 0 (Event_queue.pop_le_default q ~bound:max_int);
  let msg = failure_of (fun () -> Event_queue.push q ~key:500 ~seq:1 1) in
  Alcotest.(check bool) "error names the regressing key" true (Helpers.contains msg "key 500")

let test_rekey_and_remove_free_slot_raise () =
  let q = tree () in
  Event_queue.push q ~key:100 ~seq:1 2;
  let rekey = failure_of (fun () -> ignore (Event_queue.rekey q ~key:200 ~seq:2 5 : int)) in
  let remove = failure_of (fun () -> Event_queue.remove q 6) in
  let beyond = failure_of (fun () -> Event_queue.remove q 1000) in
  Alcotest.(check bool) "re-key names the slot" true (Helpers.contains rekey "slot 5");
  Alcotest.(check bool) "remove names the slot" true (Helpers.contains remove "slot 6");
  Alcotest.(check bool) "beyond capacity" true (Helpers.contains beyond "slot 1000");
  Event_queue.remove q 2;
  let twice = failure_of (fun () -> Event_queue.remove q 2) in
  Alcotest.(check bool) "a removed slot is free" true (Helpers.contains twice "slot 2");
  Alcotest.(check (list int)) "nothing left" [] (drain q)

let test_rekey_regression_raises () =
  let q = tree () in
  Event_queue.push q ~key:1000 ~seq:0 0;
  Event_queue.push q ~key:2000 ~seq:1 1;
  Alcotest.(check int) "peek dispatches" 0 (Event_queue.peek_le_default q ~bound:max_int);
  let msg = failure_of (fun () -> ignore (Event_queue.rekey q ~key:999 ~seq:2 1 : int)) in
  Alcotest.(check bool) "error names the regressing key" true (Helpers.contains msg "key 999");
  Alcotest.(check int) "re-key to the floor" 0 (Event_queue.rekey q ~key:1000 ~seq:3 1);
  Alcotest.(check (list int)) "failed re-key left the slot" [ 0; 1 ] (drain q)

let test_rekey_returns_root () =
  let q = tree () in
  List.iteri (fun seq slot -> Event_queue.push q ~key:(100 * (slot + 1)) ~seq slot) [ 0; 1; 2 ];
  Alcotest.(check int) "root" 0 (Event_queue.peek_le_default q ~bound:100);
  Alcotest.(check int) "peek leaves the root in place" 0
    (Event_queue.peek_le_default q ~bound:100);
  Alcotest.(check int) "still first below the others" 0 (Event_queue.rekey q ~key:150 ~seq:3 0);
  Alcotest.(check int) "an equal key with a later seq loses" 1
    (Event_queue.rekey q ~key:200 ~seq:4 0);
  Alcotest.(check int) "not yet due" (-1) (Event_queue.peek_le_default q ~bound:199);
  Alcotest.(check (list int)) "order" [ 1; 0; 2 ] (drain q)

let test_empty_pop_returns_dummy () =
  let q = tree () in
  Alcotest.(check int) "fresh" (-1) (Event_queue.pop_le_default q ~bound:max_int);
  Event_queue.push q ~key:10 ~seq:0 4;
  Alcotest.(check int) "not yet due" (-1) (Event_queue.pop_le_default q ~bound:9);
  Alcotest.(check int) "due" 4 (Event_queue.pop_le_default q ~bound:10);
  Alcotest.(check int) "drained" (-1) (Event_queue.pop_le_default q ~bound:max_int)

(* An instruction is (op, a, b). A push goes to the first free slot at or
   after [a mod slots], keyed [floor + delta b] where [floor] is the last
   popped key, so the discipline holds by construction; a quarter of the
   deltas are 0 and another quarter below 8, so equal keys are common.
   Pops and probes take a bound of [max_int] or [floor + delta b]. *)
let trace_matches (slots, instrs) =
  let q = tree () and h = Heap.create ~dummy:(-1) in
  let queued = Array.make slots false and keys = Array.make slots 0 in
  let seq = ref 0 and floor = ref 0 and ok = ref true in
  let delta b = match b mod 4 with 0 -> 0 | 1 -> b mod 8 | 2 -> b * 37 | _ -> b * 100_003 in
  let rec free s n = if n = 0 || not queued.(s) then s else free ((s + 1) mod slots) (n - 1) in
  List.iter
    (fun (op, a, b) ->
      match op mod 3 with
      | 0 ->
          let s = free (a mod slots) slots in
          if not queued.(s) then begin
            let key = !floor + delta b in
            incr seq;
            queued.(s) <- true;
            keys.(s) <- key;
            Event_queue.push q ~key ~seq:!seq s;
            Heap.push h ~key ~seq:!seq s
          end
      | 1 ->
          let bound = if a mod 2 = 0 then max_int else !floor + delta b in
          let s = Event_queue.pop_le_default q ~bound in
          if s <> Heap.pop_le_default h ~bound then ok := false;
          if s >= 0 then begin
            queued.(s) <- false;
            floor := keys.(s)
          end
      | _ ->
          let bound = !floor + delta b in
          if Event_queue.has_le q ~bound <> Heap.has_le h ~bound then ok := false)
    instrs;
  let rec drain_heap acc =
    let s = Heap.pop_le_default h ~bound:max_int in
    if s < 0 then List.rev acc else drain_heap (s :: acc)
  in
  !ok && drain q = drain_heap []

let prop_matches_heap =
  Helpers.prop ~count:300 "tree matches heap on one-event-per-slot traces"
    QCheck.(
      pair (int_range 1 300)
        (list_of_size Gen.(int_range 0 200)
           (triple (int_bound 1000) (int_bound 1000) (int_bound 1000))))
    trace_matches

(* The same instructions, with three more operations: read the root in
   place (which, like a pop, sets the floor), re-key a queued slot to
   [floor + delta b] (up or down), and remove a queued slot. The model
   keeps each slot's (key, seq) and finds the minimum by a linear scan;
   every re-key's returned root is checked against it too. *)
let trace_matches_model (slots, instrs) =
  let q = tree () in
  let queued = Array.make slots false
  and keys = Array.make slots 0
  and seqs = Array.make slots 0 in
  let seq = ref 0 and floor = ref 0 and ok = ref true in
  let delta b = match b mod 4 with 0 -> 0 | 1 -> b mod 8 | 2 -> b * 37 | _ -> b * 100_003 in
  let rec find want s n =
    if n = 0 || queued.(s) = want then s else find want ((s + 1) mod slots) (n - 1)
  in
  let model_min () =
    let best = ref (-1) in
    for s = 0 to slots - 1 do
      if
        queued.(s)
        && (!best < 0
           || keys.(s) < keys.(!best)
           || (keys.(s) = keys.(!best) && seqs.(s) < seqs.(!best)))
      then best := s
    done;
    !best
  in
  let model_due bound =
    let m = model_min () in
    if m >= 0 && keys.(m) <= bound then m else -1
  in
  let set s key =
    incr seq;
    queued.(s) <- true;
    keys.(s) <- key;
    seqs.(s) <- !seq
  in
  let expect got want = if got <> want then ok := false in
  List.iter
    (fun (op, a, b) ->
      let bound = if a mod 2 = 0 then max_int else !floor + delta b in
      match op mod 6 with
      | 0 ->
          let s = find false (a mod slots) slots in
          if not queued.(s) then begin
            set s (!floor + delta b);
            Event_queue.push q ~key:keys.(s) ~seq:!seq s
          end
      | 1 ->
          let s = Event_queue.pop_le_default q ~bound in
          expect s (model_due bound);
          if s >= 0 then begin
            queued.(s) <- false;
            floor := keys.(s)
          end
      | 2 ->
          let s = Event_queue.peek_le_default q ~bound in
          expect s (model_due bound);
          if s >= 0 then floor := keys.(s)
      | 3 ->
          let s = find true (a mod slots) slots in
          if queued.(s) then begin
            set s (!floor + delta b);
            expect (Event_queue.rekey q ~key:keys.(s) ~seq:!seq s) (model_min ())
          end
      | 4 ->
          let s = find true (a mod slots) slots in
          if queued.(s) then begin
            queued.(s) <- false;
            Event_queue.remove q s
          end
      | _ ->
          let bound = !floor + delta b in
          expect (Bool.to_int (Event_queue.has_le q ~bound)) (Bool.to_int (model_due bound >= 0)))
    instrs;
  let rec drain_model acc =
    let s = model_min () in
    if s < 0 then List.rev acc
    else begin
      queued.(s) <- false;
      drain_model (s :: acc)
    end
  in
  !ok && drain q = drain_model []

let prop_matches_model =
  Helpers.prop ~count:300 "tree matches a linear scan on traces that re-key and remove"
    QCheck.(
      pair (int_range 1 300)
        (list_of_size Gen.(int_range 0 300)
           (triple (int_bound 1000) (int_bound 1000) (int_bound 1000))))
    trace_matches_model

let suite =
  ( "event_queue",
    [
      Helpers.quick "fifo_ties" test_fifo_ties;
      Helpers.quick "occupied_slot_raises" test_occupied_slot_raises;
      Helpers.quick "clock_regression_raises" test_clock_regression_raises;
      Helpers.quick "empty_pop_returns_dummy" test_empty_pop_returns_dummy;
      Helpers.quick "rekey_and_remove_free_slot_raise" test_rekey_and_remove_free_slot_raise;
      Helpers.quick "rekey_regression_raises" test_rekey_regression_raises;
      Helpers.quick "rekey_returns_root" test_rekey_returns_root;
      prop_matches_heap;
      prop_matches_model;
    ] )
