(* The tournament tree against the heap reference: both must pop the same
   slots for any trace that keeps the scheduler's discipline (a push goes
   to a free slot, keys never fall below the last popped key, sequence
   numbers strictly increase). The unit cases pin ties, the two loud push
   failures and the empty pop; the QCheck property drives random traces
   whose slots grow the tree past its initial capacity. *)

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

let suite =
  ( "event_queue",
    [
      Helpers.quick "fifo_ties" test_fifo_ties;
      Helpers.quick "occupied_slot_raises" test_occupied_slot_raises;
      Helpers.quick "clock_regression_raises" test_clock_regression_raises;
      Helpers.quick "empty_pop_returns_dummy" test_empty_pop_returns_dummy;
      prop_matches_heap;
    ] )
