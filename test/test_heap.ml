(* The reference heap on its own: the oracle the event-queue property
   trusts must itself sort and break ties by sequence. *)

let drain h =
  let rec go acc =
    if Heap.has_le h ~bound:max_int then go (Heap.pop_le_default h ~bound:max_int :: acc)
    else List.rev acc
  in
  go []

let test_ordering () =
  let h = Heap.create ~dummy:0 in
  List.iteri (fun i k -> Heap.push h ~key:k ~seq:i k) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check (list int)) "min-first, stable ties" [ 1; 1; 3; 4; 5 ] (drain h)

let test_fifo_ties () =
  let h = Heap.create ~dummy:"" in
  Heap.push h ~key:7 ~seq:1 "first";
  Heap.push h ~key:7 ~seq:2 "second";
  Heap.push h ~key:7 ~seq:3 "third";
  Alcotest.(check (list string)) "insertion order on equal keys"
    [ "first"; "second"; "third" ] (drain h)

let test_peek () =
  let h = Heap.create ~dummy:0 in
  Alcotest.(check bool) "empty" false (Heap.has_le h ~bound:max_int);
  Heap.push h ~key:9 ~seq:0 9;
  Heap.push h ~key:2 ~seq:1 2;
  Alcotest.(check bool) "below min" false (Heap.has_le h ~bound:1);
  Alcotest.(check bool) "at min" true (Heap.has_le h ~bound:2);
  Alcotest.(check int) "bounded pop below min" 0 (Heap.pop_le_default h ~bound:1);
  Alcotest.(check (list int)) "nothing removed" [ 2; 9 ] (drain h)

let test_interleaved () =
  let h = Heap.create ~dummy:(-1) in
  Heap.push h ~key:3 ~seq:0 3;
  Heap.push h ~key:1 ~seq:1 1;
  Alcotest.(check int) "pop min" 1 (Heap.pop_le_default h ~bound:max_int);
  Heap.push h ~key:0 ~seq:2 0;
  Alcotest.(check int) "new min" 0 (Heap.pop_le_default h ~bound:max_int);
  Alcotest.(check int) "remaining" 3 (Heap.pop_le_default h ~bound:max_int);
  Alcotest.(check int) "empty" (-1) (Heap.pop_le_default h ~bound:max_int)

let prop_heapsort =
  Helpers.prop "pop order sorts any input" QCheck.(list small_int) (fun l ->
      let h = Heap.create ~dummy:0 in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i k) l;
      drain h = List.stable_sort compare l)

let prop_grow =
  Helpers.prop ~count:20 "growth beyond initial capacity" QCheck.(int_range 100 1000)
    (fun n ->
      let h = Heap.create ~dummy:0 in
      for i = n downto 1 do
        Heap.push h ~key:i ~seq:(n - i) i
      done;
      drain h = List.init n (fun i -> i + 1))

let suite =
  ( "heap",
    [
      Helpers.quick "ordering" test_ordering;
      Helpers.quick "fifo_ties" test_fifo_ties;
      Helpers.quick "peek" test_peek;
      Helpers.quick "interleaved" test_interleaved;
      prop_heapsort;
      prop_grow;
    ] )
