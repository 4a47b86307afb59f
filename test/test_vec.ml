open Simcore

let test_push_pop () =
  let v = Vec.create () in
  Alcotest.(check bool) "fresh vec is empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  for i = 99 downto 0 do
    Alcotest.(check int) "pop order" i (Vec.pop v)
  done;
  Alcotest.(check bool) "empty after pops" true (Vec.is_empty v)

let test_get_set () =
  let v = Vec.of_list [ 10; 20; 30 ] in
  Alcotest.(check int) "get" 20 (Vec.get v 1);
  Vec.set v 1 99;
  Alcotest.(check int) "set" 99 (Vec.get v 1);
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get: out of bounds")
    (fun () -> ignore (Vec.get v 3))

let test_take_front () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5 ] in
  let taken = Vec.take_front v 3 in
  Alcotest.(check (array int)) "oldest first" [| 1; 2; 3 |] taken;
  Alcotest.(check (list int)) "remainder shifted" [ 4; 5 ] (Vec.to_list v)

let test_take_front_overshoot () =
  let v = Vec.of_list [ 1; 2 ] in
  let taken = Vec.take_front v 10 in
  Alcotest.(check (array int)) "capped at length" [| 1; 2 |] taken;
  Alcotest.(check bool) "emptied" true (Vec.is_empty v)

let test_drop_front () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5 ] in
  Vec.drop_front v 3;
  Alcotest.(check (list int)) "remainder shifted" [ 4; 5 ] (Vec.to_list v)

let test_drop_front_overshoot () =
  let v = Vec.of_list [ 1; 2 ] in
  Vec.drop_front v 10;
  Alcotest.(check bool) "emptied" true (Vec.is_empty v);
  Vec.push v 7;
  Alcotest.(check (list int)) "still usable" [ 7 ] (Vec.to_list v)

let test_take_last () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  let taken = Vec.take_last v 2 in
  Alcotest.(check (array int)) "newest kept in order" [| 3; 4 |] taken;
  Alcotest.(check (list int)) "front remains" [ 1; 2 ] (Vec.to_list v)

let test_append () =
  let a = Vec.of_list [ 1; 2 ] and b = Vec.of_list [ 3; 4; 5 ] in
  Vec.append a b;
  Alcotest.(check (list int)) "appended" [ 1; 2; 3; 4; 5 ] (Vec.to_list a);
  Alcotest.(check (list int)) "source untouched" [ 3; 4; 5 ] (Vec.to_list b)

let test_iter_fold () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  let sum = ref 0 in
  Vec.iter (fun x -> sum := !sum + x) v;
  Alcotest.(check int) "iter sum" 6 !sum;
  Alcotest.(check int) "fold sum" 6 (Vec.fold ( + ) 0 v)

let test_clear_reuse () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push v 42;
  Alcotest.(check int) "reusable" 42 (Vec.get v 0)

let test_poly () =
  let v = Vec.Poly.create ~dummy:"" () in
  Vec.Poly.push v "a";
  Vec.Poly.push v "b";
  Alcotest.(check (list string)) "to_list" [ "a"; "b" ] (Vec.Poly.to_list v);
  Alcotest.(check string) "pop" "b" (Vec.Poly.pop v);
  Vec.Poly.set v 0 "z";
  Alcotest.(check string) "set/get" "z" (Vec.Poly.get v 0);
  Vec.Poly.clear v;
  Alcotest.(check bool) "cleared" true (Vec.Poly.is_empty v)

(* A new vector has no storage until its first push, so every operation
   must also work on one that was never pushed: removal and reads see an
   empty vector, appends into and out of it move exactly the other side. *)
let test_never_pushed () =
  let empty () = Vec.create () in
  Alcotest.check_raises "pop" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop (empty ())));
  Alcotest.check_raises "get" (Invalid_argument "Vec.get: out of bounds") (fun () ->
      ignore (Vec.get (empty ()) 0));
  let v = empty () in
  Vec.drop_front v 3;
  Alcotest.(check (array int)) "take_front" [||] (Vec.take_front v 2);
  Alcotest.(check (array int)) "take_last" [||] (Vec.take_last v 2);
  Vec.clear v;
  Alcotest.(check int) "fold" 0 (Vec.fold ( + ) 0 v);
  Alcotest.(check (list int)) "still empty" [] (Vec.to_list v);
  Vec.append v (empty ());
  Alcotest.(check int) "empty into empty" 0 (Vec.length v);
  let full = Vec.of_list [ 1; 2 ] in
  Vec.append full (empty ());
  Alcotest.(check (list int)) "empty into full" [ 1; 2 ] (Vec.to_list full);
  Vec.append v full;
  Alcotest.(check (list int)) "full into empty" [ 1; 2 ] (Vec.to_list v);
  let p = Vec.Poly.create ~dummy:"" () in
  Alcotest.check_raises "poly pop" (Invalid_argument "Vec.Poly.pop: empty") (fun () ->
      ignore (Vec.Poly.pop p));
  Vec.Poly.clear p;
  Vec.Poly.push p "a";
  Alcotest.(check (list string)) "poly push after clear" [ "a" ] (Vec.Poly.to_list p)

let prop_roundtrip =
  Helpers.prop "push then to_list roundtrips" QCheck.(list small_int) (fun l ->
      let v = Vec.create () in
      List.iter (Vec.push v) l;
      Vec.to_list v = l)

let prop_take_front_split =
  Helpers.prop "take_front splits the list"
    QCheck.(pair (list small_int) small_nat)
    (fun (l, n) ->
      let v = Vec.create () in
      List.iter (Vec.push v) l;
      let taken = Array.to_list (Vec.take_front v n) in
      let k = min n (List.length l) in
      taken = List.filteri (fun i _ -> i < k) l
      && Vec.to_list v = List.filteri (fun i _ -> i >= k) l)

let prop_drop_front_matches_take_front =
  Helpers.prop "drop_front = take_front minus the copy"
    QCheck.(pair (list small_int) small_nat)
    (fun (l, n) ->
      let a = Vec.create () and b = Vec.create () in
      List.iter (Vec.push a) l;
      List.iter (Vec.push b) l;
      ignore (Vec.take_front a n);
      Vec.drop_front b n;
      Vec.to_list a = Vec.to_list b)

let suite =
  ( "vec",
    [
      Helpers.quick "push_pop" test_push_pop;
      Helpers.quick "get_set" test_get_set;
      Helpers.quick "take_front" test_take_front;
      Helpers.quick "take_front_overshoot" test_take_front_overshoot;
      Helpers.quick "drop_front" test_drop_front;
      Helpers.quick "drop_front_overshoot" test_drop_front_overshoot;
      Helpers.quick "take_last" test_take_last;
      Helpers.quick "append" test_append;
      Helpers.quick "iter_fold" test_iter_fold;
      Helpers.quick "clear_reuse" test_clear_reuse;
      Helpers.quick "poly" test_poly;
      Helpers.quick "never_pushed" test_never_pushed;
      prop_roundtrip;
      prop_take_front_split;
      prop_drop_front_matches_take_front;
    ] )
