open Simcore

let test_determinism () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same seed, same stream" (Rng.next_int a) (Rng.next_int b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.next_int a = Rng.next_int b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 5)

let test_non_negative () =
  let r = Rng.create 99 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "next_int >= 0" true (Rng.next_int r >= 0)
  done

let test_int_below () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.int_below r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Rng.int_below: bound must be positive") (fun () ->
      ignore (Rng.int_below r 0))

let test_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_float_coverage () =
  (* The stream should hit both halves of [0,1) about equally. *)
  let r = Rng.create 11 in
  let low = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.float r < 0.5 then incr low
  done;
  Alcotest.(check bool) "roughly balanced" true (!low > 4_500 && !low < 5_500)

let test_split_independence () =
  let root = Rng.create 42 in
  let a = Rng.split root and b = Rng.split root in
  let matches = ref 0 in
  for _ = 1 to 100 do
    if Rng.next_int a = Rng.next_int b then incr matches
  done;
  Alcotest.(check bool) "split streams differ" true (!matches < 5)

let test_copy () =
  let a = Rng.create 8 in
  ignore (Rng.next_int a);
  let b = Rng.copy a in
  Alcotest.(check int) "copy continues identically" (Rng.next_int a) (Rng.next_int b)

let test_bool_balance () =
  let r = Rng.create 17 in
  let t = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool r then incr t
  done;
  Alcotest.(check bool) "bool roughly balanced" true (!t > 4_500 && !t < 5_500)

(* The first outputs at seed 42, captured before the state moved from a
   boxed [int64] field to an unboxed byte buffer: the stream is SplitMix64
   bit for bit, and every seeded result in the repository depends on it. *)
let test_pinned_outputs () =
  let hex x = Printf.sprintf "%016Lx" x in
  let draws n f = List.init n (fun _ -> f ()) in
  let r = Rng.create 42 in
  Alcotest.(check (list string)) "next_int64"
    [ "bdd732262feb6e95"; "28efe333b266f103"; "47526757130f9f52"; "581ce1ff0e4ae394" ]
    (draws 4 (fun () -> hex (Rng.next_int64 r)));
  let r = Rng.create 42 in
  Alcotest.(check (list int)) "int_below 1000" [ 853; 72; 964; 941; 812; 265 ]
    (draws 6 (fun () -> Rng.int_below r 1000));
  let r = Rng.create 42 in
  Alcotest.(check (list (float 0.))) "float"
    [ 0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2; 0x1.607387fc392b8p-2 ]
    (draws 4 (fun () -> Rng.float r));
  let r = Rng.create 42 in
  Alcotest.(check (list bool)) "bool"
    [ true; true; false; false; false; false; true; false; true; false; true; false ]
    (draws 12 (fun () -> Rng.bool r));
  let r = Rng.create 42 in
  let child = Rng.split r in
  Alcotest.(check (list string)) "split child" [ "f54abb1228262896"; "40c69de7e06e605f" ]
    (draws 2 (fun () -> hex (Rng.next_int64 child)));
  Alcotest.(check string) "split advances the parent once" "28efe333b266f103"
    (hex (Rng.next_int64 r))

let suite =
  ( "rng",
    [
      Helpers.quick "determinism" test_determinism;
      Helpers.quick "seed_sensitivity" test_seed_sensitivity;
      Helpers.quick "non_negative" test_non_negative;
      Helpers.quick "int_below" test_int_below;
      Helpers.quick "float_range" test_float_range;
      Helpers.quick "float_coverage" test_float_coverage;
      Helpers.quick "split_independence" test_split_independence;
      Helpers.quick "copy" test_copy;
      Helpers.quick "bool_balance" test_bool_balance;
      Helpers.quick "pinned_outputs" test_pinned_outputs;
    ] )
