(* SplitMix64 pseudo-random number generator.

   Deterministic, splittable and very fast; every simulated thread carries
   its own stream so experiments are reproducible regardless of scheduling
   order.

   The 64-bit state lives unboxed in an 8-byte [Bytes.t]: a draw reads and
   writes it with plain loads and stores, where a [mutable int64] field
   would box a fresh Int64 on every draw and store it through the write
   barrier. *)

type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

let copy = Bytes.copy

let golden = 0x9E3779B97F4A7C15L

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Non-negative 62-bit int. *)
let next_int t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int_below t n =
  if n <= 0 then invalid_arg "Rng.int_below: bound must be positive";
  next_int t mod n

let float t =
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits *. 0x1p-53

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Derive an independent stream; used to give each simulated thread its own
   generator from a single experiment seed. *)
let split t = create (Int64.to_int (next_int64 t))
