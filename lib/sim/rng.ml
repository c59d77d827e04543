(* SplitMix64: a small, fast, high-quality deterministic PRNG.  Every source
   of randomness in the simulator is an explicitly seeded instance so whole
   experiments replay bit-for-bit.

   The 64-bit state lives in an 8-byte [Bytes]: [get/set_int64_ne] read and
   write it unboxed, where a [mutable int64] field would box a fresh state
   (and the inlined mixer's result) on every draw.  The machine draws once
   per transactional access under a cost model with spurious aborts. *)

type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

let golden = 0x9E3779B97F4A7C15L

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Non-negative 62-bit int. *)
let next t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  next t mod bound

let float t =
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let split t = create (Int64.to_int (next_int64 t))
