(* PCG32: 64-bit LCG state, XSH-RR output permutation.

   The state and the increment are two int64 cells of one 16-byte
   [Bytes.t], read and written with [Bytes.get_int64_le] and
   [Bytes.set_int64_le]. OCaml boxes [int64] record fields and function
   results (no flambda), but ocamlopt keeps an int64 that goes straight
   from such a read through arithmetic into such a write unboxed, so a
   draw allocates nothing. *)

type t = Bytes.t (* bytes 0-7 the state, 8-15 the odd increment *)

let mask32 = 0xFFFFFFFF
let multiplier = 6364136223846793005L
let[@inline] state t = Bytes.get_int64_le t 0
let[@inline] set_state t s = Bytes.set_int64_le t 0 s
let[@inline] inc t = Bytes.get_int64_le t 8
let[@inline] step t =
  set_state t (Int64.add (Int64.mul (state t) multiplier) (inc t))

(* XSH-RR on the pre-step state: xorshifted = low 32 bits of
   ((state >> 18) ^ state) >> 27, rotated right by state >> 59 *)
let[@inline] bits t =
  let s = state t in
  step t;
  let xorshifted =
    Int64.to_int
      (Int64.shift_right_logical
         (Int64.logxor (Int64.shift_right_logical s 18) s)
         27)
    land mask32
  in
  let rot = Int64.to_int (Int64.shift_right_logical s 59) in
  ((xorshifted lsr rot) lor (xorshifted lsl (-rot land 31))) land mask32

let bits32 t = Int32.of_int (bits t)

(* --- jump-ahead ---

   k steps of the LCG compose to one affine map, s -> A s + C inc, with
   A = mul^k and C = mul^(k-1) + ... + mul + 1 (mod 2^64). The stream's
   increment only scales C, so one precomputed (A, C) pair jumps every
   stream by k (Brown, "Random number generation with arbitrary
   strides", 1994). *)

type jump = { a : int64; c : int64 }

let jump k =
  if k < 0 then invalid_arg "Prng.jump: negative step count";
  (* square-and-multiply over the affine map *)
  let rec go k cur_a cur_c acc_a acc_c =
    if k = 0 then { a = acc_a; c = acc_c }
    else
      let acc_a, acc_c =
        if k land 1 = 1 then
          (Int64.mul acc_a cur_a, Int64.add (Int64.mul acc_c cur_a) cur_c)
        else (acc_a, acc_c)
      in
      go (k lsr 1) (Int64.mul cur_a cur_a)
        (Int64.mul (Int64.add cur_a 1L) cur_c)
        acc_a acc_c
  in
  go k multiplier 1L 1L 0L

let advance t j =
  set_state t (Int64.add (Int64.mul j.a (state t)) (Int64.mul j.c (inc t)))

let make ~state:seed_state ~inc =
  let t = Bytes.make 16 '\000' in
  Bytes.set_int64_le t 8 (Int64.logor (Int64.shift_left inc 1) 1L);
  step t;
  set_state t (Int64.add (state t) seed_state);
  step t;
  t

let create ~seed =
  make ~state:(Int64.of_int seed) ~inc:(Int64.of_int (seed lxor 0x5851f42d))

let split t =
  let s = Int64.of_int32 (bits32 t) in
  let i = Int64.of_int32 (bits32 t) in
  make ~state:s ~inc:i

let copy = Bytes.copy

(* rejection sampling to avoid modulo bias; top level, so a draw builds
   no closure *)
let rec below t n limit =
  let v = bits t in
  if v <= limit then v mod n else below t n limit

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  if n land (n - 1) = 0 then bits t land (n - 1)
  else below t n (mask32 - ((mask32 + 1) mod n))
let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let unit_float t = float_of_int (bits t) *. (1.0 /. 4294967296.0)

let float t x = unit_float t *. x

let bool t = bits t land 1 = 1

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

let normal t ~mean ~stddev =
  (* Box-Muller; one value per call keeps the state trajectory simple. *)
  let u1 = 1.0 -. unit_float t (* in (0,1] so log is finite *)
  and u2 = unit_float t in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (stddev *. r *. cos (2.0 *. Float.pi *. u2))

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric: p out of (0,1]";
  if p >= 1.0 then 1
  else
    let u = 1.0 -. unit_float t in
    1 + int_of_float (log u /. log (1.0 -. p))

let exponential t ~mean =
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))

let choose_weighted t ~weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Prng.choose_weighted: weights sum to zero";
  let x = float t total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
