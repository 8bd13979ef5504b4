(* PCG32: 64-bit LCG state, XSH-RR output permutation.

   The 64-bit state is held as two 32-bit native-int limbs and stepped
   with limb arithmetic. OCaml boxes [int64] record fields and function
   results (no flambda), so an [Int64]-based step allocates on every
   draw — real GC pressure when synthesis draws hundreds of millions of
   times. The limb step is allocation-free and produces bit-identical
   streams to the Int64 formulation (the determinism tests and the
   fixed-seed statistical suites pin the trajectory). *)

type t = {
  mutable hi : int;  (* state bits 32..63 *)
  mutable lo : int;  (* state bits 0..31 *)
  (* increment (must be odd; selects the stream), same limb split *)
  inc_hi : int;
  inc_lo : int;
}

let mask16 = 0xFFFF
let mask32 = 0xFFFFFFFF

(* multiplier 6364136223846793005 = 0x5851F42D_4C957F2D *)
let mul_hi = 0x5851F42D
let mul_lo = 0x4C957F2D

(* low 32 bits of a 32x32-bit product; 16-bit splitting keeps every
   partial product under 2^48, inside the 63-bit native int *)
let mul32_low a b =
  (((a land mask16) * b) + ((((a lsr 16) * b) land mask16) lsl 16)) land mask32

let step t =
  let lo = t.lo and hi = t.hi in
  (* full 64-bit state * multiplier: the lo*mul_lo product needs both
     halves (its high bits carry into the new high limb); the two cross
     products only contribute their low 32 bits *)
  let q = (lo land mask16) * mul_lo in
  let r = (lo lsr 16) * mul_lo in
  let low_sum = q + ((r land mask16) lsl 16) in
  let carry = (low_sum lsr 32) + (r lsr 16) in
  let high = carry + mul32_low lo mul_hi + mul32_low hi mul_lo in
  let t1 = (low_sum land mask32) + t.inc_lo in
  t.lo <- t1 land mask32;
  t.hi <- (high + t.inc_hi + (t1 lsr 32)) land mask32

(* XSH-RR on the pre-step state: xorshifted = low 32 bits of
   ((state >> 18) ^ state) >> 27, rotated right by state >> 59 *)
let output hi lo =
  let xorshifted =
    (((hi lsl 5) lor (lo lsr 27)) lxor (hi lsr 13)) land mask32
  in
  let rot = hi lsr 27 in
  ((xorshifted lsr rot) lor (xorshifted lsl (-rot land 31))) land mask32

let bits t =
  let hi = t.hi and lo = t.lo in
  step t;
  output hi lo

let bits32 t = Int32.of_int (bits t)

(* --- jump-ahead ---

   k steps of the LCG compose to one affine map, s -> A s + C inc, with
   A = mul^k and C = mul^(k-1) + ... + mul + 1 (mod 2^64). The stream's
   increment only scales C, so one precomputed (A, C) pair jumps every
   stream by k (Brown, "Random number generation with arbitrary
   strides", 1994). *)

type jump = { a_hi : int; a_lo : int; c_hi : int; c_lo : int }

let jump k =
  if k < 0 then invalid_arg "Prng.jump: negative step count";
  (* square-and-multiply over the affine map; Int64 is fine here, the
     pair is built once and applied many times *)
  let rec go k cur_a cur_c acc_a acc_c =
    if k = 0 then (acc_a, acc_c)
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
  let a, c = go k 0x5851F42D4C957F2DL 1L 1L 0L in
  let hi v = Int64.to_int (Int64.shift_right_logical v 32) land mask32 in
  let lo v = Int64.to_int v land mask32 in
  { a_hi = hi a; a_lo = lo a; c_hi = hi c; c_lo = lo c }

(* high 32 bits of a 32x32-bit product, by [mul32_low]'s 16-bit split *)
let mul32_high a b =
  let q = (a land mask16) * b in
  let r = (a lsr 16) * b in
  ((q + ((r land mask16) lsl 16)) lsr 32) + (r lsr 16)

let advance t j =
  let hi = t.hi and lo = t.lo in
  (* the low 64 bits of A * state and of C * inc, as 32-bit limbs *)
  let s_lo = mul32_low lo j.a_lo in
  let s_hi =
    mul32_high lo j.a_lo + mul32_low lo j.a_hi + mul32_low hi j.a_lo
  in
  let c_lo = mul32_low t.inc_lo j.c_lo in
  let c_hi =
    mul32_high t.inc_lo j.c_lo + mul32_low t.inc_lo j.c_hi
    + mul32_low t.inc_hi j.c_lo
  in
  let l = s_lo + c_lo in
  t.lo <- l land mask32;
  t.hi <- (s_hi + c_hi + (l lsr 32)) land mask32

let add64 t v =
  let s = t.lo + (Int64.to_int v land mask32) in
  t.lo <- s land mask32;
  t.hi <-
    (t.hi
    + (Int64.to_int (Int64.shift_right_logical v 32) land mask32)
    + (s lsr 32))
    land mask32

let make ~state ~inc =
  let inc64 = Int64.logor (Int64.shift_left inc 1) 1L in
  let t =
    {
      hi = 0;
      lo = 0;
      inc_hi = Int64.to_int (Int64.shift_right_logical inc64 32) land mask32;
      inc_lo = Int64.to_int inc64 land mask32;
    }
  in
  step t;
  add64 t state;
  step t;
  t

let create ~seed =
  make ~state:(Int64.of_int seed) ~inc:(Int64.of_int (seed lxor 0x5851f42d))

let split t =
  let s = Int64.of_int32 (bits32 t) in
  let i = Int64.of_int32 (bits32 t) in
  make ~state:s ~inc:i

let copy t = { hi = t.hi; lo = t.lo; inc_hi = t.inc_hi; inc_lo = t.inc_lo }

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  if n land (n - 1) = 0 then bits t land (n - 1)
  else begin
    (* rejection sampling to avoid modulo bias *)
    let limit = mask32 - (mask32 + 1) mod n in
    let rec draw () =
      let v = bits t in
      if v <= limit then v mod n else draw ()
    in
    draw ()
  end

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
