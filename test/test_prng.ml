(* Tests for the PCG32 generator: determinism, ranges, distribution
   sanity and the derived samplers. *)

let check = Alcotest.(check bool)

let test_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 1000 do
    Alcotest.(check int32) "same stream" (Prng.bits32 a) (Prng.bits32 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Prng.bits32 a <> Prng.bits32 b then differs := true
  done;
  check "different seeds diverge" true !differs

let test_split_independent () =
  let a = Prng.create ~seed:7 in
  let c = Prng.split a in
  let xs = List.init 100 (fun _ -> Prng.int a 1000) in
  let ys = List.init 100 (fun _ -> Prng.int c 1000) in
  check "split streams differ" true (xs <> ys)

let test_copy_replays () =
  let a = Prng.create ~seed:9 in
  ignore (Prng.bits32 a);
  let b = Prng.copy a in
  let xs = List.init 50 (fun _ -> Prng.int a 97) in
  let ys = List.init 50 (fun _ -> Prng.int b 97) in
  Alcotest.(check (list int)) "copy replays" xs ys

let test_int_bounds () =
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 17 in
    check "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_int_rejects_bad_bound () =
  let rng = Prng.create ~seed:3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_int_in () =
  let rng = Prng.create ~seed:4 in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng ~lo:(-5) ~hi:5 in
    check "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_uniformity () =
  (* chi-square-ish: each of 8 buckets within 3x sqrt deviation *)
  let rng = Prng.create ~seed:5 in
  let n = 80_000 in
  let buckets = Array.make 8 0 in
  for _ = 1 to n do
    let b = Prng.int rng 8 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = n / 8 in
  Array.iter
    (fun c ->
      check "bucket within 5%" true
        (abs (c - expected) < expected / 20))
    buckets

let test_unit_float_range () =
  let rng = Prng.create ~seed:6 in
  for _ = 1 to 10_000 do
    let u = Prng.unit_float rng in
    check "u in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_bernoulli_edges () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    check "p=0 never" false (Prng.bernoulli rng 0.0);
    check "p=1 always" true (Prng.bernoulli rng 1.0)
  done

let test_bernoulli_rate () =
  let rng = Prng.create ~seed:8 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check "rate ~ 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_normal_moments () =
  let rng = Prng.create ~seed:9 in
  let n = 50_000 in
  let xs = List.init n (fun _ -> Prng.normal rng ~mean:10.0 ~stddev:2.0) in
  let m = Stats.Summary.mean xs and s = Stats.Summary.stddev xs in
  check "mean ~ 10" true (Float.abs (m -. 10.0) < 0.1);
  check "stddev ~ 2" true (Float.abs (s -. 2.0) < 0.1)

let test_geometric_mean () =
  let rng = Prng.create ~seed:10 in
  let n = 50_000 in
  let total = ref 0 in
  for _ = 1 to n do
    let v = Prng.geometric rng ~p:0.25 in
    check "geometric >= 1" true (v >= 1);
    total := !total + v
  done;
  let mean = float_of_int !total /. float_of_int n in
  check "mean ~ 4" true (Float.abs (mean -. 4.0) < 0.15)

let test_choose_weighted () =
  let rng = Prng.create ~seed:11 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Prng.choose_weighted rng ~weights:[| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check "heaviest wins" true (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  let r2 = float_of_int counts.(2) /. 30_000.0 in
  check "p(2) ~ 0.7" true (Float.abs (r2 -. 0.7) < 0.02)

let test_choose_weighted_zero_total () =
  let rng = Prng.create ~seed:11 in
  Alcotest.check_raises "all-zero weights"
    (Invalid_argument "Prng.choose_weighted: weights sum to zero") (fun () ->
      ignore (Prng.choose_weighted rng ~weights:[| 0.0; 0.0 |]))

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      let rng = Prng.create ~seed in
      Prng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let prop_int_upper_bound =
  QCheck.Test.make ~name:"int stays below bound" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Prng.create ~seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

(* a precomputed jump lands exactly where k draws do, for any stream;
   999 is the generator's doomed-retry jump *)
let prop_jump_equals_draws =
  QCheck.Test.make ~name:"jump k = k draws" ~count:300
    QCheck.(pair int (oneof [ always 999; int_range 0 5_000 ]))
    (fun (seed, k) ->
      let a = Prng.create ~seed in
      let b = Prng.copy a in
      for _ = 1 to k do
        ignore (Prng.bits a)
      done;
      Prng.advance b (Prng.jump k);
      List.init 4 (fun _ -> Prng.bits a) = List.init 4 (fun _ -> Prng.bits b))

let test_jump_allocates_nothing () =
  let j = Prng.jump 999 and rng = Prng.create ~seed:1 in
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Prng.advance rng j
  done;
  Alcotest.(check (float 0.0)) "minor words" 0.0 (Gc.minor_words () -. before)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "copy replays" `Quick test_copy_replays;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int bad bound" `Quick test_int_rejects_bad_bound;
    Alcotest.test_case "int_in range" `Quick test_int_in;
    Alcotest.test_case "uniformity" `Quick test_uniformity;
    Alcotest.test_case "unit_float range" `Quick test_unit_float_range;
    Alcotest.test_case "bernoulli edges" `Quick test_bernoulli_edges;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "normal moments" `Quick test_normal_moments;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "choose_weighted" `Quick test_choose_weighted;
    Alcotest.test_case "choose_weighted zero" `Quick test_choose_weighted_zero_total;
    QCheck_alcotest.to_alcotest prop_shuffle_is_permutation;
    QCheck_alcotest.to_alcotest prop_int_upper_bound;
    QCheck_alcotest.to_alcotest prop_jump_equals_draws;
    Alcotest.test_case "jump allocates nothing" `Quick
      test_jump_allocates_nothing;
  ]
