(* Histogram and summary-statistics tests. *)

let check = Alcotest.(check bool)

let test_histogram_counts () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.add h 3;
  Stats.Histogram.add h 3;
  Stats.Histogram.add_many h 7 5;
  Alcotest.(check int) "count 3" 2 (Stats.Histogram.count h 3);
  Alcotest.(check int) "count 7" 5 (Stats.Histogram.count h 7);
  Alcotest.(check int) "count missing" 0 (Stats.Histogram.count h 99);
  Alcotest.(check int) "total" 7 (Stats.Histogram.total h);
  Alcotest.(check int) "max" 7 (Stats.Histogram.max_value h)

let test_histogram_empty () =
  let h = Stats.Histogram.create () in
  check "empty" true (Stats.Histogram.is_empty h);
  Alcotest.(check (float 1e-9)) "mean 0" 0.0 (Stats.Histogram.mean h);
  Alcotest.check_raises "sample raises" (Invalid_argument "Histogram.sample: empty")
    (fun () -> ignore (Stats.Histogram.sample h (Prng.create ~seed:1)))

let test_histogram_mean_stddev () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 2; 4; 4; 4; 5; 5; 7; 9 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "stddev" 2.0 (Stats.Histogram.stddev h)

let test_histogram_support_order () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 9; 1; 5; 1 ];
  Alcotest.(check (list int)) "sorted support" [ 1; 5; 9 ]
    (Stats.Histogram.support h)

let test_histogram_sample_distribution () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.add_many h 1 90;
  Stats.Histogram.add_many h 100 10;
  let rng = Prng.create ~seed:2 in
  let ones = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    match Stats.Histogram.sample h rng with
    | 1 -> incr ones
    | 100 -> ()
    | v -> Alcotest.failf "sampled out of support: %d" v
  done;
  let rate = float_of_int !ones /. float_of_int n in
  check "proportional" true (Float.abs (rate -. 0.9) < 0.02)

let test_histogram_sample_after_mutation () =
  (* the CDF cache must invalidate on add *)
  let h = Stats.Histogram.create () in
  Stats.Histogram.add h 1;
  let rng = Prng.create ~seed:3 in
  ignore (Stats.Histogram.sample h rng);
  Stats.Histogram.add_many h 2 1_000_000;
  let twos = ref 0 in
  for _ = 1 to 100 do
    if Stats.Histogram.sample h rng = 2 then incr twos
  done;
  check "cache refreshed" true (!twos > 95)

let test_histogram_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  Stats.Histogram.add_many a 1 3;
  Stats.Histogram.add_many b 1 2;
  Stats.Histogram.add_many b 5 4;
  Stats.Histogram.merge a b;
  Alcotest.(check int) "merged count" 5 (Stats.Histogram.count a 1);
  Alcotest.(check int) "merged total" 9 (Stats.Histogram.total a);
  Alcotest.(check int) "source untouched" 6 (Stats.Histogram.total b)

let test_histogram_copy_independent () =
  let a = Stats.Histogram.create () in
  Stats.Histogram.add a 1;
  let b = Stats.Histogram.copy a in
  Stats.Histogram.add b 1;
  Alcotest.(check int) "original" 1 (Stats.Histogram.count a 1);
  Alcotest.(check int) "copy" 2 (Stats.Histogram.count b 1)

let prop_sample_in_support =
  QCheck.Test.make ~name:"sample stays in support" ~count:300
    QCheck.(pair small_int (list_of_size Gen.(1 -- 20) (int_range 0 100)))
    (fun (seed, values) ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) values;
      let rng = Prng.create ~seed in
      let v = Stats.Histogram.sample h rng in
      List.mem v values)

let prop_total_is_sum =
  QCheck.Test.make ~name:"total equals insertions" ~count:300
    QCheck.(list (int_range 0 50))
    (fun values ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) values;
      Stats.Histogram.total h = List.length values)

let test_summary_mean_stddev () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.Summary.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Stats.Summary.mean []);
  Alcotest.(check (float 1e-9))
    "stddev" 2.0
    (Stats.Summary.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_summary_cov () =
  Alcotest.(check (float 1e-9)) "constant CoV" 0.0 (Stats.Summary.cov [ 5.0; 5.0 ]);
  let cov = Stats.Summary.cov [ 8.0; 12.0 ] in
  Alcotest.(check (float 1e-9)) "cov" 0.2 cov

let test_absolute_error () =
  (* AE = |M_SS - M_EDS| / M_EDS, Section 4.2 *)
  Alcotest.(check (float 1e-9)) "10% low" 0.1
    (Stats.Summary.absolute_error ~reference:2.0 ~predicted:1.8);
  Alcotest.(check (float 1e-9)) "10% high" 0.1
    (Stats.Summary.absolute_error ~reference:2.0 ~predicted:2.2);
  Alcotest.check_raises "zero reference"
    (Invalid_argument "Summary.absolute_error: zero reference") (fun () ->
      ignore (Stats.Summary.absolute_error ~reference:0.0 ~predicted:1.0))

let test_relative_error () =
  (* RE on a perfectly predicted trend is 0 even with absolute offset *)
  Alcotest.(check (float 1e-9)) "trend exact" 0.0
    (Stats.Summary.relative_error ~ref_a:1.0 ~ref_b:2.0 ~pred_a:1.5 ~pred_b:3.0);
  (* predicted trend 1.5x vs real 2.0x -> |1.5/2 - 1| = 0.25 *)
  Alcotest.(check (float 1e-9)) "trend off" 0.25
    (Stats.Summary.relative_error ~ref_a:1.0 ~ref_b:2.0 ~pred_a:1.0 ~pred_b:1.5)

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 4.0 (Stats.Summary.geomean [ 2.0; 8.0 ])

let test_sample_stddev () =
  (* [1;2;3;4]: SS = 5, sample variance 5/3 *)
  Alcotest.(check (float 1e-9)) "n-1 denominator"
    (sqrt (5.0 /. 3.0))
    (Stats.Summary.sample_stddev [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.Summary.sample_stddev []);
  Alcotest.(check (float 1e-9)) "singleton" 0.0
    (Stats.Summary.sample_stddev [ 42.0 ]);
  (* sample stddev is strictly larger than population stddev for n > 1 *)
  check "wider than population" true
    (Stats.Summary.sample_stddev [ 1.0; 2.0 ]
    > Stats.Summary.stddev [ 1.0; 2.0 ])

let test_student_t95 () =
  Alcotest.(check (float 1e-9)) "df=1" 12.706 (Stats.Summary.student_t95 1);
  (* n=2 boundary: two samples give one degree of freedom, three give
     the second table entry — both must hit the table, not the
     asymptote *)
  Alcotest.(check (float 1e-9)) "df=2" 4.303 (Stats.Summary.student_t95 2);
  Alcotest.(check (float 1e-9)) "df=3" 3.182 (Stats.Summary.student_t95 3);
  (* last table bucket and the crossover to the normal quantile: df=30
     is still tabulated, df=31 is the first asymptotic value *)
  Alcotest.(check (float 1e-9)) "df=30 last bucket" 2.042
    (Stats.Summary.student_t95 30);
  Alcotest.(check (float 1e-9)) "df=31 crossover" 1.960
    (Stats.Summary.student_t95 31);
  Alcotest.(check (float 1e-9)) "asymptote" 1.960
    (Stats.Summary.student_t95 1_000);
  (* the critical value is monotone non-increasing in df across the
     whole table including the crossover *)
  for df = 1 to 40 do
    check
      (Printf.sprintf "monotone at df=%d" df)
      true
      (Stats.Summary.student_t95 (df + 1) <= Stats.Summary.student_t95 df)
  done;
  Alcotest.check_raises "df=0 rejected"
    (Invalid_argument "Summary.student_t95: df must be >= 1") (fun () ->
      ignore (Stats.Summary.student_t95 0))

let test_ci95_half_width () =
  (* [1;2;3;4]: t_{0.975,3} * s / sqrt 4 = 3.182 * 1.29099 / 2 *)
  Alcotest.(check (float 1e-9)) "four samples"
    (3.182 *. sqrt (5.0 /. 3.0) /. 2.0)
    (Stats.Summary.ci95_half_width [ 1.0; 2.0; 3.0; 4.0 ]);
  (* a CI over fewer than two samples is undefined: the pre-PR-10 0.0
     reported false certainty, so the degenerate cases must yield nan *)
  check "empty is nan" true
    (Float.is_nan (Stats.Summary.ci95_half_width []));
  check "singleton is nan" true
    (Float.is_nan (Stats.Summary.ci95_half_width [ 7.0 ]));
  (* two equal samples have zero dispersion but a well-defined interval *)
  Alcotest.(check (float 1e-9)) "constant samples" 0.0
    (Stats.Summary.ci95_half_width [ 2.0; 2.0; 2.0 ])

let test_cv_beta () =
  (* y = 2x + 1 exactly: beta is the slope *)
  (match
     Stats.Summary.cv_beta
       ~x:[ 1.0; 2.0; 3.0; 4.0 ]
       ~y:[ 3.0; 5.0; 7.0; 9.0 ]
   with
  | Some b -> Alcotest.(check (float 1e-9)) "exact slope" 2.0 b
  | None -> Alcotest.fail "beta on exact correlation");
  check "constant control degenerate" true
    (Stats.Summary.cv_beta ~x:[ 1.0; 1.0; 1.0 ] ~y:[ 1.0; 2.0; 3.0 ] = None);
  check "single pair degenerate" true
    (Stats.Summary.cv_beta ~x:[ 1.0 ] ~y:[ 2.0 ] = None);
  check "length mismatch degenerate" true
    (Stats.Summary.cv_beta ~x:[ 1.0; 2.0 ] ~y:[ 1.0 ] = None)

let test_combine_strata () =
  let open Stats.Summary in
  (* single stratum: exact reduction to the plain mean / t-interval,
     whatever the weight — including the sub-normal weight scale *)
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  let one =
    combine_strata
      [ { weight = 0.25; mean = mean xs; variance = variance xs; n = 4 } ]
  in
  Alcotest.(check (float 1e-12)) "one-stratum mean" (mean xs) one.mean;
  Alcotest.(check (float 1e-12)) "one-stratum ci" (ci95_half_width xs) one.ci95;
  Alcotest.(check (float 1e-12)) "one-stratum df" 3.0 one.df;
  (* a single stratum of one replica: undefined interval, not zero *)
  let tiny =
    combine_strata [ { weight = 1.0; mean = 5.0; variance = 0.0; n = 1 } ]
  in
  check "n=1 ci is nan" true (Float.is_nan tiny.ci95);
  (* two equal-weight strata with equal variance: the stratified mean
     is the simple average and the variance halves twice (weight^2 and
     the per-stratum n) *)
  let two =
    combine_strata
      [
        { weight = 1.0; mean = 2.0; variance = 4.0; n = 8 };
        { weight = 1.0; mean = 6.0; variance = 4.0; n = 8 };
      ]
  in
  Alcotest.(check (float 1e-12)) "two-strata mean" 4.0 two.mean;
  Alcotest.(check (float 1e-12)) "two-strata variance"
    ((0.25 *. 4.0 /. 8.0) +. (0.25 *. 4.0 /. 8.0))
    two.variance;
  check "two-strata ci finite" true (Float.is_finite two.ci95);
  (* Welch-Satterthwaite df of k equal strata of n replicas each is
     k * (n - 1) *)
  Alcotest.(check (float 1e-9)) "ws df" 14.0 two.df;
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Summary.combine_strata: no strata") (fun () ->
      ignore (combine_strata []));
  Alcotest.check_raises "zero weight rejected"
    (Invalid_argument "Summary.combine_strata: zero total weight") (fun () ->
      ignore
        (combine_strata
           [
             { weight = 0.0; mean = 1.0; variance = 1.0; n = 2 };
             { weight = 0.0; mean = 2.0; variance = 1.0; n = 2 };
           ]))

let test_histogram_percentile () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.add_many h 1 2;
  Stats.Histogram.add_many h 5 3;
  Stats.Histogram.add_many h 9 5;
  (* nearest rank over cumulative counts 2 / 5 / 10 *)
  Alcotest.(check int) "p0 is the minimum" 1 (Stats.Histogram.percentile h 0.0);
  Alcotest.(check int) "p20 -> rank 2" 1 (Stats.Histogram.percentile h 0.2);
  Alcotest.(check int) "p50 -> rank 5" 5 (Stats.Histogram.percentile h 0.5);
  Alcotest.(check int) "p51 -> rank 6" 9 (Stats.Histogram.percentile h 0.51);
  Alcotest.(check int) "p100 is the maximum" 9 (Stats.Histogram.percentile h 1.0);
  Alcotest.check_raises "empty histogram"
    (Invalid_argument "Histogram.percentile: empty") (fun () ->
      ignore (Stats.Histogram.percentile (Stats.Histogram.create ()) 0.5));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Histogram.percentile: p out of [0, 1]") (fun () ->
      ignore (Stats.Histogram.percentile h 1.5))

let test_histogram_percentile_merge () =
  (* percentile over a merge equals percentile over pooled observations *)
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  Stats.Histogram.add_many a 2 10;
  Stats.Histogram.add_many b 7 10;
  Stats.Histogram.merge a b;
  Alcotest.(check int) "p50 of pooled" 2 (Stats.Histogram.percentile a 0.5);
  Alcotest.(check int) "p90 of pooled" 7 (Stats.Histogram.percentile a 0.9)

(* --- alias sampler --- *)

let test_alias_single_bucket () =
  let t = Stats.Alias.of_weights ~values:[| 7 |] ~weights:[| 3 |] in
  Alcotest.(check int) "length" 1 (Stats.Alias.length t);
  Alcotest.(check int) "total" 3 (Stats.Alias.total t);
  let rng = Prng.create ~seed:5 in
  for _ = 1 to 5 do
    Alcotest.(check int) "deterministic value" 7 (Stats.Alias.sample t rng)
  done;
  (* single-bucket draws must consume no randomness *)
  let fresh = Prng.create ~seed:5 in
  check "no randomness consumed" true (Prng.bits rng = Prng.bits fresh)

let test_alias_zero_weight () =
  let t =
    Stats.Alias.of_weights ~values:[| 1; 2; 3 |] ~weights:[| 0; 5; 0 |]
  in
  Alcotest.(check int) "zero-weight entries dropped" 1 (Stats.Alias.length t);
  let rng = Prng.create ~seed:9 in
  Alcotest.(check int) "only surviving value" 2 (Stats.Alias.sample t rng);
  let e = Stats.Alias.of_weights ~values:[| 4; 5 |] ~weights:[| 0; 0 |] in
  check "all-zero is empty" true (Stats.Alias.is_empty e);
  Alcotest.check_raises "empty sample raises"
    (Invalid_argument "Alias.sample: empty table") (fun () ->
      ignore (Stats.Alias.sample e rng))

let test_alias_of_arrays_roundtrip () =
  let t =
    Stats.Alias.of_weights ~values:[| 3; 1; 4; 1; 5 |]
      ~weights:[| 9; 2; 6; 5; 3 |]
  in
  let values, alias, thr, total = Stats.Alias.to_arrays t in
  let t' = Stats.Alias.of_arrays ~values ~alias ~thr ~total in
  let a = Prng.create ~seed:11 and b = Prng.create ~seed:11 in
  for _ = 1 to 1_000 do
    Alcotest.(check int) "bit-identical draw" (Stats.Alias.sample t a)
      (Stats.Alias.sample t' b)
  done

let prop_alias_matches_distribution =
  QCheck.Test.make ~name:"alias frequencies match the source weights"
    ~count:50
    QCheck.(
      pair small_int (list_of_size Gen.(1 -- 8) (int_range 1 50)))
    (fun (seed, weights) ->
      let values = Array.init (List.length weights) (fun i -> 10 * i) in
      let weights = Array.of_list weights in
      let t = Stats.Alias.of_weights ~values ~weights in
      let total = float_of_int (Array.fold_left ( + ) 0 weights) in
      let n = 2_000 in
      let counts = Hashtbl.create 8 in
      let rng = Prng.create ~seed in
      for _ = 1 to n do
        let v = Stats.Alias.sample t rng in
        Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
      done;
      (* each empirical frequency within 0.05 of its probability: >4
         sigma at this sample size, so effectively never flaky *)
      Array.for_all
        (fun i ->
          let p = float_of_int weights.(i) /. total in
          let obs =
            float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts values.(i)))
            /. float_of_int n
          in
          Float.abs (obs -. p) < 0.05)
        (Array.init (Array.length values) (fun i -> i)))

let test_alias_of_histogram () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.add_many h 2 30;
  Stats.Histogram.add_many h 8 70;
  let t = Stats.Alias.of_histogram h in
  Alcotest.(check int) "total carried over" 100 (Stats.Alias.total t);
  let rng = Prng.create ~seed:21 in
  let eights = ref 0 in
  let n = 5_000 in
  for _ = 1 to n do
    match Stats.Alias.sample t rng with
    | 8 -> incr eights
    | 2 -> ()
    | v -> Alcotest.failf "sampled out of support: %d" v
  done;
  let rate = float_of_int !eights /. float_of_int n in
  check "proportional" true (Float.abs (rate -. 0.7) < 0.03)

(* Stats.Histogram against a reference model kept here: a map from
   value to count, read the way the interface promises (ascending value
   order, nearest-rank percentiles, a cumulative-count sample from one
   [Prng.int] draw). Random add / add_many / merge / copy sequences, with
   samples drawn mid-sequence so the sampling cache is rebuilt after
   each mutation. *)
module Model = Map.Make (Int)

type hist_op =
  | Add of int
  | Add_many of int * int
  | Merge of (int * int) list
  | Copy
  | Sample of int

let model_total m = Model.fold (fun _ c acc -> acc + c) m 0

(* the smallest value whose cumulative count reaches [x] *)
let model_at_cum m x =
  let acc = ref 0 in
  fst
    (List.find
       (fun (_, c) ->
         acc := !acc + c;
         !acc >= x)
       (Model.bindings m))

let model_sample m seed =
  let rng = Prng.create ~seed in
  model_at_cum m (1 + Prng.int rng (model_total m))

let model_percentile m p =
  let total = model_total m in
  let rank = int_of_float (Float.ceil (p *. float_of_int total)) in
  model_at_cum m (max 1 (min total rank))

let hist_op_gen =
  let open QCheck.Gen in
  let value = int_range (-40) 600 in
  frequency
    [
      (6, map (fun v -> Add v) value);
      (4, map2 (fun v n -> Add_many (v, n)) value (int_range 0 1_000));
      (2, map (fun l -> Merge l) (list_size (int_range 0 12) (pair value (int_range 0 50))));
      (1, return Copy);
      (2, map (fun s -> Sample s) (int_range 0 1_000_000));
    ]

let show_hist_op = function
  | Add v -> Printf.sprintf "add %d" v
  | Add_many (v, n) -> Printf.sprintf "add_many %d %d" v n
  | Merge l ->
    "merge ["
    ^ String.concat "; " (List.map (fun (v, n) -> Printf.sprintf "%d,%d" v n) l)
    ^ "]"
  | Copy -> "copy"
  | Sample s -> Printf.sprintf "sample %d" s

let prop_histogram_matches_model =
  QCheck.Test.make ~name:"histogram matches a reference model" ~count:400
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_hist_op ops))
       QCheck.Gen.(list_size (int_range 0 60) hist_op_gen))
    (fun ops ->
      let module H = Stats.Histogram in
      let h = ref (H.create ()) and m = ref Model.empty in
      let model_add v n =
        if n > 0 then
          m := Model.update v (fun c -> Some (n + Option.value c ~default:0)) !m
      in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      List.iter
        (function
          | Add v ->
            H.add !h v;
            model_add v 1
          | Add_many (v, n) ->
            H.add_many !h v n;
            model_add v n
          | Merge l ->
            let src = H.create () in
            List.iter (fun (v, n) -> H.add_many src v n) l;
            H.merge !h src;
            List.iter (fun (v, n) -> model_add v n) l
          | Copy ->
            let before = !h in
            h := H.copy before;
            (* the copy is independent of its source (12,345 lies
               outside the generated values) *)
            H.add before 12_345;
            if H.count !h 12_345 <> 0 then fail "copy shares its source's table"
          | Sample seed ->
            if not (Model.is_empty !m) then begin
              let got = H.sample !h (Prng.create ~seed) in
              let want = model_sample !m seed in
              if got <> want then fail "sample %d: %d, model %d" seed got want
            end)
        ops;
      let h = !h and m = !m in
      let pairs = ref [] in
      H.iter h (fun v c -> pairs := (v, c) :: !pairs);
      let total = model_total m in
      if List.rev !pairs <> Model.bindings m then fail "iter order or counts";
      if H.support h <> List.map fst (Model.bindings m) then fail "support";
      if H.support_size h <> Model.cardinal m then fail "support_size";
      if H.total h <> total then fail "total %d, model %d" (H.total h) total;
      if H.is_empty h <> (total = 0) then fail "is_empty";
      Model.iter
        (fun v c ->
          if H.count h v <> c then fail "count %d" v;
          if H.count h (v + 1) <> Option.value (Model.find_opt (v + 1) m) ~default:0
          then fail "count %d" (v + 1))
        m;
      if total > 0 then begin
        if H.max_value h <> fst (Model.max_binding m) then fail "max_value";
        let sum = Model.fold (fun v c acc -> acc + (v * c)) m 0 in
        let mean = float_of_int sum /. float_of_int total in
        if H.mean h <> mean then fail "mean %h, model %h" (H.mean h) mean;
        let ss =
          Model.fold
            (fun v c acc ->
              let d = float_of_int v -. mean in
              acc +. (d *. d *. float_of_int c))
            m 0.0
        in
        let sd = sqrt (ss /. float_of_int total) in
        if Float.abs (H.stddev h -. sd) > 1e-12 *. Float.max 1.0 sd then
          fail "stddev %.17g, model %.17g" (H.stddev h) sd;
        List.iter
          (fun p ->
            if H.percentile h p <> model_percentile m p then fail "percentile %g" p)
          [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ];
        List.iter
          (fun seed ->
            if H.sample h (Prng.create ~seed) <> model_sample m seed then
              fail "final sample %d" seed)
          [ 1; 2; 3 ]
      end
      else if H.mean h <> 0.0 || H.stddev h <> 0.0 then fail "empty moments";
      true)

(* An empty histogram holds no table: a profile keeps thousands of them
   (every WAW and WAR distribution of a machine with renaming). *)
let test_histogram_empty_is_small () =
  let words h = Obj.reachable_words (Obj.repr h) in
  let empty = Stats.Histogram.create () in
  if words empty > 6 then
    Alcotest.failf "an empty histogram reaches %d words" (words empty);
  let h = Stats.Histogram.create () in
  Stats.Histogram.add h 3;
  Stats.Histogram.add_many h 3 0;
  check "one value" true (words h > words empty);
  check "a copy of an empty one" true
    (words (Stats.Histogram.copy empty) <= words empty)

let suite =
  [
    Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram mean/stddev" `Quick test_histogram_mean_stddev;
    Alcotest.test_case "histogram support order" `Quick test_histogram_support_order;
    Alcotest.test_case "histogram sampling" `Quick test_histogram_sample_distribution;
    Alcotest.test_case "histogram cache invalidation" `Quick
      test_histogram_sample_after_mutation;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram copy" `Quick test_histogram_copy_independent;
    QCheck_alcotest.to_alcotest prop_sample_in_support;
    QCheck_alcotest.to_alcotest prop_total_is_sum;
    Alcotest.test_case "summary mean/stddev" `Quick test_summary_mean_stddev;
    Alcotest.test_case "summary cov" `Quick test_summary_cov;
    Alcotest.test_case "absolute error" `Quick test_absolute_error;
    Alcotest.test_case "relative error" `Quick test_relative_error;
    Alcotest.test_case "geomean" `Quick test_geomean;
    Alcotest.test_case "sample stddev" `Quick test_sample_stddev;
    Alcotest.test_case "student t95" `Quick test_student_t95;
    Alcotest.test_case "ci95 half-width" `Quick test_ci95_half_width;
    Alcotest.test_case "cv beta" `Quick test_cv_beta;
    Alcotest.test_case "combine strata" `Quick test_combine_strata;
    Alcotest.test_case "histogram percentile" `Quick test_histogram_percentile;
    Alcotest.test_case "histogram percentile after merge" `Quick
      test_histogram_percentile_merge;
    Alcotest.test_case "alias single bucket" `Quick test_alias_single_bucket;
    Alcotest.test_case "alias zero weights" `Quick test_alias_zero_weight;
    Alcotest.test_case "alias of_arrays roundtrip" `Quick
      test_alias_of_arrays_roundtrip;
    QCheck_alcotest.to_alcotest prop_alias_matches_distribution;
    Alcotest.test_case "alias of_histogram" `Quick test_alias_of_histogram;
    QCheck_alcotest.to_alcotest prop_histogram_matches_model;
    Alcotest.test_case "empty histogram holds no table" `Quick
      test_histogram_empty_is_small;
  ]
