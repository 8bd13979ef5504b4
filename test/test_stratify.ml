(* Stratified-replication engine tests: Neyman allocation properties,
   exact one-stratum reduction to the plain estimator, control-variate
   variance reduction and expectation exactness, and the determinism
   matrix (jobs-independence, prefix-stable seed tables). *)

let check = Alcotest.(check bool)

let cfg = Config.Machine.baseline

let shared_p =
  lazy
    (Statsim.profile cfg
       (Workload.Suite.stream (Workload.Suite.find "gcc") ~length:16_000))

(* the uncached estimate, as the engine's [analytical] argument *)
let analytical p ~reduction = (Analytical.estimate ~reduction cfg p).ipc

(* satellite (b): the allocation sums to the budget, seats the pilot
   everywhere, is house-monotone in the budget, and for pairwise
   distinct Neyman shares is stable under permutation of the strata *)
let prop_neyman_allocation =
  QCheck.Test.make ~name:"neyman allocation sums/monotone/permutation-stable"
    ~count:200
    QCheck.(
      triple (int_range 1 6) (int_range 2 4)
        (pair (list_of_size (Gen.return 6) (float_range 0.1 10.0)) small_nat))
    (fun (k, pilot, (raw, extra)) ->
      let weights = Array.of_list (List.filteri (fun i _ -> i < k) raw) in
      let sigmas =
        Array.map (fun w -> Float.rem (w *. 7.3) 3.0 +. 0.01) weights
      in
      let total = (pilot * k) + extra in
      let alloc =
        Synth.Stratify.neyman_allocate ~weights ~sigmas ~pilot ~total
      in
      if Array.fold_left ( + ) 0 alloc <> total then
        QCheck.Test.fail_report "does not sum to the budget";
      Array.iter
        (fun n ->
          if n < pilot then QCheck.Test.fail_report "pilot not seated")
        alloc;
      let bigger =
        Synth.Stratify.neyman_allocate ~weights ~sigmas ~pilot
          ~total:(total + 1)
      in
      Array.iteri
        (fun h n ->
          if bigger.(h) < n then
            QCheck.Test.fail_report "not house-monotone in the budget")
        alloc;
      (* permutation stability: reversing the strata reverses the
         allocation, provided the W_h * sigma_h shares are pairwise
         distinct (exact ties legitimately break toward lower index) *)
      let shares = Array.mapi (fun h w -> w *. sigmas.(h)) weights in
      let distinct =
        Array.for_all
          (fun s ->
            Array.fold_left (fun c s' -> if s' = s then c + 1 else c) 0 shares
            = 1)
          shares
      in
      if distinct then begin
        let rev a =
          let n = Array.length a in
          Array.init n (fun i -> a.(n - 1 - i))
        in
        let alloc_rev =
          Synth.Stratify.neyman_allocate ~weights:(rev weights)
            ~sigmas:(rev sigmas) ~pilot ~total
        in
        if rev alloc_rev <> alloc then
          QCheck.Test.fail_report "not permutation-stable"
      end;
      true)

let test_neyman_rejects () =
  Alcotest.check_raises "pilot < 2"
    (Invalid_argument "Stratify.neyman_allocate: pilot < 2") (fun () ->
      ignore
        (Synth.Stratify.neyman_allocate ~weights:[| 1.0 |] ~sigmas:[| 1.0 |]
           ~pilot:1 ~total:4));
  Alcotest.check_raises "budget below pilot"
    (Invalid_argument "Stratify.neyman_allocate: total < pilot * strata")
    (fun () ->
      ignore
        (Synth.Stratify.neyman_allocate ~weights:[| 1.0; 1.0 |]
           ~sigmas:[| 1.0; 1.0 |] ~pilot:2 ~total:3))

(* satellite (a): forcing a single stratum reduces the stratified
   estimator exactly to the plain PR 5 mean / t-interval over the same
   CPI samples, and the IPC view is its delta-method transform *)
let test_one_stratum_reduction () =
  let p = Lazy.force shared_p in
  let t =
    Synth.Stratify.run ~jobs:2 ~target_length:2_000 ~strata:1
      ~control_variate:false cfg p
      ~analytical:(analytical p) ~master_seed:11 ~replicas:6
  in
  Alcotest.(check int) "one stratum" 1 (Synth.Stratify.strata t);
  let samples = Array.to_list t.reports.(0).cpi_samples in
  Alcotest.(check (float 1e-12)) "plain mean" (Stats.Summary.mean samples)
    t.cpi.mean;
  Alcotest.(check (float 1e-12)) "plain ci95"
    (Stats.Summary.ci95_half_width samples)
    t.cpi.ci95;
  (* delta method: mean inverts, the relative half-width is invariant *)
  Alcotest.(check (float 1e-12)) "ipc mean is 1/cpi" (1.0 /. t.cpi.mean)
    t.ipc.mean;
  Alcotest.(check (float 1e-9)) "relative ci invariant"
    (t.cpi.ci95 /. t.cpi.mean)
    (t.ipc.ci95 /. t.ipc.mean)

(* satellite (c): on correlated paired data the control-variate
   adjustment never widens the in-sample variance — the OLS beta
   removes exactly Cov^2/Var(X) of it *)
let prop_cv_variance_reduction =
  QCheck.Test.make ~name:"cv adjustment shrinks variance on correlated data"
    ~count:200 QCheck.(pair int (float_range 0.0 4.0))
    (fun (seed, slope) ->
      let rng = Prng.create ~seed in
      let unit () = float_of_int (Prng.bits rng) /. 1073741824.0 in
      let x = List.init 12 (fun _ -> unit ()) in
      let y = List.map (fun xi -> (slope *. xi) +. (0.5 *. unit ())) x in
      match Stats.Summary.cv_beta ~x ~y with
      | None -> true (* degenerate pilot: plain fallback, nothing to check *)
      | Some beta ->
        let mx = Stats.Summary.mean x in
        let adjusted =
          List.map2 (fun yi xi -> yi -. (beta *. (xi -. mx))) y x
        in
        if
          Stats.Summary.variance adjusted
          > Stats.Summary.variance y +. 1e-12
        then QCheck.Test.fail_report "adjusted variance exceeds plain";
        true)

(* the control variate's closed-form expectation matches the empirical
   mean of the per-trace samples it claims to predict *)
let test_cv_expectation_exact () =
  let p = Lazy.force shared_p in
  let plan = Statsim.compile_plan ~target_length:2_000 p in
  let mu = Synth.Stratify.cv_expectation cfg plan in
  check "expectation positive" true (mu > 0.0);
  let n = 64 in
  let acc = ref 0.0 in
  for seed = 1 to n do
    let tr = Synth.Generate.generate_of_plan plan ~seed in
    acc := !acc +. Synth.Stratify.cv_sample cfg tr
  done;
  let empirical = !acc /. float_of_int n in
  check
    (Printf.sprintf "empirical %.4f within 5%% of exact %.4f" empirical mu)
    true
    (Float.abs (empirical -. mu) /. mu < 0.05)

(* determinism matrix: the full report is byte-identical whatever the
   worker count, with and without the control variate *)
let test_jobs_independent () =
  let p = Lazy.force shared_p in
  let render t = Telemetry.Json.to_string (Synth.Stratify.to_json t) in
  List.iter
    (fun control_variate ->
      let run jobs =
        Synth.Stratify.run ~jobs ~target_length:2_000 ~control_variate cfg p
          ~analytical:(analytical p) ~master_seed:21 ~replicas:12
      in
      Alcotest.(check string)
        (Printf.sprintf "jobs 1 = jobs 4 (cv %b)" control_variate)
        (render (run 1)) (render (run 4)))
    [ false; true ]

(* prefix stability: growing the budget only extends each stratum's
   seed table (frozen pilot shares + house-monotone allocation), and a
   loosely-targeted adaptive run equals the fixed-budget run it
   converged at *)
let test_prefix_stable_growth () =
  let p = Lazy.force shared_p in
  let run replicas =
    Synth.Stratify.run ~jobs:2 ~target_length:2_000 cfg p
      ~analytical:(analytical p) ~master_seed:33 ~replicas
  in
  let small = run 12 and big = run 24 in
  Alcotest.(check int) "small budget spent" 12
    (Synth.Stratify.total_replicas small);
  Alcotest.(check int) "big budget spent" 24
    (Synth.Stratify.total_replicas big);
  Array.iteri
    (fun h (r : Synth.Stratify.report) ->
      let b = big.reports.(h) in
      let k = Array.length r.seeds in
      if Array.sub b.seeds 0 k <> r.seeds then
        Alcotest.failf "stratum %d seeds not prefix-stable" h)
    small.reports;
  let loose =
    Synth.Stratify.run ~jobs:2 ~target_length:2_000 ~ci_target:500.0 cfg p
      ~analytical:(analytical p)
      ~master_seed:33 ~replicas:64
  in
  let fixed = run (Synth.Stratify.total_replicas loose) in
  Alcotest.(check string) "converged run equals fixed-budget run"
    (Telemetry.Json.to_string (Synth.Stratify.to_json fixed))
    (Telemetry.Json.to_string (Synth.Stratify.to_json loose))

let test_run_rejects () =
  let p = Lazy.force shared_p in
  Alcotest.check_raises "budget below pilot seats"
    (Synth.Stratify.Budget_too_small
       "Stratify.run: budget 5 below pilot * strata = 6")
    (fun () ->
      ignore
        (Synth.Stratify.run ~target_length:2_000 ~strata:2 ~pilot:3 cfg p
           ~analytical:(analytical p) ~master_seed:1 ~replicas:5))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_neyman_allocation;
    Alcotest.test_case "neyman rejects" `Quick test_neyman_rejects;
    Alcotest.test_case "one-stratum reduction" `Quick test_one_stratum_reduction;
    QCheck_alcotest.to_alcotest prop_cv_variance_reduction;
    Alcotest.test_case "cv expectation exact" `Quick test_cv_expectation_exact;
    Alcotest.test_case "jobs-independent report" `Quick test_jobs_independent;
    Alcotest.test_case "prefix-stable growth" `Quick test_prefix_stable_growth;
    Alcotest.test_case "run rejects small budget" `Quick test_run_rejects;
  ]
