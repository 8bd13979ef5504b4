(* Replication engine tests: deterministic seed splitting,
   jobs-independence of the aggregate report, adaptive CI mode. *)

let check = Alcotest.(check bool)

let cfg = Config.Machine.baseline

let profile_of name len =
  Statsim.profile cfg
    (Workload.Suite.stream (Workload.Suite.find name) ~length:len)

(* one shared profile: every case here explores seeds, not workloads *)
let shared_p = lazy (profile_of "gcc" 16_000)

(* seed splitting is deterministic, pairwise distinct and
   prefix-stable *)
let prop_seed_split =
  QCheck.Test.make ~name:"seed split deterministic/distinct/prefix-stable"
    ~count:200
    QCheck.(pair int (int_range 1 64))
    (fun (master_seed, n) ->
      let a = Synth.Replicate.split_seeds ~master_seed ~n in
      let b = Synth.Replicate.split_seeds ~master_seed ~n in
      if a <> b then QCheck.Test.fail_report "not deterministic";
      let seen = Hashtbl.create n in
      Array.iter
        (fun s ->
          if Hashtbl.mem seen s then
            QCheck.Test.fail_report "seeds not pairwise distinct";
          if s < 0 then QCheck.Test.fail_report "negative seed";
          Hashtbl.add seen s ())
        a;
      let k = 1 + ((n - 1) / 2) in
      if Array.sub a 0 k <> Synth.Replicate.split_seeds ~master_seed ~n:k
      then QCheck.Test.fail_report "not prefix-stable";
      true)

(* the replication loop both engines share, over a pure runner: growing
   to [first] and then to [final] equals growing to [final] at once, at
   any worker count, and sample i of stratum h is [run h seeds.(h).(i)],
   each computed exactly once *)
let prop_grow =
  QCheck.Test.make ~name:"grow: two steps = one, sample i = run h seed i"
    ~count:100
    QCheck.(
      pair small_nat
        (list_of_size Gen.(int_range 1 4)
           (pair (int_range 0 8) (int_range 0 8))))
    (fun (master_seed, counts) ->
      let seeds =
        Array.of_list
          (List.mapi
             (fun h _ ->
               Synth.Replicate.split_seeds ~master_seed:(master_seed + h)
                 ~n:8)
             counts)
      in
      let first = Array.of_list (List.map (fun (a, b) -> min a b) counts) in
      let final = Array.of_list (List.map (fun (a, b) -> max a b) counts) in
      let empty = Array.map (fun _ -> [||]) seeds in
      List.iter
        (fun jobs ->
          let calls = Atomic.make 0 in
          let run h seed =
            Atomic.incr calls;
            (h, seed)
          in
          let grow = Synth.Replicate.grow ~jobs run ~seeds in
          let twice = grow (grow empty ~want:first) ~want:final in
          if Atomic.get calls <> Array.fold_left ( + ) 0 final then
            QCheck.Test.fail_reportf "jobs %d: %d runs for %d samples" jobs
              (Atomic.get calls) (Array.fold_left ( + ) 0 final);
          if twice <> grow empty ~want:final then
            QCheck.Test.fail_reportf "jobs %d: two steps differ from one"
              jobs;
          Array.iteri
            (fun h samples ->
              if samples <> Array.init final.(h) (fun i -> (h, seeds.(h).(i)))
              then
                QCheck.Test.fail_reportf "jobs %d: stratum %d samples" jobs h)
            twice)
        [ 1; 4 ];
      true)

let test_split_rejects_zero () =
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Replicate.split_seeds: n must be >= 1") (fun () ->
      ignore (Synth.Replicate.split_seeds ~master_seed:1 ~n:0))

(* the aggregate report is byte-identical whatever the worker count *)
let test_jobs_independent () =
  let p = Lazy.force shared_p in
  let render r = Telemetry.Json.to_string (Synth.Replicate.to_json r) in
  let serial =
    Synth.Replicate.run ~jobs:1 cfg
      (Kernel.Compile.plan ~target_length:2_000 p) ~master_seed:99
      ~replicas:6
  in
  let parallel =
    Synth.Replicate.run ~jobs:4 cfg
      (Kernel.Compile.plan ~target_length:2_000 p) ~master_seed:99
      ~replicas:6
  in
  Alcotest.(check string) "jobs 1 = jobs 4" (render serial) (render parallel)

let test_aggregate_statistics () =
  let p = Lazy.force shared_p in
  let r =
    Synth.Replicate.run ~jobs:2 cfg
      (Kernel.Compile.plan ~target_length:2_000 p)
      ~master_seed:7 ~replicas:5
  in
  Alcotest.(check int) "replica count" 5 (Synth.Replicate.replicas r);
  Alcotest.(check int) "one metrics record per replica" 5
    (Array.length r.Synth.Replicate.metrics);
  (* the aggregate must match a recomputation from the raw samples *)
  let ipcs =
    Array.to_list (Array.map Uarch.Metrics.ipc r.Synth.Replicate.metrics)
  in
  Alcotest.(check (float 1e-12)) "mean" (Stats.Summary.mean ipcs)
    r.Synth.Replicate.ipc.Synth.Replicate.mean;
  Alcotest.(check (float 1e-12)) "stddev"
    (Stats.Summary.sample_stddev ipcs)
    r.Synth.Replicate.ipc.Synth.Replicate.stddev;
  Alcotest.(check (float 1e-12)) "ci95"
    (Stats.Summary.ci95_half_width ipcs)
    r.Synth.Replicate.ipc.Synth.Replicate.ci95;
  check "ci95 finite" true (Float.is_finite r.Synth.Replicate.ipc.Synth.Replicate.ci95);
  (* six stall causes, each a fraction of cycles in [0, 1] *)
  Alcotest.(check int) "six stall causes" 6
    (List.length r.Synth.Replicate.stall_fractions);
  List.iter
    (fun (name, (s : Synth.Replicate.stat)) ->
      if s.mean < 0.0 || s.mean > 1.0 then
        Alcotest.failf "%s: fraction mean %f out of range" name s.mean)
    r.Synth.Replicate.stall_fractions;
  (* replica metrics are reproducible from their recorded seeds *)
  let m0 =
    Synth.Run.run cfg
      (Synth.Generate.generate ~target_length:2_000 p
         ~seed:r.Synth.Replicate.seeds.(0))
  in
  Alcotest.(check string) "replica 0 reproducible"
    (Uarch.Metrics.encode r.Synth.Replicate.metrics.(0))
    (Uarch.Metrics.encode m0)

let test_ci_target () =
  let p = Lazy.force shared_p in
  (* a huge target is satisfied immediately at the first round *)
  let loose =
    Synth.Replicate.run ~jobs:2 ~ci_target:500.0 cfg
      (Kernel.Compile.plan ~target_length:1_500 p)
      ~master_seed:5 ~replicas:3
  in
  Alcotest.(check int) "stops at the first round" 3
    (Synth.Replicate.replicas loose);
  (* an impossible target stops at max_replicas *)
  let tight =
    Synth.Replicate.run ~jobs:2 ~ci_target:1e-9 cfg
      (Kernel.Compile.plan ~target_length:1_500 p)
      ~master_seed:5 ~replicas:2
  in
  Alcotest.(check int) "caps at max_replicas" Synth.Replicate.max_replicas
    (Synth.Replicate.replicas tight);
  (* adaptive growth only extends the seed table: a converged run equals
     the fixed-count run for the same master seed *)
  let fixed =
    Synth.Replicate.run ~jobs:1 cfg
      (Kernel.Compile.plan ~target_length:1_500 p)
      ~master_seed:5 ~replicas:3
  in
  Alcotest.(check string) "prefix semantics"
    (Telemetry.Json.to_string (Synth.Replicate.to_json fixed))
    (Telemetry.Json.to_string (Synth.Replicate.to_json loose));
  Alcotest.check_raises "ci_target must be positive"
    (Invalid_argument "Replicate.run: ci_target must be positive")
    (fun () ->
      ignore
        (Synth.Replicate.run ~ci_target:0.0 cfg (Kernel.Compile.plan p)
           ~master_seed:1 ~replicas:4))

let test_render_text () =
  let p = Lazy.force shared_p in
  let r =
    Synth.Replicate.run cfg
      (Kernel.Compile.plan ~target_length:1_500 p) ~master_seed:3 ~replicas:4
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Synth.Replicate.render_text ppf r;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let contains needle =
    let nl = String.length needle and hl = String.length out in
    let rec go i = i + nl <= hl && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  check "mentions replica count" true (contains "4 replicas");
  check "has a CI column" true (contains "95% CI +/-");
  check "lists stall causes" true (contains "lsq_full");
  check "no NaNs" true (not (contains "nan"))

(* the cooperative-cancellation hook fires once per replica, and a
   raising hook aborts the whole replication *)
let test_check_hook () =
  let p = Lazy.force shared_p in
  let calls = Atomic.make 0 in
  let r =
    Synth.Replicate.run
      ~check:(fun () -> Atomic.incr calls)
      ~jobs:2 cfg
      (Kernel.Compile.plan ~target_length:1_500 p) ~master_seed:3
      ~replicas:4
  in
  Alcotest.(check int) "one call per replica" 4 (Atomic.get calls);
  Alcotest.(check int) "all replicas ran" 4 (Synth.Replicate.replicas r);
  let exception Abort in
  (match
     Synth.Replicate.run
       ~check:(fun () -> raise Abort)
       ~jobs:1 cfg
       (Kernel.Compile.plan ~target_length:1_500 p)
       ~master_seed:3 ~replicas:4
   with
  | _ -> Alcotest.fail "raising check did not abort"
  | exception Abort -> ());
  (* the hook threads through the adaptive mode too *)
  let calls_ci = Atomic.make 0 in
  let r =
    Synth.Replicate.run
      ~check:(fun () -> Atomic.incr calls_ci)
      ~jobs:1 ~ci_target:500.0 cfg
      (Kernel.Compile.plan ~target_length:1_500 p) ~master_seed:5 ~replicas:3
  in
  Alcotest.(check int) "ci mode calls per replica"
    (Synth.Replicate.replicas r) (Atomic.get calls_ci)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_seed_split;
    QCheck_alcotest.to_alcotest prop_grow;
    Alcotest.test_case "split rejects n=0" `Quick test_split_rejects_zero;
    Alcotest.test_case "jobs-independent report" `Quick test_jobs_independent;
    Alcotest.test_case "aggregate statistics" `Quick test_aggregate_statistics;
    Alcotest.test_case "adaptive CI mode" `Quick test_ci_target;
    Alcotest.test_case "cooperative check hook" `Quick test_check_hook;
    Alcotest.test_case "text rendering" `Quick test_render_text;
  ]
