(* K-means and SimPoint tests. *)

let check = Alcotest.(check bool)

let test_kmeans_k1_is_mean () =
  let rng = Prng.create ~seed:1 in
  let points = [| [| 0.0; 0.0 |]; [| 2.0; 0.0 |]; [| 4.0; 6.0 |] |] in
  let r = Simpoint.Kmeans.cluster rng ~points ~k:1 in
  Alcotest.(check (float 1e-9)) "centroid x" 2.0 r.centroids.(0).(0);
  Alcotest.(check (float 1e-9)) "centroid y" 2.0 r.centroids.(0).(1)

let test_kmeans_separates_clusters () =
  let rng = Prng.create ~seed:2 in
  let near c = Array.map (fun x -> x +. Prng.float rng 0.1) c in
  let a = Array.init 20 (fun _ -> near [| 0.0; 0.0 |]) in
  let b = Array.init 20 (fun _ -> near [| 10.0; 10.0 |]) in
  let points = Array.append a b in
  let r = Simpoint.Kmeans.cluster rng ~points ~k:2 in
  (* all of group a in one cluster, all of b in the other *)
  let ca = r.assignment.(0) in
  check "a together" true
    (Array.for_all (fun i -> i = ca) (Array.sub r.assignment 0 20));
  let cb = r.assignment.(20) in
  check "b together" true
    (Array.for_all (fun i -> i = cb) (Array.sub r.assignment 20 20));
  check "distinct clusters" true (ca <> cb);
  check "tight sse" true (r.sse < 5.0)

let test_kmeans_assignment_valid () =
  let rng = Prng.create ~seed:3 in
  let points = Array.init 30 (fun i -> [| float_of_int (i mod 7); 1.0 |]) in
  let r = Simpoint.Kmeans.cluster rng ~points ~k:4 in
  Array.iter (fun c -> check "valid index" true (c >= 0 && c < r.k)) r.assignment

let test_kmeans_errors () =
  let rng = Prng.create ~seed:4 in
  Alcotest.check_raises "no points" (Invalid_argument "Kmeans.cluster: no points")
    (fun () -> ignore (Simpoint.Kmeans.cluster rng ~points:[||] ~k:2));
  Alcotest.check_raises "bad k" (Invalid_argument "Kmeans.cluster: k <= 0")
    (fun () ->
      ignore (Simpoint.Kmeans.cluster rng ~points:[| [| 1.0 |] |] ~k:0))

let test_best_picks_few_for_tight_data () =
  let rng = Prng.create ~seed:5 in
  let near c = Array.map (fun x -> x +. Prng.float rng 0.05) c in
  let points =
    Array.append
      (Array.init 30 (fun _ -> near [| 0.0; 0.0 |]))
      (Array.init 30 (fun _ -> near [| 50.0; 0.0 |]))
  in
  let r = Simpoint.Kmeans.best ~max_clusters:8 rng ~points in
  check "small k chosen" true (r.k <= 4)

let spec = lazy (Workload.Suite.find "gcc")

let test_analyze_weights () =
  let gen = Workload.Suite.stream (Lazy.force spec) ~length:50_000 in
  let t = Simpoint.analyze ~interval:5_000 gen in
  Alcotest.(check int) "intervals" 10 t.n_intervals;
  let wsum =
    List.fold_left (fun acc p -> acc +. p.Simpoint.weight) 0.0 t.picks
  in
  check "weights sum to 1" true (Float.abs (wsum -. 1.0) < 1e-9);
  List.iter
    (fun p ->
      check "pick in range" true
        Simpoint.(p.interval_index >= 0 && p.interval_index < 10))
    t.picks

let test_simulate_weighted_ipc () =
  let s = Lazy.force spec in
  let factory () = Workload.Suite.stream s ~length:50_000 in
  let t = Simpoint.analyze ~interval:5_000 (factory ()) in
  let ipc =
    Simpoint.simulate_warm Config.Machine.baseline t ~stream_factory:factory
  in
  check "ipc plausible" true (ipc > 0.05 && ipc <= 8.0);
  check "budget accounted" true
    (Simpoint.simulated_instructions t
    = List.length t.picks * 5_000)

let test_simpoint_accuracy_reasonable () =
  (* the weighted-IPC estimate should land within 30% of full EDS at
     this tiny scale *)
  let s = Lazy.force spec in
  let factory () = Workload.Suite.stream s ~length:60_000 in
  let full = Uarch.Eds.run Config.Machine.baseline (factory ()) in
  let t = Simpoint.analyze ~interval:6_000 (factory ()) in
  let ipc =
    Simpoint.simulate_warm Config.Machine.baseline t ~stream_factory:factory
  in
  let err =
    Stats.Summary.absolute_error ~reference:(Uarch.Metrics.ipc full)
      ~predicted:ipc
  in
  check "within 30%" true (err < 0.30)

let suite =
  [
    Alcotest.test_case "kmeans k=1 mean" `Quick test_kmeans_k1_is_mean;
    Alcotest.test_case "kmeans separates" `Quick test_kmeans_separates_clusters;
    Alcotest.test_case "kmeans assignment valid" `Quick test_kmeans_assignment_valid;
    Alcotest.test_case "kmeans errors" `Quick test_kmeans_errors;
    Alcotest.test_case "BIC selection" `Quick test_best_picks_few_for_tight_data;
    Alcotest.test_case "analyze weights" `Quick test_analyze_weights;
    Alcotest.test_case "simulate weighted IPC" `Quick test_simulate_weighted_ipc;
    Alcotest.test_case "accuracy reasonable" `Slow test_simpoint_accuracy_reasonable;
  ]
