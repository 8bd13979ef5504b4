(* Experiment-infrastructure tests (the experiments themselves run in
   bench/main.exe; here we check the registry and pure helpers). *)

let check = Alcotest.(check bool)

let test_registry_complete () =
  let ids = Experiments.Registry.ids () in
  List.iter
    (fun id -> check id true (List.mem id ids))
    [
      "table1"; "fig3"; "fig4"; "table3"; "fig5"; "fig6"; "cov"; "fig7";
      "fig8"; "table4"; "dse"; "speed"; "ablation"; "inorder"; "predictors"; "baselines"; "fp";
    ];
  Alcotest.(check int) "17 experiments" 17 (List.length ids)

let test_registry_lookup () =
  check "finds fig6" true (Experiments.Registry.find "fig6" <> None);
  check "unknown is None" true (Experiments.Registry.find "nope" = None)

let test_fig4_average () =
  let row errors = { Experiments.Fig4.bench = "x"; eds_ipc = 1.0; errors } in
  let avg =
    Experiments.Fig4.average
      [ row [| 2.0; 4.0; 6.0; 8.0 |]; row [| 4.0; 6.0; 8.0; 10.0 |] ]
  in
  Alcotest.(check (float 1e-9)) "avg k0" 3.0 avg.(0);
  Alcotest.(check (float 1e-9)) "avg k3" 9.0 avg.(3)

let test_table4_configs () =
  List.iter
    (fun family ->
      let cfgs = Experiments.Table4.configs family in
      check "at least 4 points" true (List.length cfgs >= 4);
      check "has metrics" true
        (List.length (Experiments.Table4.metric_names family) >= 3))
    Experiments.Table4.families

let test_dse_grid () =
  let g = Experiments.Sec46.grid () in
  Alcotest.(check int)
    "37 (ruu, lsq) pairs x 4^3 widths" 2_368 (List.length g);
  List.iter
    (fun (c : Config.Machine.t) ->
      check "lsq <= ruu" true (c.lsq_size <= c.ruu_size))
    g

let test_phased_stream_length () =
  let spec = Workload.Suite.find "gzip" in
  let gen = Experiments.Exp_common.phased_stream spec ~phases:4 ~length:8_000 in
  let rec count n = match gen () with Some _ -> count (n + 1) | None -> n in
  Alcotest.(check int) "total length" 8_000 (count 0)

let suite =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "registry lookup" `Quick test_registry_lookup;
    Alcotest.test_case "fig4 average" `Quick test_fig4_average;
    Alcotest.test_case "table4 configs" `Quick test_table4_configs;
    Alcotest.test_case "dse grid" `Quick test_dse_grid;
    Alcotest.test_case "phased stream" `Quick test_phased_stream_length;
  ]
