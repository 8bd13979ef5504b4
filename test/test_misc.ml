(* Cross-cutting small tests: pretty-printers, parameter validation,
   remaining sampler corners. *)

let check = Alcotest.(check bool)

let test_exponential_positive_mean () =
  let rng = Prng.create ~seed:12 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Prng.exponential rng ~mean:5.0 in
    check "positive" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  check "mean ~ 5" true (Float.abs (mean -. 5.0) < 0.2)

let test_choose_uniform () =
  let rng = Prng.create ~seed:13 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 9_000 do
    let v = Prng.choose rng [| 'a'; 'b'; 'c' |] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  Hashtbl.iter
    (fun _ c -> check "roughly uniform" true (abs (c - 3000) < 300))
    counts

let test_histogram_add_many_negative () =
  let h = Stats.Histogram.create () in
  Alcotest.check_raises "negative count"
    (Invalid_argument "Histogram.add_many: negative count") (fun () ->
      Stats.Histogram.add_many h 1 (-1))

let test_metrics_pp_smoke () =
  let m =
    Uarch.Eds.run Config.Machine.baseline
      (Workload.Suite.stream (Workload.Suite.find "vpr") ~length:3_000)
  in
  let s = Format.asprintf "%a" Uarch.Metrics.pp m in
  check "prints IPC" true
    (String.length s > 10 && String.sub s 0 4 = "IPC=")

let test_dyn_inst_pp_smoke () =
  let i =
    {
      Isa.Dyn_inst.pc = 0x400000;
      klass = Isa.Iclass.Load;
      dest = 5;
      srcs = [| 1 |];
      mem_addr = 0x1000;
      branch = None;
      block = 3;
      first_in_block = true;
    }
  in
  let s = Format.asprintf "%a" Isa.Dyn_inst.pp i in
  check "mentions class" true
    (String.length s > 5
    && String.length (String.concat "" (String.split_on_char ' ' s)) > 5)

let test_spec_validation_cases () =
  let base = Workload.Spec.default in
  let bad_cases =
    [
      { base with n_funcs = 0 };
      { base with func_structs = 0 };
      { base with block_len_mean = 0.5 };
      { base with biased_frac = 0.8; pattern_frac = 0.3 };
      { base with dep_geo_p = 0.0 };
      { base with region_skew = 1.5 };
      { base with data_footprint = 10 };
      { base with switch_fanout = 1 };
      { base with loop_trip_mean = 0.5 };
      { base with chase_frac = -0.1 };
    ]
  in
  List.iter
    (fun spec ->
      check "rejected" true (Result.is_error (Workload.Spec.validate spec)))
    bad_cases

let test_iclass_pp () =
  Array.iter
    (fun c ->
      let s = Format.asprintf "%a" Isa.Iclass.pp c in
      check "non-empty" true (String.length s > 0))
    Isa.Iclass.all

let test_resolution_to_string () =
  check "names distinct" true
    (List.length
       (List.sort_uniq compare
          (List.map Branch.Predictor.resolution_to_string
             [ Branch.Predictor.Correct; Fetch_redirect; Mispredict ]))
    = 3)

let test_hierarchy_perfect_path_unused () =
  (* the hit constant used by feeds in perfect mode *)
  let o = Cache.Hierarchy.hit in
  check "all clear" true
    (not
       (Cache.Hierarchy.l1_miss o || Cache.Hierarchy.l2_miss o
      || Cache.Hierarchy.tlb_miss o))

let test_watchdog_fires_on_starved_feed () =
  (* a feed that claims an instruction exists but never lets it complete
     cannot happen through the public API; instead check the simpler
     liveness property: an empty trace terminates immediately *)
  let m =
    Synth.Run.run Config.Machine.baseline
      (Synth.Trace.of_insts ~k:1 ~reduction:1 [||])
  in
  Alcotest.(check int) "no commits" 0 m.committed

let suite =
  [
    Alcotest.test_case "exponential sampler" `Quick test_exponential_positive_mean;
    Alcotest.test_case "choose uniform" `Quick test_choose_uniform;
    Alcotest.test_case "histogram negative count" `Quick
      test_histogram_add_many_negative;
    Alcotest.test_case "metrics pp" `Quick test_metrics_pp_smoke;
    Alcotest.test_case "dyn_inst pp" `Quick test_dyn_inst_pp_smoke;
    Alcotest.test_case "spec validation cases" `Quick test_spec_validation_cases;
    Alcotest.test_case "iclass pp" `Quick test_iclass_pp;
    Alcotest.test_case "resolution names" `Quick test_resolution_to_string;
    Alcotest.test_case "hierarchy hit constant" `Quick
      test_hierarchy_perfect_path_unused;
    Alcotest.test_case "empty trace" `Quick test_watchdog_fires_on_starved_feed;
  ]
