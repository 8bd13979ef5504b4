(* Design-space exploration: sweep grammar expansion, CI-aware Pareto
   dominance, and the driver's determinism / amortization invariants. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let values p = List.map snd p
let names p = List.map (fun (ax, _) -> ax.Config.Machine.axis_name) p

let expand_exn sweep =
  match Dse.Sweep.expand sweep with
  | Ok pts -> pts
  | Error msg -> Alcotest.failf "expand failed: %s" msg

(* --- grammar expansion --- *)

let test_cross_order () =
  let open Dse.Sweep in
  let s = make ~name:"t" (cross [ axis "ruu" [ 16; 32 ]; axis "lsq" [ 8; 16 ] ]) in
  check_int "count" 4 (count s.spec);
  let pts = expand_exn s in
  Alcotest.(check (list (list int)))
    "first child slowest-varying"
    [ [ 16; 8 ]; [ 16; 16 ]; [ 32; 8 ]; [ 32; 16 ] ]
    (List.map values pts);
  Alcotest.(check (list string)) "axis order" [ "ruu"; "lsq" ]
    (names (List.hd pts))

let test_zip_lockstep () =
  let open Dse.Sweep in
  let s =
    make ~name:"t"
      (zip [ axis "decode_width" [ 2; 4; 8 ]; axis "issue_width" [ 2; 4; 8 ] ])
  in
  check_int "count" 3 (count s.spec);
  Alcotest.(check (list (list int)))
    "lockstep"
    [ [ 2; 2 ]; [ 4; 4 ]; [ 8; 8 ] ]
    (List.map values (expand_exn s))

let test_log2_range () =
  let open Dse.Sweep in
  (match log2_range "ruu" ~lo:8 ~hi:64 with
  | Axis (_, vs) -> Alcotest.(check (list int)) "endpoints" [ 8; 16; 32; 64 ] vs
  | _ -> Alcotest.fail "expected Axis");
  (match log2_range "ruu" ~lo:8 ~hi:48 with
  | Axis (_, vs) ->
    Alcotest.(check (list int)) "hi not a doubling: excluded" [ 8; 16; 32 ] vs
  | _ -> Alcotest.fail "expected Axis");
  check "lo > hi rejected" true
    (try
       ignore (log2_range "ruu" ~lo:8 ~hi:4);
       false
     with Invalid_argument _ -> true)

let test_guard () =
  let open Dse.Sweep in
  let spec = cross [ axis "ruu" [ 16; 32 ]; axis "lsq" [ 8; 16 ] ] in
  (* per-file guard *)
  (match expand (make ~max_points:3 ~name:"t" spec) with
  | Error msg -> check "guard names the fix" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "guard should reject 4 > 3");
  (* caller override beats the file's guard *)
  check "override admits" true
    (Result.is_ok (expand ~max_points:4 (make ~max_points:3 ~name:"t" spec)));
  check "override rejects" true
    (Result.is_error (expand ~max_points:3 (make ~name:"t" spec)))

let test_bad_specs () =
  let open Dse.Sweep in
  check "zip mismatch" true
    (Result.is_error
       (expand
          (make ~name:"t" (zip [ axis "ruu" [ 16; 32 ]; axis "lsq" [ 8 ] ]))));
  check "duplicate axis in one point" true
    (Result.is_error
       (expand
          (make ~name:"t" (cross [ axis "ruu" [ 16 ]; axis "ruu" [ 32 ] ]))));
  check "unknown axis name" true
    (try
       ignore (axis "frobnicator" [ 1 ]);
       false
     with Invalid_argument _ -> true);
  check "value < 1" true
    (try
       ignore (axis "ruu" [ 0 ]);
       false
     with Invalid_argument _ -> true);
  check "empty values" true
    (try
       ignore (axis "ruu" []);
       false
     with Invalid_argument _ -> true);
  let rejects what f =
    check what true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  rejects "mem_latency above 2^30" (fun () ->
      axis "mem_latency" [ (1 lsl 30) + 1 ]);
  (* every axis takes its bound and rejects one more *)
  List.iter
    (fun (a : Config.Machine.axis) ->
      ignore (axis a.axis_name [ a.axis_max ]);
      rejects (a.axis_name ^ " above its bound") (fun () ->
          axis a.axis_name [ a.axis_max + 1 ]))
    Config.Machine.axes;
  (* sizes a run cannot allocate, and predictor tables that index by
     mask *)
  rejects "ruu 2^40" (fun () -> axis "ruu" [ 16; 1 lsl 40 ]);
  rejects "l2_kb 2^30" (fun () -> axis "l2_kb" [ 256; 1 lsl 30 ]);
  rejects "bpred_entries 1000" (fun () -> axis "bpred_entries" [ 1000 ]);
  (* the doubling stops before it can pass max_int, and the range is
     then rejected at the axis bound *)
  rejects "ruu log2 up to max_int" (fun () ->
      log2_range "ruu" ~lo:1 ~hi:max_int);
  match log2_range "ruu" ~lo:1 ~hi:(1 lsl 16) with
  | Axis (_, vs) ->
    Alcotest.(check (list int)) "log2 up to the ruu bound"
      (List.init 17 (fun i -> 1 lsl i)) vs
  | _ -> Alcotest.fail "expected Axis"

let test_label_apply () =
  let open Dse.Sweep in
  let s = make ~name:"t" (cross [ axis "ruu" [ 48 ]; axis "width" [ 6 ] ]) in
  let p = List.hd (expand_exn s) in
  Alcotest.(check string) "label" "ruu=48 width=6" (label p);
  let cfg = apply Config.Machine.baseline p in
  check_int "ruu applied" 48 cfg.Config.Machine.ruu_size;
  check_int "width applied" 6 cfg.Config.Machine.decode_width;
  check_int "width gangs issue" 6 cfg.Config.Machine.issue_width

let test_json () =
  let open Dse.Sweep in
  let doc =
    {|{ "name": "j", "max_points": 99,
        "sweep": { "cross": [
          { "axis": "ruu", "values": [16, 32] },
          { "axis": "lsq", "log2": { "from": 8, "to": 16 } },
          { "zip": [ { "axis": "decode_width", "values": [2, 4] },
                     { "axis": "issue_width", "values": [2, 4] } ] } ] } }|}
  in
  (match of_string doc with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok s ->
    Alcotest.(check string) "name" "j" s.sweep_name;
    Alcotest.(check (option int)) "max_points" (Some 99) s.max_points;
    check_int "count" 8 (count s.spec);
    check_int "points" 8 (List.length (expand_exn s)));
  check "unknown axis" true
    (Result.is_error (of_string {|{ "name": "j", "sweep": { "axis": "nope", "values": [1] } }|}));
  check "missing sweep" true
    (Result.is_error (of_string {|{ "name": "j" }|}));
  check "not json" true (Result.is_error (of_string "{"));
  (* int_of_float is unspecified this far out *)
  check "huge value" true
    (Result.is_error
       (of_string {|{ "name": "j", "sweep": { "axis": "ruu", "values": [1e300] } }|}));
  check "mem_latency log2 past its bound" true
    (Result.is_error
       (of_string
          {|{ "name": "j", "sweep": { "axis": "mem_latency",
                                       "log2": { "from": 1, "to": 3e18 } } }|}))

(* --- Pareto dominance --- *)

let pt ?(ipc_ci = 0.0) ?(edp_ci = 0.0) ipc edp =
  {
    Dse.Pareto.ipc = { value = ipc; ci = ipc_ci };
    edp = { value = edp; ci = edp_ci };
  }

let test_dominance () =
  let open Dse.Pareto in
  check "better both" true (dominates (pt 2.0 10.0) (pt 1.0 20.0));
  check "better one, equal other" true (dominates (pt 2.0 10.0) (pt 1.0 10.0));
  check "equal points" false (dominates (pt 1.0 10.0) (pt 1.0 10.0));
  check "trade-off" false (dominates (pt 2.0 30.0) (pt 1.0 10.0));
  check "irreflexive" false (dominates (pt 2.0 10.0) (pt 2.0 10.0))

let test_ci_tie () =
  (* overlapping CIs on both objectives: neither point dominates, both
     survive to the frontier — the CI-aware rule's whole point *)
  let a = pt ~ipc_ci:0.2 ~edp_ci:1.0 1.0 10.0 in
  let b = pt ~ipc_ci:0.2 ~edp_ci:1.0 0.9 11.0 in
  check "a !> b under overlap" false (Dse.Pareto.dominates a b);
  check "b !> a under overlap" false (Dse.Pareto.dominates b a);
  let flags = Dse.Pareto.frontier_flags [| a; b |] in
  check "both on frontier" true (flags.(0) && flags.(1));
  (* shrink the CIs: the separation becomes significant and a wins *)
  let a = pt ~ipc_ci:0.01 ~edp_ci:0.1 1.0 10.0 in
  let b = pt ~ipc_ci:0.01 ~edp_ci:0.1 0.9 11.0 in
  check "a > b when separated" true (Dse.Pareto.dominates a b);
  let flags = Dse.Pareto.frontier_flags [| a; b |] in
  check "only a on frontier" true (flags.(0) && not flags.(1))

(* with zero CIs, dominance is the classic weak order: a strict partial
   order, so the frontier is exactly the set of maximal elements *)
let prop_frontier_zero_ci =
  QCheck.Test.make ~name:"zero-CI frontier: maximal, covering, non-empty"
    ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 30)
        (pair (float_range 0.0 4.0) (float_range 1.0 100.0)))
    (fun raw ->
      let pts = Array.of_list (List.map (fun (i, e) -> pt i e) raw) in
      let flags = Dse.Pareto.frontier_flags pts in
      let n = Array.length pts in
      let dominated i =
        let d = ref None in
        for j = 0 to n - 1 do
          if !d = None && j <> i && Dse.Pareto.dominates pts.(j) pts.(i) then
            d := Some j
        done;
        !d
      in
      let ok = ref (Array.exists Fun.id flags) in
      for i = 0 to n - 1 do
        match (flags.(i), dominated i) with
        | true, Some _ | false, None -> ok := false
        | true, None | false, Some _ -> ()
      done;
      (* every dominated point is dominated by some *frontier* point
         (transitivity of the zero-CI order) *)
      for i = 0 to n - 1 do
        if not flags.(i) then begin
          let by_frontier = ref false in
          for j = 0 to n - 1 do
            if flags.(j) && Dse.Pareto.dominates pts.(j) pts.(i) then
              by_frontier := true
          done;
          if not !by_frontier then ok := false
        end
      done;
      !ok)

(* --- driver --- *)

let tiny_sweep () =
  Dse.Sweep.make ~name:"tiny"
    (Dse.Sweep.cross
       [ Dse.Sweep.axis "ruu" [ 16; 32 ]; Dse.Sweep.axis "width" [ 2; 4 ] ])

let run_tiny ?(jobs = 1) ?(replicas = 1) cache =
  match
    Dse.Driver.run ~cache ~jobs ~replicas ~length:20_000 ~target_length:4_000
      ~sweep:(tiny_sweep ())
      ~bench:(Workload.Suite.find "gcc")
      ~seed:7 ()
  with
  | Ok r -> r
  | Error msg -> Alcotest.failf "driver failed: %s" msg

let test_driver_amortizes () =
  let cache = Runner.Cache.create () in
  let r = run_tiny cache in
  check_int "points" 4 (Array.length r.Dse.Driver.points);
  check "has a frontier" true (r.Dse.Driver.frontier_count >= 1);
  let st = Runner.Cache.stats cache in
  check_int "one profile collection" 1 st.Runner.Cache.profile_computes;
  check_int "one plan compilation" 1 st.Runner.Cache.plan_computes;
  (* a second sweep on the same cache recomputes nothing *)
  let _ = run_tiny cache in
  let st = Runner.Cache.stats cache in
  check_int "still one profile collection" 1 st.Runner.Cache.profile_computes;
  check_int "still one plan compilation" 1 st.Runner.Cache.plan_computes

let test_driver_deterministic () =
  let json jobs replicas =
    Runner.Report.json_string
      (Dse.Driver.to_report (run_tiny ~jobs ~replicas (Runner.Cache.create ())))
  in
  Alcotest.(check string) "jobs 1 = jobs 4" (json 1 1) (json 4 1);
  Alcotest.(check string)
    "jobs 1 = jobs 3, with replicas" (json 1 3) (json 3 3)

let test_driver_replicas_ci () =
  let r = run_tiny ~replicas:4 (Runner.Cache.create ()) in
  check "some replica dispersion" true
    (Array.exists (fun p -> p.Dse.Driver.ipc.ci95 > 0.0) r.Dse.Driver.points);
  let single = run_tiny (Runner.Cache.create ()) in
  check "single replica: zero CI" true
    (Array.for_all
       (fun p -> p.Dse.Driver.ipc.ci95 = 0.0)
       single.Dse.Driver.points)

let test_driver_store_resume () =
  (* a throwaway store root, as in test_store.ml *)
  let root = Filename.temp_file "statsim_dse" "" in
  Sys.remove root;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () ->
      let cold = Runner.Cache.create ~store:(Store.open_root root) () in
      let r1 = run_tiny cold in
      let st = Runner.Cache.stats cold in
      check_int "cold run computes the profile" 1
        st.Runner.Cache.profile_computes;
      (* a fresh process (modelled as a fresh cache on the same root)
         resumes from disk: zero computes, store hits answer instead *)
      let warm = Runner.Cache.create ~store:(Store.open_root root) () in
      let r2 = run_tiny warm in
      let st = Runner.Cache.stats warm in
      check_int "warm run computes nothing" 0
        st.Runner.Cache.profile_computes;
      check_int "warm run compiles nothing" 0 st.Runner.Cache.plan_computes;
      check "warm run hit the store" true (st.Runner.Cache.store_hits > 0);
      Alcotest.(check string)
        "cold and warm reports byte-identical"
        (Runner.Report.json_string (Dse.Driver.to_report r1))
        (Runner.Report.json_string (Dse.Driver.to_report r2)))

(* Profiling reads the cache geometry, so a cache sweep collects one
   profile per size and each point's IPC sees its own cache. *)
let test_driver_profiles_per_cache () =
  let cache = Runner.Cache.create () in
  let sweep =
    Dse.Sweep.make ~name:"icache" (Dse.Sweep.axis "icache_kb" [ 1; 64 ])
  in
  match
    Dse.Driver.run ~cache ~length:20_000 ~target_length:4_000 ~sweep
      ~bench:(Workload.Suite.find "gcc")
      ~seed:7 ()
  with
  | Error msg -> Alcotest.failf "driver failed: %s" msg
  | Ok r ->
    let st = Runner.Cache.stats cache in
    check_int "one profile per cache size" 2 st.Runner.Cache.profile_computes;
    check_int "one plan per profile" 2 st.Runner.Cache.plan_computes;
    let ipc i = r.Dse.Driver.points.(i).Dse.Driver.ipc.mean in
    check "the bigger I-cache runs faster" true (ipc 1 > ipc 0)

let test_driver_oversize () =
  match
    Dse.Driver.run
      ~cache:(Runner.Cache.create ())
      ~max_points:2 ~length:20_000 ~target_length:4_000 ~sweep:(tiny_sweep ())
      ~bench:(Workload.Suite.find "gcc")
      ~seed:7 ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "guard should have rejected 4 > 2"

(* Concurrent sweeps for different workloads on one shared cache: the
   compile-once guard counts each call's own work, not the cache's, so
   no call trips it, every workload is collected and compiled once, and
   each call renders what it renders alone on a fresh cache. *)
let test_driver_concurrent_calls () =
  let sweep = Dse.Sweep.make ~name:"ruu" (Dse.Sweep.axis "ruu" [ 16; 32 ]) in
  let run cache (spec : Workload.Spec.t) =
    match
      Dse.Driver.run ~cache ~length:20_000 ~target_length:4_000 ~sweep
        ~bench:spec ~seed:7 ()
    with
    | Ok r -> Ok (Runner.Report.json_string (Dse.Driver.to_report r))
    | Error m -> Error m
    | exception e -> Error (Printexc.to_string e)
  in
  let specs = Array.of_list Workload.Suite.all in
  let alone = Array.map (run (Runner.Cache.create ())) specs in
  for round = 1 to 3 do
    let cache = Runner.Cache.create () in
    let shared = Parallel.map ~jobs:2 (run cache) specs in
    Array.iteri
      (fun i (spec : Workload.Spec.t) ->
        Alcotest.(check (result string string))
          (Printf.sprintf "round %d, %s" round spec.name)
          alone.(i) shared.(i))
      specs;
    let st = Runner.Cache.stats cache in
    check_int "one collection per workload" (Array.length specs)
      st.Runner.Cache.profile_computes;
    check_int "one compile per workload" (Array.length specs)
      st.Runner.Cache.plan_computes
  done

(* The engine on Table 4's window and cache-size machines returns, per
   machine and seed, what the one-shot path gives on the profile at the
   machine's profile configuration, and collects and compiles once per
   profile group. *)
let test_evaluate_matches_one_shot () =
  let bench = Workload.Suite.find "twolf" in
  let length = 20_000 and target_length = 4_000 and seeds = [| 11; 12 |] in
  let machines =
    List.concat_map
      (fun f -> List.map snd (Experiments.Table4.configs f))
      [ Experiments.Table4.Window; Experiments.Table4.Cache_size ]
    |> Array.of_list
  in
  let pcfg = Profile.Stat_profile.profile_config ~base:Config.Machine.baseline in
  let groups = List.sort_uniq compare (List.map pcfg (Array.to_list machines)) in
  check_int "window shares the base profile, cache sizes split" 5
    (List.length groups);
  let cache = Runner.Cache.create () in
  match
    Dse.Driver.evaluate ~cache ~jobs:2 ~length ~target_length ~bench ~seeds
      machines
  with
  | Error m -> Alcotest.failf "evaluate failed: %s" m
  | Ok results ->
    let st = Runner.Cache.stats cache in
    check_int "one collection per group" 5 st.Runner.Cache.profile_computes;
    check_int "one compile per group" 5 st.Runner.Cache.plan_computes;
    Array.iteri
      (fun i cfg ->
        let p = Statsim.profile (pcfg cfg) (Workload.Suite.stream bench ~length) in
        Array.iteri
          (fun j seed ->
            let want = Statsim.run_profile ~target_length cfg p ~seed in
            Alcotest.(check string)
              (Printf.sprintf "machine %d, seed %d" i seed)
              (Uarch.Metrics.encode want.Statsim.metrics)
              (Uarch.Metrics.encode results.(i).(j).Statsim.metrics))
          seeds)
      machines

(* A set keeps all its ways, so a cache with more ways than blocks
   models a larger cache than configured: such a point is a usage error
   that names it, raised before any profile is collected. *)
let test_driver_rejects_ways_over_blocks () =
  let run assocs =
    let cache = Runner.Cache.create () in
    let sweep =
      Dse.Sweep.make ~name:"ways"
        (Dse.Sweep.cross
           [
             Dse.Sweep.axis "icache_kb" [ 1 ];
             Dse.Sweep.axis "icache_assoc" assocs;
           ])
    in
    let r =
      Dse.Driver.run ~cache ~length:20_000 ~target_length:4_000 ~sweep
        ~bench:(Workload.Suite.find "gcc")
        ~seed:7 ()
    in
    (r, (Runner.Cache.stats cache).Runner.Cache.profile_computes)
  in
  (match run [ 32 ] with
  | Ok r, _ ->
    check_int "32 ways: one point" 1 (Array.length r.Dse.Driver.points)
  | Error m, _ -> Alcotest.failf "32 ways rejected: %s" m);
  List.iter
    (fun ways ->
      match run [ 32; ways ] with
      | Ok _, _ -> Alcotest.failf "%d ways accepted" ways
      | Error m, computes ->
        Alcotest.(check string)
          (Printf.sprintf "%d ways named" ways)
          (Printf.sprintf
             "design point icache_kb=1 icache_assoc=%d: icache has %d ways \
              but 32 blocks"
             ways ways)
          m;
        check_int "rejected before profiling" 0 computes)
    [ 64; 1024 ];
  let set (name : string) v cfg =
    match Config.Machine.find_axis name with
    | Some a -> a.axis_set cfg v
    | None -> Alcotest.failf "no axis %s" name
  in
  let base = Config.Machine.baseline in
  List.iter
    (fun (what, cfg) ->
      check what true (Result.is_error (Config.Machine.validate cfg)))
    [
      ( "dcache 1 KiB x 64 ways",
        set "dcache_assoc" 64 (set "dcache_kb" 1 base) );
      ("l2 1 KiB x 32 ways", set "l2_assoc" 32 (set "l2_kb" 1 base));
    ];
  check "l2 1 KiB x 16 ways" true
    (Config.Machine.validate (set "l2_assoc" 16 (set "l2_kb" 1 base)) = Ok ())

(* Every machine the repository ships passes the machine rules: the two
   baselines, every point of the sweeps in examples/, and the 8 points
   of perfbench's dse-sweep workload (restated here: ruu 16-128 x lsq 8,
   32 x width 8). *)
let test_shipped_points_valid () =
  let valid label base sweep =
    List.iter
      (fun point ->
        match Config.Machine.validate (Dse.Sweep.apply base point) with
        | Ok () -> ()
        | Error m ->
          Alcotest.failf "%s, %s: %s" label (Dse.Sweep.label point) m)
      (expand_exn sweep)
  in
  let none = Dse.Sweep.make ~name:"none" (Dse.Sweep.axis "ruu" [ 128 ]) in
  valid "baseline" Config.Machine.baseline none;
  valid "hls baseline" Config.Machine.hls_baseline none;
  (* the test runs in the build tree's test/ under dune runtest and at
     the root under dune exec *)
  let dir = List.find Sys.file_exists [ "../examples"; "examples" ] in
  let files =
    List.filter
      (fun f -> Filename.check_suffix f ".json")
      (Array.to_list (Sys.readdir dir))
  in
  check "example sweeps found" true (files <> []);
  List.iter
    (fun f ->
      match Dse.Sweep.load_file (Filename.concat dir f) with
      | Ok sweep -> valid f Config.Machine.baseline sweep
      | Error m -> Alcotest.failf "%s: %s" f m)
    files;
  valid "perfbench dse-sweep" Config.Machine.baseline
    (Dse.Sweep.make ~name:"ruu_lsq"
       (Dse.Sweep.cross
          [
            Dse.Sweep.axis "ruu" [ 16; 32; 64; 128 ];
            Dse.Sweep.axis "lsq" [ 8; 32 ];
            Dse.Sweep.axis "width" [ 8 ];
          ]))

let suite =
  [
    Alcotest.test_case "cross order" `Quick test_cross_order;
    Alcotest.test_case "zip lockstep" `Quick test_zip_lockstep;
    Alcotest.test_case "log2 range" `Quick test_log2_range;
    Alcotest.test_case "point-count guard" `Quick test_guard;
    Alcotest.test_case "bad specs" `Quick test_bad_specs;
    Alcotest.test_case "label and apply" `Quick test_label_apply;
    Alcotest.test_case "sweep files" `Quick test_json;
    Alcotest.test_case "dominance" `Quick test_dominance;
    Alcotest.test_case "CI-overlap tie" `Quick test_ci_tie;
    QCheck_alcotest.to_alcotest prop_frontier_zero_ci;
    Alcotest.test_case "driver amortizes" `Quick test_driver_amortizes;
    Alcotest.test_case "driver deterministic" `Quick test_driver_deterministic;
    Alcotest.test_case "driver replica CIs" `Quick test_driver_replicas_ci;
    Alcotest.test_case "driver store resume" `Quick test_driver_store_resume;
    Alcotest.test_case "driver oversize" `Quick test_driver_oversize;
    Alcotest.test_case "driver profiles per cache size" `Quick
      test_driver_profiles_per_cache;
    Alcotest.test_case "driver rejects more ways than blocks" `Quick
      test_driver_rejects_ways_over_blocks;
    Alcotest.test_case "driver concurrent calls on one cache" `Quick
      test_driver_concurrent_calls;
    Alcotest.test_case "evaluate = one-shot on Table 4 machines" `Quick
      test_evaluate_matches_one_shot;
    Alcotest.test_case "shipped machines pass validate" `Quick
      test_shipped_points_valid;
  ]
