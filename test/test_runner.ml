(* Runner layer: memo table, Domain pool determinism, plan execution. *)

let test_memo_compute_once () =
  let m = Runner.Memo.create () in
  let calls = ref 0 in
  let f () =
    incr calls;
    !calls * 10
  in
  Alcotest.(check int) "first computes" 10 (Runner.Memo.get m ~key:"a" f);
  Alcotest.(check int) "second cached" 10 (Runner.Memo.get m ~key:"a" f);
  Alcotest.(check int) "distinct key computes" 20 (Runner.Memo.get m ~key:"b" f);
  Alcotest.(check int) "thunk ran twice" 2 !calls;
  Alcotest.(check int) "hits" 1 (Runner.Memo.hits m);
  Alcotest.(check int) "misses" 2 (Runner.Memo.misses m);
  Alcotest.(check int) "size" 2 (Runner.Memo.size m)

let test_memo_failure_retries () =
  let m = Runner.Memo.create () in
  let attempts = ref 0 in
  let flaky () =
    incr attempts;
    if !attempts = 1 then failwith "first try fails" else 42
  in
  Alcotest.check_raises "first raises" (Failure "first try fails") (fun () ->
      ignore (Runner.Memo.get m ~key:"k" flaky));
  Alcotest.(check int) "retry succeeds" 42 (Runner.Memo.get m ~key:"k" flaky)

let test_memo_concurrent_single_compute () =
  (* two jobs sharing a key: the computation runs once even when domains
     race for it *)
  let m = Runner.Memo.create () in
  let calls = Atomic.make 0 in
  let slow_compute () =
    Atomic.incr calls;
    Unix.sleepf 0.02;
    "shared"
  in
  let results =
    Parallel.map ~jobs:4
      (fun _ -> Runner.Memo.get m ~key:"profile:gcc" slow_compute)
      [| 0; 1; 2; 3 |]
  in
  Array.iter (Alcotest.(check string) "all see the value" "shared") results;
  Alcotest.(check int) "computed once" 1 (Atomic.get calls);
  Alcotest.(check int) "one miss" 1 (Runner.Memo.misses m);
  Alcotest.(check int) "three hits" 3 (Runner.Memo.hits m)

let test_cache_profile_shared () =
  (* two jobs that need the same (workload, config, options) profile hit
     one collection *)
  let c = Runner.Cache.create () in
  let spec = Workload.Suite.find "gzip" in
  let mk () = Workload.Suite.stream spec ~length:5_000 in
  let cfg = Config.Machine.baseline in
  let p1 = Runner.Cache.profile c cfg ~stream_key:"int:gzip:n5000" mk in
  let p2 = Runner.Cache.profile c ~k:1 cfg ~stream_key:"int:gzip:n5000" mk in
  Alcotest.(check bool) "same profile object" true (p1 == p2);
  let st = Runner.Cache.stats c in
  Alcotest.(check int) "one miss" 1 st.profile_misses;
  Alcotest.(check int) "one hit (k=1 is the default)" 1 st.profile_hits;
  (* a different option set is a different entry *)
  let p3 = Runner.Cache.profile c ~k:2 cfg ~stream_key:"int:gzip:n5000" mk in
  Alcotest.(check bool) "k=2 distinct" true (p3 != p1);
  Alcotest.(check int) "two misses" 2 (Runner.Cache.stats c).profile_misses

let test_cache_estimate_memoized () =
  (* the zero-simulation analytical estimate is memoized per
     (profile, config, reduction): the second lookup answers from the
     memo and distinct reductions are distinct entries *)
  let c = Runner.Cache.create () in
  let cfg = Config.Machine.baseline in
  let p =
    Statsim.profile cfg
      (Workload.Suite.stream (Workload.Suite.find "gzip") ~length:5_000)
  in
  let e1 = Runner.Cache.estimate c ~reduction:8 cfg p in
  let e2 = Runner.Cache.estimate c ~reduction:8 cfg p in
  Alcotest.(check bool) "same estimate object" true (e1 == e2);
  let st = Runner.Cache.stats c in
  Alcotest.(check int) "one miss" 1 st.estimate_misses;
  Alcotest.(check int) "one hit" 1 st.estimate_hits;
  let e3 = Runner.Cache.estimate c ~reduction:4 cfg p in
  Alcotest.(check bool) "other reduction distinct" true (e3 != e1);
  Alcotest.(check int) "two misses" 2 (Runner.Cache.stats c).estimate_misses;
  (* the memo returns exactly what a direct estimate computes *)
  let direct = Analytical.estimate ~reduction:8 cfg p in
  Alcotest.(check (float 1e-12)) "same ipc" direct.ipc e1.ipc

let test_pool_exception () =
  Alcotest.check_raises "re-raises lowest-index failure"
    (Invalid_argument "boom 2") (fun () ->
      ignore
        (Parallel.map ~jobs:3
           (fun i ->
             if i >= 2 then
               invalid_arg (Printf.sprintf "boom %d" i)
             else i)
           [| 0; 1; 2; 3 |]))

(* Over-asking by a few domains runs on at most the recommended count:
   the parent and its extra domains. *)
let test_pool_caps_domains () =
  let n = Domain.recommended_domain_count () + 4 in
  let ids =
    Parallel.map ~jobs:n
      (fun _ ->
        Unix.sleepf 0.002;
        (Domain.self () :> int))
      (Array.make n ())
  in
  let distinct = List.length (List.sort_uniq compare (Array.to_list ids)) in
  if distinct > Domain.recommended_domain_count () then
    Alcotest.failf "%d domains for %d recommended" distinct
      (Domain.recommended_domain_count ())

let test_pool_jobs_equal =
  QCheck.Test.make ~count:50 ~name:"pool: jobs=4 equals jobs=1"
    QCheck.(list small_int)
    (fun xs ->
      let a = Array.of_list xs in
      let f x = (x * 7919) lxor (x lsl 3) in
      Parallel.map ~jobs:1 f a = Parallel.map ~jobs:4 f a)

let test_plan_parallel_deterministic () =
  (* a small end-to-end plan produces the same rendered report at
     jobs=1 and jobs=4 *)
  let plan =
    Runner.Plan.make
      ~jobs:(fun () -> Array.init 9 (fun i -> i))
      ~exec:(fun _cache i ->
        (* unequal job costs encourage out-of-order completion *)
        if i mod 3 = 0 then Unix.sleepf 0.005;
        float_of_int (i * i) +. 0.5)
      ~reduce:(fun jobs results ->
        let open Runner.Report in
        {
          id = "test";
          blocks =
            [
              Line "head";
              table ~name:"main" ~columns:[ "sq" ]
                (Array.to_list
                   (Array.map2
                      (fun j r -> (string_of_int j, nums [ r ]))
                      jobs results));
            ];
        })
  in
  let render jobs =
    let ctx = Runner.Exec.create_ctx ~jobs () in
    Format.asprintf "%a" Runner.Report.to_text (Runner.Exec.run ctx plan)
  in
  Alcotest.(check string) "same text" (render 1) (render 4)

(* --- store-backed ops, each through a fresh env as a new CLI process
   would run it --- *)

let with_store_root f =
  let root = Filename.temp_file "statsim_warm" "" in
  Sys.remove root;
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled was;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () -> f root)

let span_calls name =
  match Telemetry.span_stat (Telemetry.snapshot ()) name with
  | Some s -> s.Telemetry.calls
  | None -> 0

let spans =
  [
    "profile.encode"; "profile.decode"; "plan.encode"; "plan.decode";
    "cache.plan.compile";
  ]

(* [calls] ops through one env: the outputs (or error messages), the
   env's cache stats and each span's calls over the ops *)
let run_ops ?cache_dir ~op calls =
  let before = List.map span_calls spans in
  let env = Server.Ops.default_env ~jobs:1 ?cache_dir () in
  let outs =
    List.map
      (fun params ->
        match Server.Ops.dispatch env ~op params with
        | Ok r -> Server.Ops.output r
        | Error e -> "error: " ^ e)
      calls
  in
  let delta =
    List.map2 (fun name b -> (name, span_calls name - b)) spans before
  in
  (outs, Runner.Cache.stats env.cache, fun name -> List.assoc name delta)

let run_op ?cache_dir ~op params =
  match run_ops ?cache_dir ~op [ params ] with
  | [ out ], st, calls -> (out, st, calls)
  | _ -> assert false

let sim_params ?(synthetic = 600) () =
  Telemetry.Json.(
    Obj
      [
        ("bench", Str "gcc"); ("length", Num 4000.0);
        ("synthetic", Num (float_of_int synthetic));
      ])

(* The store entry files whose key starts with [prefix]; a frame holds
   its key after the magic, a u16 version and a u32 key length. *)
let entries root prefix =
  let objects = Filename.concat root "objects" in
  Array.to_list (Sys.readdir objects)
  |> List.concat_map (fun sub ->
         let dir = Filename.concat objects sub in
         List.map (Filename.concat dir) (Array.to_list (Sys.readdir dir)))
  |> List.filter (fun path ->
         let frame = In_channel.with_open_bin path In_channel.input_all in
         let len = Int32.to_int (String.get_int32_be frame 8) in
         String.starts_with ~prefix (String.sub frame 12 len))

let only_entry root prefix =
  match entries root prefix with
  | [ path ] -> path
  | l -> Alcotest.failf "%d %s entries" (List.length l) prefix

(* A cold then a warm `simulate` over one store: the warm call must
   print the same bytes while reading its three entries (profile, plan,
   EDS reference) from disk, computing nothing and encoding nothing. It
   decodes the plan and the reference only: the plan key comes from the
   stored profile's bytes, which are verified but never decoded. *)
let test_warm_store_simulate () =
  with_store_root (fun root ->
      let run () = run_op ~cache_dir:root ~op:"simulate" (sim_params ()) in
      let cold, _, cold_calls = run () in
      let warm, st, warm_calls = run () in
      Alcotest.(check string) "warm output byte-identical" cold warm;
      Alcotest.(check int) "no profile collected" 0 st.profile_computes;
      Alcotest.(check int) "no plan compiled" 0 st.plan_computes;
      Alcotest.(check int) "no EDS run" 0 st.reference_computes;
      Alcotest.(check int) "three store hits" 3 st.store_hits;
      Alcotest.(check int) "no store misses" 0 st.store_misses;
      Alcotest.(check int) "warm profile.decode" 0 (warm_calls "profile.decode");
      Alcotest.(check int) "warm profile.encode" 0 (warm_calls "profile.encode");
      Alcotest.(check int) "warm plan.decode" 1 (warm_calls "plan.decode");
      Alcotest.(check int) "cold profile.encode" 1 (cold_calls "profile.encode");
      Alcotest.(check int) "cold plan.encode" 1 (cold_calls "plan.encode"))

(* The other two ops that need a profile only for its plan: warm, each
   answers as it did cold and with no store, decoding no profile. *)
let test_warm_store_replicate_dse () =
  let sweep =
    Telemetry.Json.(
      Obj
        [
          ("name", Str "w");
          ( "sweep",
            Obj [ ("axis", Str "ruu"); ("values", Arr [ Num 16.0; Num 32.0 ]) ]
          );
        ])
  in
  List.iter
    (fun (op, params) ->
      with_store_root (fun root ->
          let plain, _, _ = run_op ~op params in
          let cold, _, _ = run_op ~cache_dir:root ~op params in
          let warm, st, calls = run_op ~cache_dir:root ~op params in
          Alcotest.(check string) (op ^ ": cold = no store") plain cold;
          Alcotest.(check string) (op ^ ": warm = cold") cold warm;
          Alcotest.(check int) (op ^ ": warm profile.decode") 0
            (calls "profile.decode");
          Alcotest.(check int) (op ^ ": warm collects nothing") 0
            st.profile_computes;
          Alcotest.(check int) (op ^ ": warm compiles nothing") 0
            st.plan_computes))
    [
      ( "replicate",
        Telemetry.Json.(
          Obj
            [
              ("bench", Str "gcc"); ("length", Num 4000.0);
              ("synthetic", Num 600.0); ("replicas", Num 2.0);
            ]) );
      ( "dse",
        Telemetry.Json.(
          Obj
            [
              ("sweep", sweep); ("bench", Str "gcc"); ("length", Num 4000.0);
              ("synthetic", Num 600.0);
            ]) );
    ]

(* One store-backed env answering the same request twice, as a
   long-running daemon does: the stored profile is read once, for the
   first request, and never decoded. *)
let test_warm_env_reads_profile_once () =
  with_store_root (fun root ->
      let cold, _, _ = run_op ~cache_dir:root ~op:"simulate" (sim_params ()) in
      match
        run_ops ~cache_dir:root ~op:"simulate" [ sim_params (); sim_params () ]
      with
      | [ a; b ], st, calls ->
        Alcotest.(check string) "first = cold" cold a;
        Alcotest.(check string) "second = cold" cold b;
        (* reference, profile and plan, each read once *)
        Alcotest.(check int) "three store reads" 3 st.store_hits;
        Alcotest.(check int) "no profile.decode" 0 (calls "profile.decode")
      | _ -> assert false)

(* Without its plan entry, a warm call decodes the stored profile once
   to compile it once, and answers the same. *)
let test_warm_store_plan_deleted () =
  with_store_root (fun root ->
      let cold, _, _ = run_op ~cache_dir:root ~op:"simulate" (sim_params ()) in
      Sys.remove (only_entry root "plan/");
      let warm, st, calls =
        run_op ~cache_dir:root ~op:"simulate" (sim_params ())
      in
      Alcotest.(check string) "same output" cold warm;
      Alcotest.(check int) "profile decoded once" 1 (calls "profile.decode");
      Alcotest.(check int) "plan compiled once" 1
        (calls "cache.plan.compile");
      Alcotest.(check int) "no profile collected" 0 st.profile_computes;
      Alcotest.(check int) "plan stored again" 1
        (List.length (entries root "plan/")))

(* A damaged profile entry is quarantined and the profile recollected;
   the answer is the same. *)
let test_warm_store_profile_corrupt () =
  with_store_root (fun root ->
      let cold, _, _ = run_op ~cache_dir:root ~op:"simulate" (sim_params ()) in
      let path = only_entry root "profile/" in
      let frame =
        Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
      in
      let last = Bytes.length frame - 1 in
      Bytes.set frame last (Char.chr (Char.code (Bytes.get frame last) lxor 1));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc frame);
      let warm, st, _ = run_op ~cache_dir:root ~op:"simulate" (sim_params ()) in
      Alcotest.(check string) "same output" cold warm;
      Alcotest.(check int) "quarantined" 1 st.store_quarantined;
      Alcotest.(check int) "profile recollected" 1 st.profile_computes;
      Alcotest.(check int) "stored plan still answers" 0 st.plan_computes)

(* A synthetic length whose reduction empties the graph is the same
   usage error with no store, cold and warm. *)
let test_empty_graph_warm_and_cold () =
  with_store_root (fun root ->
      let params = sim_params ~synthetic:1 () in
      let plain, _, _ = run_op ~op:"simulate" params in
      let cold, _, _ = run_op ~cache_dir:root ~op:"simulate" params in
      let warm, _, _ = run_op ~cache_dir:root ~op:"simulate" params in
      Alcotest.(check bool) "an error" true
        (String.starts_with ~prefix:"error: reduction factor" plain);
      Alcotest.(check string) "cold = no store" plain cold;
      Alcotest.(check string) "warm = cold" cold warm)

let suite =
  [
    Alcotest.test_case "memo computes once" `Quick test_memo_compute_once;
    Alcotest.test_case "memo failure retries" `Quick test_memo_failure_retries;
    Alcotest.test_case "memo concurrent single compute" `Quick
      test_memo_concurrent_single_compute;
    Alcotest.test_case "cache shares profiles" `Quick test_cache_profile_shared;
    Alcotest.test_case "cache memoizes estimates" `Quick
      test_cache_estimate_memoized;
    Alcotest.test_case "pool re-raises" `Quick test_pool_exception;
    Alcotest.test_case "pool caps its domains" `Quick test_pool_caps_domains;
    QCheck_alcotest.to_alcotest test_pool_jobs_equal;
    Alcotest.test_case "plan deterministic across jobs" `Quick
      test_plan_parallel_deterministic;
    Alcotest.test_case "warm store simulate re-encodes nothing" `Quick
      test_warm_store_simulate;
    Alcotest.test_case "warm store replicate and dse decode no profile" `Quick
      test_warm_store_replicate_dse;
    Alcotest.test_case "warm env reads a stored profile once" `Quick
      test_warm_env_reads_profile_once;
    Alcotest.test_case "warm store without its plan compiles once" `Quick
      test_warm_store_plan_deleted;
    Alcotest.test_case "warm store with a damaged profile recollects" `Quick
      test_warm_store_profile_corrupt;
    Alcotest.test_case "empty graph: same error warm and cold" `Quick
      test_empty_graph_warm_and_cold;
  ]
