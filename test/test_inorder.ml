(* Tests for the in-order / WAW-WAR extension and the chunked/warm
   instrumentation added on top of the paper's framework. *)

let check = Alcotest.(check bool)

let ooo = Config.Machine.baseline
let ino = Config.Machine.in_order_variant ooo

let inst ?(klass = Isa.Iclass.Int_alu) ?(deps = [||]) ?(l1d = false) () =
  {
    Synth.Trace.klass;
    deps;
    l1i_miss = false;
    l2i_miss = false;
    itlb_miss = false;
    l1d_miss = l1d;
    l2d_miss = false;
    dtlb_miss = false;
    block = 0;
    branch = None;
  }

let trace insts = Synth.Trace.of_insts ~k:1 ~reduction:1 insts

let test_in_order_slower () =
  (* an independent divide followed by its consumer, then independent
     work: out-of-order runs the independents under the divide's shadow,
     in-order issue stalls behind the waiting consumer *)
  let insts =
    Array.init 2000 (fun i ->
        if i mod 8 = 0 then inst ~klass:Int_div ()
        else if i mod 8 = 1 then inst ~deps:[| 1 |] ()
        else inst ())
  in
  let o = Synth.Run.run ooo (trace insts) in
  let i = Synth.Run.run ino (trace insts) in
  check "in-order slower" true
    (Uarch.Metrics.ipc i < 0.7 *. Uarch.Metrics.ipc o);
  Alcotest.(check int) "same commits" o.committed i.committed

let test_in_order_commits_all () =
  let spec = Workload.Suite.find "gzip" in
  let m = Uarch.Eds.run ino (Workload.Suite.stream spec ~length:20_000) in
  Alcotest.(check int) "commits all" 20_000 m.committed;
  check "slower than OoO" true
    (Uarch.Metrics.ipc m
    < Uarch.Metrics.ipc
        (Uarch.Eds.run ooo (Workload.Suite.stream spec ~length:20_000)))

let test_waw_recorded_only_in_order () =
  let spec = Workload.Suite.find "vpr" in
  let has_antideps cfg =
    let p = Statsim.profile cfg (Workload.Suite.stream spec ~length:10_000) in
    let found = ref false in
    Profile.Sfg.iter_nodes p.sfg (fun n ->
        Array.iter
          (fun (s : Profile.Sfg.slot) ->
            if not (Stats.Histogram.is_empty s.waw) then found := true)
          n.slots);
    !found
  in
  check "ooo profile has no WAW" false (has_antideps ooo);
  check "in-order profile has WAW" true (has_antideps ino)

let test_extension_improves_accuracy () =
  let spec = Workload.Suite.find "vortex" in
  let stream () = Workload.Suite.stream spec ~length:60_000 in
  let eds = Statsim.reference ino (stream ()) in
  let err p =
    Stats.Summary.absolute_error ~reference:eds.Statsim.ipc
      ~predicted:
        (Statsim.run_profile ~target_length:15_000 ino p ~seed:3).Statsim.ipc
  in
  let raw_only = err (Statsim.profile ooo (stream ())) in
  let extended = err (Statsim.profile ino (stream ())) in
  check "WAW/WAR modeling helps a lot" true (extended < 0.5 *. raw_only)

let test_collect_chunked_totals () =
  let spec = Workload.Suite.find "eon" in
  let ps =
    Profile.Stat_profile.collect_chunked ooo
      (Workload.Suite.stream spec ~length:30_000)
      ~chunk_length:10_000
  in
  Alcotest.(check int) "three chunks" 3 (List.length ps);
  List.iter
    (fun (p : Profile.Stat_profile.t) ->
      Alcotest.(check int) "chunk length" 10_000 p.instructions)
    ps;
  (* chunked instruction totals cover the stream exactly *)
  let total =
    List.fold_left (fun a (p : Profile.Stat_profile.t) -> a + p.instructions) 0 ps
  in
  Alcotest.(check int) "total" 30_000 total

let test_collect_chunked_warm_caches () =
  (* with warm continuation, later chunks must not re-pay cold misses:
     their L1D miss rates should not explode versus a whole-stream
     profile's average *)
  let spec = Workload.Suite.find "gzip" in
  let rate_of (p : Profile.Stat_profile.t) =
    let loads = ref 0 and misses = ref 0 in
    Profile.Sfg.iter_nodes p.sfg (fun n ->
        loads := !loads + n.loads;
        misses := !misses + n.l1d_misses);
    float_of_int !misses /. float_of_int (max 1 !loads)
  in
  let whole =
    rate_of (Statsim.profile ooo (Workload.Suite.stream spec ~length:40_000))
  in
  let chunks =
    Profile.Stat_profile.collect_chunked ooo
      (Workload.Suite.stream spec ~length:40_000)
      ~chunk_length:10_000
  in
  let last = rate_of (List.nth chunks 3) in
  check "warm later chunk" true (last < (2.0 *. whole) +. 0.02)

let test_commit_hook_fires () =
  let spec = Workload.Suite.find "vpr" in
  let calls = ref 0 and last = ref 0 in
  let hook ~committed ~cycle =
    incr calls;
    check "monotone committed" true (committed > !last || !calls = 1);
    check "cycle positive" true (cycle >= 0);
    last := committed
  in
  let m =
    Uarch.Eds.run ~commit_hook:hook ooo (Workload.Suite.stream spec ~length:5_000)
  in
  Alcotest.(check int) "hook per commit" m.committed !calls

let test_simulate_warm_close_to_full () =
  (* full coverage (one interval per pick, equal weights) measured inside
     the warm run must recover the full-run IPC almost exactly *)
  let spec = Workload.Suite.find "eon" in
  let total = 60_000 and interval = 6_000 in
  let factory () = Workload.Suite.stream spec ~length:total in
  let full = Uarch.Eds.run ooo (factory ()) in
  let t =
    {
      Simpoint.interval;
      n_intervals = total / interval;
      picks =
        List.init (total / interval) (fun i ->
            { Simpoint.interval_index = i; weight = 1.0 /. 10.0 });
      clusters = total / interval;
    }
  in
  let ipc = Simpoint.simulate_warm ooo t ~stream_factory:factory in
  check "warm full coverage ~ exact" true
    (Stats.Summary.absolute_error ~reference:(Uarch.Metrics.ipc full)
       ~predicted:ipc
    < 0.03)

let suite =
  [
    Alcotest.test_case "in-order slower" `Quick test_in_order_slower;
    Alcotest.test_case "in-order commits all" `Quick test_in_order_commits_all;
    Alcotest.test_case "WAW recorded only in-order" `Quick
      test_waw_recorded_only_in_order;
    Alcotest.test_case "extension improves accuracy" `Slow
      test_extension_improves_accuracy;
    Alcotest.test_case "chunked totals" `Quick test_collect_chunked_totals;
    Alcotest.test_case "chunked warm caches" `Quick
      test_collect_chunked_warm_caches;
    Alcotest.test_case "commit hook" `Quick test_commit_hook_fires;
    Alcotest.test_case "simulate_warm exactness" `Quick
      test_simulate_warm_close_to_full;
  ]
