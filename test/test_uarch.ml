(* Pipeline-core micro-scenarios, driven through the synthetic feed so
   every input bit is controlled. *)

let check = Alcotest.(check bool)

let inst ?(klass = Isa.Iclass.Int_alu) ?(deps = [||]) ?(l1d = false)
    ?(l2d = false) ?(l1i = false) ?branch () =
  {
    Synth.Trace.klass;
    deps;
    l1i_miss = l1i;
    l2i_miss = false;
    itlb_miss = false;
    l1d_miss = l1d;
    l2d_miss = l2d;
    dtlb_miss = false;
    block = 0;
    branch;
  }

let trace insts = Synth.Trace.of_insts ~k:1 ~reduction:1 insts

let run ?(cfg = Config.Machine.baseline) insts =
  Synth.Run.run cfg (trace insts)

let test_commits_everything () =
  let m = run (Array.init 1000 (fun _ -> inst ())) in
  Alcotest.(check int) "all committed" 1000 m.committed

let test_ilp_wide () =
  (* independent single-cycle ALU ops: IPC close to the 8-wide limit *)
  let m = run (Array.init 4000 (fun _ -> inst ())) in
  check "IPC near width" true (Uarch.Metrics.ipc m > 6.0)

let test_serial_chain () =
  (* every instruction depends on its predecessor: IPC ~ 1 *)
  let m = run (Array.init 4000 (fun _ -> inst ~deps:[| 1 |] ())) in
  let ipc = Uarch.Metrics.ipc m in
  check "chain serializes" true (ipc > 0.8 && ipc < 1.2)

let test_long_latency_chain () =
  (* chained int divides (20 cycles): IPC ~ 1/20 *)
  let m =
    run (Array.init 500 (fun _ -> inst ~klass:Int_div ~deps:[| 1 |] ()))
  in
  let ipc = Uarch.Metrics.ipc m in
  check "div chain ~0.05 IPC" true (ipc < 0.08)

let test_fu_contention () =
  (* only 2 int mult/div units: independent multiplies cap at 2/cycle *)
  let m = run (Array.init 4000 (fun _ -> inst ~klass:Int_mult ())) in
  let ipc = Uarch.Metrics.ipc m in
  check "mult throughput ~2" true (ipc > 1.5 && ipc < 2.3)

let test_load_miss_slows () =
  let fast = run (Array.init 2000 (fun _ -> inst ~klass:Load ~deps:[| 1 |] ())) in
  let slow =
    run
      (Array.init 2000 (fun _ ->
           inst ~klass:Load ~deps:[| 1 |] ~l1d:true ~l2d:true ()))
  in
  check "L2-missing dependent loads are much slower" true
    (Uarch.Metrics.ipc fast > 3.0 *. Uarch.Metrics.ipc slow)

let branch ?(taken = false) ?(mispredict = false) ?(redirect = false) () =
  inst ~klass:Int_branch
    ~branch:{ Synth.Trace.taken; mispredict; redirect } ()

let test_mispredicts_cost () =
  let block mispredict =
    Array.append
      (Array.init 7 (fun _ -> inst ()))
      [| branch ~taken:true ~mispredict () |]
  in
  let mk mis = Array.concat (List.init 300 (fun _ -> block mis)) in
  let good = run (mk false) and bad = run (mk true) in
  Alcotest.(check int) "good commits" 2400 good.committed;
  Alcotest.(check int) "bad commits" 2400 bad.committed;
  check "mispredicts hurt IPC" true
    (Uarch.Metrics.ipc good > 1.5 *. Uarch.Metrics.ipc bad);
  Alcotest.(check int) "mispredicts counted" 300 bad.mispredicts

let test_redirect_cost_small () =
  let block redirect =
    Array.append
      (Array.init 7 (fun _ -> inst ()))
      [| branch ~taken:true ~redirect () |]
  in
  let mk r = Array.concat (List.init 300 (fun _ -> block r)) in
  let plain = run (mk false) and redir = run (mk true) in
  let ipc_p = Uarch.Metrics.ipc plain and ipc_r = Uarch.Metrics.ipc redir in
  check "redirect costs something" true (ipc_r < ipc_p);
  check "redirect cheaper than flush" true (ipc_r > 0.5 *. ipc_p);
  Alcotest.(check int) "redirects counted" 300 redir.redirects

let test_taken_branch_fetch_limit () =
  (* with every branch taken, fetch can follow only fetch_speed taken
     branches per cycle; tiny blocks throttle IPC *)
  let block = [| inst (); branch ~taken:true () |] in
  let m = run (Array.concat (List.init 1000 (fun _ -> block))) in
  let ipc = Uarch.Metrics.ipc m in
  check "taken-branch throttle" true (ipc <= 4.2)

let test_icache_miss_stalls_fetch () =
  let hot = run (Array.init 2000 (fun _ -> inst ())) in
  let cold = run (Array.init 2000 (fun i -> inst ~l1i:(i mod 8 = 0) ())) in
  check "I-miss slows fetch" true
    (Uarch.Metrics.ipc cold < 0.8 *. Uarch.Metrics.ipc hot)

let test_occupancy_bounds () =
  let cfg = Config.Machine.baseline in
  let m =
    Synth.Run.run cfg
      (trace (Array.init 3000 (fun _ -> inst ~klass:Load ~l1d:true ~l2d:true ())))
  in
  check "RUU occupancy bounded" true
    (Uarch.Metrics.avg_ruu_occupancy m <= float_of_int cfg.ruu_size);
  check "LSQ occupancy bounded" true
    (Uarch.Metrics.avg_lsq_occupancy m <= float_of_int cfg.lsq_size);
  check "IFQ occupancy bounded" true
    (Uarch.Metrics.avg_ifq_occupancy m <= float_of_int cfg.ifq_size)

let test_narrow_machine () =
  let cfg = Config.Machine.with_width Config.Machine.baseline 2 in
  let m = Synth.Run.run cfg (trace (Array.init 3000 (fun _ -> inst ()))) in
  let ipc = Uarch.Metrics.ipc m in
  check "2-wide caps IPC" true (ipc <= 2.05 && ipc > 1.2)

let test_window_sensitivity () =
  (* long-latency independent loads need window to overlap *)
  let mk () = Array.init 2000 (fun i -> inst ~klass:Load ~l1d:(i mod 4 = 0) ()) in
  let small =
    Synth.Run.run (Config.Machine.with_window Config.Machine.baseline ~ruu:8 ~lsq:4)
      (trace (mk ()))
  in
  let big =
    Synth.Run.run
      (Config.Machine.with_window Config.Machine.baseline ~ruu:128 ~lsq:32)
      (trace (mk ()))
  in
  check "bigger window helps" true
    (Uarch.Metrics.ipc big > Uarch.Metrics.ipc small)

let test_deps_beyond_window_ready () =
  (* distance far larger than RUU: producer long committed, no deadlock *)
  let m = run (Array.init 2000 (fun _ -> inst ~deps:[| 500 |] ())) in
  Alcotest.(check int) "commits fine" 2000 m.committed

let test_feed_ring_memoizes () =
  let calls = ref 0 in
  let items = Array.make 64 0 in
  let produce slot =
    incr calls;
    items.(slot) <- !calls;
    !calls <= 50
  in
  let ring = Uarch.Feed.Ring.create ~window:64 produce in
  let get i = items.(Uarch.Feed.Ring.index ring i) in
  check "get 10" true (get 9 = 10);
  check "re-get same" true (get 9 = 10);
  Alcotest.(check int) "produced once" 10 !calls;
  check "end of stream" true (not (Uarch.Feed.Ring.mem ring 99))

(* the dispatch-stall attribution invariant: every zero-dispatch cycle
   is charged to exactly one cause, so the six counters always sum to
   the independently counted dispatch_stall_cycles *)
let stall_scenarios () =
  [
    ("plain", Array.init 800 (fun _ -> inst ()));
    ("serial chain", Array.init 800 (fun i -> inst ~deps:(if i = 0 then [||] else [| 1 |]) ()));
    ( "missing loads",
      Array.init 800 (fun _ -> inst ~klass:Load ~deps:[| 1 |] ~l1d:true ~l2d:true ()) );
    ( "mispredicts",
      Array.concat
        (List.init 100 (fun _ ->
             Array.append
               (Array.init 7 (fun _ -> inst ()))
               [| branch ~taken:true ~mispredict:true () |])) );
    ( "redirects",
      Array.concat
        (List.init 100 (fun _ ->
             Array.append
               (Array.init 7 (fun _ -> inst ()))
               [| branch ~taken:true ~redirect:true () |])) );
    ("cold icache", Array.init 800 (fun i -> inst ~l1i:(i mod 8 = 0) ()));
    ( "alu chain behind missing load",
      Array.init 800 (fun i ->
          if i mod 100 = 0 then inst ~klass:Load ~l1d:true ~l2d:true ()
          else inst ~deps:[| 1 |] ()) );
  ]

let test_stall_partition () =
  List.iter
    (fun (name, insts) ->
      let m = run insts in
      Alcotest.(check int)
        (name ^ ": causes partition the stall cycles")
        m.Uarch.Metrics.dispatch_stall_cycles
        (Uarch.Metrics.stall_total m.Uarch.Metrics.stalls);
      check
        (name ^ ": stalls bounded by cycles") true
        (m.Uarch.Metrics.dispatch_stall_cycles <= m.Uarch.Metrics.cycles))
    (stall_scenarios ())

let test_stall_causes_attributed () =
  (* each targeted scenario surfaces its own dominant cause *)
  let stalls insts = (run insts).Uarch.Metrics.stalls in
  let window =
    (* a dependence chain stuck behind an L2-missing load: commit stops
       while dispatch keeps filling the window with ALU ops *)
    stalls
      (Array.init 800 (fun i ->
           if i mod 100 = 0 then inst ~klass:Load ~l1d:true ~l2d:true ()
           else inst ~deps:[| 1 |] ()))
  in
  check "blocked chain fills the window" true (window.Uarch.Metrics.ruu_full > 0);
  let blocked_loads =
    stalls
      (Array.init 800 (fun _ -> inst ~klass:Load ~deps:[| 1 |] ~l1d:true ~l2d:true ()))
  in
  check "missing loads block on the LSQ" true
    (blocked_loads.Uarch.Metrics.lsq_full > 0);
  let redirects =
    stalls
      (Array.concat
         (List.init 100 (fun _ ->
              Array.append
                (Array.init 7 (fun _ -> inst ()))
                [| branch ~taken:true ~redirect:true () |])))
  in
  check "redirects bubble the front end" true
    (redirects.Uarch.Metrics.fetch_redirect > 0);
  let squash =
    stalls
      (Array.concat
         (List.init 100 (fun _ ->
              Array.append
                (Array.init 7 (fun _ -> inst ()))
                [| branch ~taken:true ~mispredict:true () |])))
  in
  check "mispredicts drain as squashes" true
    (squash.Uarch.Metrics.squash_drain > 0);
  let icache = stalls (Array.init 800 (fun i -> inst ~l1i:(i mod 4 = 0) ())) in
  check "I-cache misses stall the front end" true
    (icache.Uarch.Metrics.icache_miss > 0)

let test_stalls_wire_roundtrip () =
  (* the stall attribution survives the versioned integer codec *)
  let m =
    run
      (Array.concat
         (List.init 100 (fun _ ->
              Array.append
                (Array.init 7 (fun i -> inst ~deps:(if i = 0 then [||] else [| 1 |]) ()))
                [| branch ~taken:true ~mispredict:true () |])))
  in
  let m' = Uarch.Metrics.decode (Uarch.Metrics.encode m) in
  check "nonzero attribution exercised" true
    (Uarch.Metrics.stall_total m.Uarch.Metrics.stalls > 0);
  Alcotest.(check (list (pair string int)))
    "stall causes identical"
    (Uarch.Metrics.stall_causes m.Uarch.Metrics.stalls)
    (Uarch.Metrics.stall_causes m'.Uarch.Metrics.stalls);
  Alcotest.(check int)
    "dispatch stall cycles identical" m.Uarch.Metrics.dispatch_stall_cycles
    m'.Uarch.Metrics.dispatch_stall_cycles;
  Alcotest.(check string)
    "re-encode is bit-identical" (Uarch.Metrics.encode m)
    (Uarch.Metrics.encode m')

let test_eds_end_to_end_sane () =
  let cfg = Config.Machine.baseline in
  let spec = Workload.Suite.find "gzip" in
  let m = Uarch.Eds.run cfg (Workload.Suite.stream spec ~length:20_000) in
  Alcotest.(check int) "commits the stream" 20_000 m.committed;
  let ipc = Uarch.Metrics.ipc m in
  check "IPC plausible" true (ipc > 0.05 && ipc <= 8.0);
  check "branch stats consistent" true
    (m.mispredicts + m.redirects <= m.branches && m.taken <= m.branches)

let test_eds_perfect_modes_faster () =
  let cfg = Config.Machine.baseline in
  let spec = Workload.Suite.find "twolf" in
  let base = Uarch.Eds.run cfg (Workload.Suite.stream spec ~length:20_000) in
  let perfect =
    Uarch.Eds.run ~perfect_caches:true ~perfect_bpred:true cfg
      (Workload.Suite.stream spec ~length:20_000)
  in
  check "perfect modes speed up" true
    (Uarch.Metrics.ipc perfect > Uarch.Metrics.ipc base);
  Alcotest.(check int) "no mispredicts when perfect" 0 perfect.mispredicts

let suite =
  [
    Alcotest.test_case "commits everything" `Quick test_commits_everything;
    Alcotest.test_case "wide ILP" `Quick test_ilp_wide;
    Alcotest.test_case "serial chain" `Quick test_serial_chain;
    Alcotest.test_case "long-latency chain" `Quick test_long_latency_chain;
    Alcotest.test_case "FU contention" `Quick test_fu_contention;
    Alcotest.test_case "load miss latency" `Quick test_load_miss_slows;
    Alcotest.test_case "mispredict cost" `Quick test_mispredicts_cost;
    Alcotest.test_case "redirect cost" `Quick test_redirect_cost_small;
    Alcotest.test_case "taken-branch fetch limit" `Quick
      test_taken_branch_fetch_limit;
    Alcotest.test_case "icache miss stalls" `Quick test_icache_miss_stalls_fetch;
    Alcotest.test_case "occupancy bounds" `Quick test_occupancy_bounds;
    Alcotest.test_case "narrow machine" `Quick test_narrow_machine;
    Alcotest.test_case "window sensitivity" `Quick test_window_sensitivity;
    Alcotest.test_case "far deps ready" `Quick test_deps_beyond_window_ready;
    Alcotest.test_case "feed ring memoizes" `Quick test_feed_ring_memoizes;
    Alcotest.test_case "stall causes partition stall cycles" `Quick
      test_stall_partition;
    Alcotest.test_case "stall causes attributed" `Quick
      test_stall_causes_attributed;
    Alcotest.test_case "stall attribution wire roundtrip" `Quick
      test_stalls_wire_roundtrip;
    Alcotest.test_case "EDS end-to-end" `Quick test_eds_end_to_end_sane;
    Alcotest.test_case "EDS perfect modes" `Quick test_eds_perfect_modes_faster;
  ]
