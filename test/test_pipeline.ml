(* Pipeline-core regression pins: the MD5 of [Uarch.Metrics.encode] over
   a fixed matrix of workloads, machines and run modes. Any change to
   the core's internals must keep every digest; a digest that moves is a
   behaviour change, not a refactor. *)

let base = Config.Machine.baseline

(* RUU 16 and 128, in-order issue, the HLS machine, a wide window with
   a deep fetch queue, and a 2-wide machine *)
let machines =
  [
    ("ruu16", Config.Machine.with_window base ~ruu:16 ~lsq:8);
    ("ruu128", base);
    ("in-order", Config.Machine.in_order_variant base);
    ("hls", Config.Machine.hls_baseline);
    ( "ruu256-ifq64",
      Config.Machine.with_ifq (Config.Machine.with_window base ~ruu:256 ~lsq:64) 64
    );
    ("width2", Config.Machine.with_width base 2);
  ]

let streams =
  [
    ("gcc", fun ~length -> Workload.Suite.stream (Workload.Suite.find "gcc") ~length);
    ( "twolf",
      fun ~length -> Workload.Suite.stream (Workload.Suite.find "twolf") ~length );
    ( "swim",
      fun ~length ->
        Workload.Suite_fp.stream (Workload.Suite_fp.find "swim") ~length );
  ]

let profile_length = 20_000
let synthetic = 4_000
let seed = 7

(* one profile, plan and materialized trace per workload *)
let inputs =
  lazy
    (List.map
       (fun (name, stream) ->
         let p = Statsim.profile base (stream ~length:profile_length) in
         let plan = Statsim.compile_plan ~target_length:synthetic p in
         (name, plan, Synth.Generate.generate_of_plan plan ~seed))
       streams)

let digest runs = Digest.to_hex (Digest.string (String.concat "\n" runs))

let synthetic_digest run =
  digest
    (List.concat_map
       (fun (_, _, trace) ->
         List.map
           (fun (_, cfg) -> Uarch.Metrics.encode (run cfg trace))
           machines)
       (Lazy.force inputs))

let eds_length = 12_000

let eds_digest () =
  digest
    (List.concat_map
       (fun (_, stream) ->
         List.map
           (fun run -> Uarch.Metrics.encode (run (stream ~length:eds_length)))
           [
             Uarch.Eds.run base;
             Uarch.Eds.run (Config.Machine.in_order_variant base);
             Uarch.Eds.run Config.Machine.hls_baseline;
             Uarch.Eds.run ~perfect_caches:true ~perfect_bpred:true base;
           ])
       streams)

(* The machines the matrix above lacks, where a window or queue of one
   entry and a very slow memory stress the core's bookkeeping: a one-slot
   RUU and LSQ, a two-slot RUU behind an 8-wide front end, a one-entry
   fetch queue, a 1-wide in-order core and a 2,000-cycle memory. *)
let edge_machines =
  [
    Config.Machine.with_window base ~ruu:1 ~lsq:1;
    Config.Machine.with_width (Config.Machine.with_window base ~ruu:2 ~lsq:1) 8;
    Config.Machine.with_ifq base 1;
    Config.Machine.with_width (Config.Machine.in_order_variant base) 1;
    { base with mem_latency = 2_000 };
  ]

let edge_workloads = [ "gcc"; "twolf" ]

(* every run mode on every edge machine: the event and dense loops,
   wrong-path locality, a run from the plan and EDS *)
let edge_digest () =
  let synthetic =
    List.concat_map
      (fun (_, plan, trace) ->
        List.concat_map
          (fun cfg ->
            [
              Synth.Run.run cfg trace;
              Synth.Run.run ~skip_idle:false cfg trace;
              Synth.Run.run ~wrong_path_locality:true cfg trace;
              (Statsim.run_plan cfg plan ~seed).Statsim.metrics;
            ])
          edge_machines)
      (List.filter
         (fun (name, _, _) -> List.mem name edge_workloads)
         (Lazy.force inputs))
  in
  let eds =
    List.concat_map
      (fun (_, stream) ->
        List.map
          (fun cfg -> Uarch.Eds.run cfg (stream ~length:eds_length))
          edge_machines)
      (List.filter (fun (name, _) -> List.mem name edge_workloads) streams)
  in
  digest (List.map Uarch.Metrics.encode (synthetic @ eds))

(* Machines whose longest issue latency lands on different powers of
   two, and RUU sizes that are not powers of two: a 1-cycle and a
   5,000-cycle memory, a 60-cycle L2 hit, a 200-cycle TLB walk, and
   RUU/LSQ 24/12 and 96/48. *)
let wheel_machines =
  let tlb (t : Config.Machine.tlb) = { t with miss_penalty = 200 } in
  [
    { base with mem_latency = 1 };
    { base with mem_latency = 5_000 };
    { base with l2 = { base.l2 with hit_latency = 60 } };
    { base with itlb = tlb base.itlb; dtlb = tlb base.dtlb };
    Config.Machine.with_window base ~ruu:24 ~lsq:12;
    Config.Machine.with_window base ~ruu:96 ~lsq:48;
  ]

(* the event and dense synthetic runs, a run from the plan and EDS on
   each *)
let wheel_digest () =
  let synthetic =
    List.concat_map
      (fun (_, plan, trace) ->
        List.concat_map
          (fun cfg ->
            [
              Synth.Run.run cfg trace;
              Synth.Run.run ~skip_idle:false cfg trace;
              (Statsim.run_plan cfg plan ~seed).Statsim.metrics;
            ])
          wheel_machines)
      (List.filter
         (fun (name, _, _) -> List.mem name edge_workloads)
         (Lazy.force inputs))
  in
  let eds =
    List.concat_map
      (fun (_, stream) ->
        List.map
          (fun cfg -> Uarch.Eds.run cfg (stream ~length:eds_length))
          wheel_machines)
      (List.filter (fun (name, _) -> List.mem name edge_workloads) streams)
  in
  digest (List.map Uarch.Metrics.encode (synthetic @ eds))

let pinned =
  [
    ( "synthetic",
      "d983fce515e6d517a816eb8e03a14589",
      fun () -> synthetic_digest (fun cfg trace -> Synth.Run.run cfg trace) );
    ( "dense loop",
      "d983fce515e6d517a816eb8e03a14589",
      fun () ->
        synthetic_digest (fun cfg trace ->
            Synth.Run.run ~skip_idle:false cfg trace) );
    ( "wrong-path locality",
      "83867937d4bda936546a8f82029825ea",
      fun () ->
        synthetic_digest (fun cfg trace ->
            Synth.Run.run ~wrong_path_locality:true cfg trace) );
    ("EDS", "b911401a33ca52300a048690b783e9dd", eds_digest);
    ("edge machines", "59b25dab1936899fb3c7ccb1c67402da", edge_digest);
    ("wheel machines", "da89592058123637be8257ec050e5d8f", wheel_digest);
  ]

let test_digests_pinned () =
  List.iter
    (fun (label, expected, compute) ->
      Alcotest.(check string) (label ^ " metrics digest") expected (compute ()))
    pinned

let gcc_trace () =
  let _, _, trace = List.hd (Lazy.force inputs) in
  trace

(* One load miss to a 250,000-cycle memory keeps commit idle for longer
   than the watchdog's 200,000-cycle floor, so the bound must scale with
   the machine. Neither that memory nor a 10^7-cycle one may size the
   run's memory: the timing wheel stops at 1,024 buckets and slower
   loads wait in its overflow list (a wheel sized to a 10^7-cycle memory
   would take 2^24 buckets, 128 MiB). *)
let test_watchdog_scales_with_latency () =
  let trace = gcc_trace () in
  List.iter
    (fun mem_latency ->
      let label = Printf.sprintf "%d-cycle memory" mem_latency in
      let before = Gc.allocated_bytes () in
      let m = Synth.Run.run { base with mem_latency } trace in
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check int) (label ^ ": commits the whole trace")
        (Synth.Trace.length trace) m.Uarch.Metrics.committed;
      Alcotest.(check bool) (label ^ ": pays at least one memory miss") true
        (m.cycles > mem_latency);
      if allocated > 1e6 then
        Alcotest.failf "%s: allocated %.0f bytes for one run" label allocated)
    [ 250_000; 10_000_000 ]

let stage_counters =
  [
    "uarch.wakeups";
    "uarch.issue_examined";
    "uarch.cycles_skipped";
    "uarch.squashed";
  ]

(* the per-stage work counters one run publishes *)
let counted_run cfg trace =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let read () =
    let snap = Telemetry.snapshot () in
    List.map (Telemetry.counter_total snap) stage_counters
  in
  let before = read () in
  let m = Synth.Run.run cfg trace in
  let after = read () in
  Telemetry.set_enabled was;
  (m, List.map2 ( - ) after before)

(* The counters are the core's work ledger. They are exact, so they are
   pinned like the digests: a change that only speeds the core leaves
   every one, and the cycle count, equal. The second machine's loads
   outlast the timing wheel's lap. *)
let test_stage_counters () =
  let trace = gcc_trace () in
  let ledger cfg =
    let m, counts = counted_run cfg trace in
    match counts with
    | [ wakeups; examined; skipped; squashed ] ->
      Alcotest.(check bool) "every issue was examined" true
        (examined >= m.Uarch.Metrics.activity.Power.Activity.issued);
      Alcotest.(check bool) "fewer skipped than simulated cycles" true
        (skipped < m.cycles);
      let _, again = counted_run cfg trace in
      Alcotest.(check (list int)) "counts repeat exactly" counts again;
      [ wakeups; examined; skipped; squashed; m.cycles ]
    | _ -> assert false
  in
  Alcotest.(check (list (pair string (list int))))
    "wakeups, examined, skipped, squashed, cycles"
    [
      ("baseline", [ 2269; 3784; 3848; 476; 5028 ]);
      ("memory 5,000", [ 2269; 3784; 115398; 476; 116578 ]);
    ]
    [
      ("baseline", ledger base);
      ("memory 5,000", ledger { base with mem_latency = 5_000 });
    ]

(* The synthetic core allocates nothing per instruction: generation
   writes the packed trace in place, the feed answers in ints and the
   RUU lives in int arrays. What is left is per-run setup, so the bound
   is one minor word per instruction. It holds for k = 1 plans and for
   k = 0 plans, whose walk restarts at every block. [Gc.minor_words] is
   exact; [Gc.quick_stat]'s count is not on OCaml 5.1. *)
let words_per f =
  let before = Gc.minor_words () in
  let n = f () in
  (Gc.minor_words () -. before) /. float_of_int (max 1 n)

let alloc_machines =
  List.filter
    (fun (name, _) -> List.mem name [ "ruu16"; "ruu128"; "in-order" ])
    machines

let test_allocation_bound () =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled was)
    (fun () ->
      List.iter
        (fun ((name, stream), k) ->
          let name = Printf.sprintf "%s k=%d" name k in
          let p = Statsim.profile ~k base (stream ~length:100_000) in
          let plan = Statsim.compile_plan ~target_length:8_000 p in
          let bound label w =
            if w > 1.0 then
              Alcotest.failf "%s: %.2f minor words per instruction" label w
          in
          let trace = ref None in
          bound (name ^ " generate_of_plan")
            (words_per (fun () ->
                 let t = Synth.Generate.generate_of_plan plan ~seed in
                 trace := Some t;
                 Synth.Trace.length t));
          let trace = Option.get !trace in
          List.iter
            (fun (machine, cfg) ->
              let label = name ^ " on " ^ machine in
              bound (label ^ ": run")
                (words_per (fun () ->
                     (Synth.Run.run cfg trace).Uarch.Metrics.committed)))
            alloc_machines)
        (List.concat_map
           (fun w -> [ (w, 1); (w, 0) ])
           (List.filter
              (fun (name, _) -> List.mem name edge_workloads)
              streams)))

(* EDS allocates what its stream allocates and nearly nothing more: the
   caches, TLBs and predictor answer in ints, and the feed keeps each
   position in preallocated slots. On all ten workloads, an EDS run's
   minor words per instruction stay within one word of draining the
   same stream. *)
let test_eds_allocation () =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled was)
    (fun () ->
      List.iter
        (fun name ->
          (* the stream's program is built before the count starts *)
          let stream () =
            Workload.Suite.stream (Workload.Suite.find name) ~length:20_000
          in
          let drain =
            let gen = stream () in
            words_per (fun () ->
                let rec go n =
                  match gen () with Some _ -> go (n + 1) | None -> n
                in
                go 0)
          in
          let eds =
            let gen = stream () in
            words_per (fun () ->
                (Uarch.Eds.run base gen).Uarch.Metrics.committed)
          in
          if eds -. drain > 1.0 then
            Alcotest.failf
              "%s: EDS %.2f minor words per instruction, draining %.2f" name eds
              drain)
        Workload.Suite.names)

let suite =
  [
    Alcotest.test_case "metrics digests pinned" `Quick test_digests_pinned;
    Alcotest.test_case "watchdog scales with latency" `Quick
      test_watchdog_scales_with_latency;
    Alcotest.test_case "stage counters" `Quick test_stage_counters;
    Alcotest.test_case "allocation bound" `Quick test_allocation_bound;
    Alcotest.test_case "EDS allocation" `Quick test_eds_allocation;
  ]
