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
       (fun (_, plan, trace) ->
         List.map
           (fun (_, cfg) -> Uarch.Metrics.encode (run cfg plan trace))
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

let pinned =
  [
    ( "synthetic",
      "d983fce515e6d517a816eb8e03a14589",
      fun () -> synthetic_digest (fun cfg _ trace -> Synth.Run.run cfg trace) );
    ( "dense loop",
      "d983fce515e6d517a816eb8e03a14589",
      fun () ->
        synthetic_digest (fun cfg _ trace ->
            Synth.Run.run ~skip_idle:false cfg trace) );
    ( "wrong-path locality",
      "83867937d4bda936546a8f82029825ea",
      fun () ->
        synthetic_digest (fun cfg _ trace ->
            Synth.Run.run ~wrong_path_locality:true cfg trace) );
    ( "streamed",
      "d983fce515e6d517a816eb8e03a14589",
      fun () ->
        synthetic_digest (fun cfg plan _ ->
            Synth.Run.run_stream_of_plan cfg plan ~seed) );
    ("EDS", "b911401a33ca52300a048690b783e9dd", eds_digest);
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
   the machine. *)
let test_watchdog_scales_with_latency () =
  let trace = gcc_trace () in
  let m = Synth.Run.run { base with mem_latency = 250_000 } trace in
  Alcotest.(check int) "commits the whole trace" (Synth.Trace.length trace)
    m.Uarch.Metrics.committed;
  Alcotest.(check bool) "pays at least one memory miss" true
    (m.cycles > 250_000)

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

let test_stage_counters () =
  let trace = gcc_trace () in
  let m, counts = counted_run base trace in
  match counts with
  | [ wakeups; examined; skipped; squashed ] ->
    Alcotest.(check bool) "some wakeups" true (wakeups > 0);
    Alcotest.(check bool) "every issue was examined" true
      (examined >= m.Uarch.Metrics.activity.Power.Activity.issued);
    Alcotest.(check bool) "idle cycles skipped" true (skipped > 0);
    Alcotest.(check bool) "fewer skipped than simulated cycles" true
      (skipped < m.cycles);
    Alcotest.(check bool) "mispredicts squash" true (squashed > 0);
    let _, again = counted_run base trace in
    Alcotest.(check (list int)) "counts repeat exactly" counts again
  | _ -> assert false

let suite =
  [
    Alcotest.test_case "metrics digests pinned" `Quick test_digests_pinned;
    Alcotest.test_case "watchdog scales with latency" `Quick
      test_watchdog_scales_with_latency;
    Alcotest.test_case "stage counters" `Quick test_stage_counters;
  ]
