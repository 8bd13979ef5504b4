(* HLS baseline tests. *)

let check = Alcotest.(check bool)

let cfg = Config.Machine.hls_baseline

let collect name len =
  Hls.collect cfg
    (Workload.Suite.stream (Workload.Suite.find name) ~length:len)

let test_profile_sane () =
  let p = collect "gcc" 30_000 in
  Alcotest.(check int) "instructions" 30_000 p.instructions;
  let mix_total = Array.fold_left ( +. ) 0.0 p.mix in
  check "mix sums to 1" true (Float.abs (mix_total -. 1.0) < 1e-9);
  check "block size positive" true (p.block_size_mean > 1.0);
  check "rates in [0,1]" true
    (List.for_all
       (fun r -> r >= 0.0 && r <= 1.0)
       [
         p.taken_rate; p.mispredict_rate; p.redirect_rate; p.l1i_rate;
         p.l2i_rate; p.itlb_rate; p.l1d_rate; p.l2d_rate; p.dtlb_rate;
       ]);
  check "deps non-empty" true (not (Stats.Histogram.is_empty p.deps))

let test_generation_length_and_shape () =
  let p = collect "twolf" 20_000 in
  let t = Hls.generate p ~target_length:5_000 ~seed:1 in
  let len = Synth.Trace.length t in
  check "at least target" true (len >= 5_000 && len < 5_200);
  Array.iter
    (fun s -> check "well-formed" true (Synth.Trace.well_formed s))
    (Synth.Trace.to_insts t)

let test_generation_mix_tracks_profile () =
  let p = collect "gzip" 30_000 in
  let t = Hls.generate p ~target_length:20_000 ~seed:2 in
  let loads =
    Array.fold_left
      (fun acc (s : Synth.Trace.inst) ->
        if Isa.Iclass.is_load s.klass then acc + 1 else acc)
      0 (Synth.Trace.to_insts t)
  in
  let frac = float_of_int loads /. float_of_int (Synth.Trace.length t) in
  check "load fraction" true
    (Float.abs (frac -. p.mix.(Isa.Iclass.index Isa.Iclass.Load)) < 0.03)

let test_blocks_have_one_branch () =
  let p = collect "vpr" 10_000 in
  let t = Hls.generate p ~target_length:3_000 ~seed:3 in
  (* every branch must be followed by a block of non-branches *)
  let violations = ref 0 in
  Array.iteri
    (fun i (s : Synth.Trace.inst) ->
      if
        i > 0
        && Isa.Iclass.is_branch s.klass
        && Isa.Iclass.is_branch (Synth.Trace.get t (i - 1)).Synth.Trace.klass
      then incr violations)
    (Synth.Trace.to_insts t);
  (* adjacent branches only when a size-1 block is drawn; rare *)
  check "branches terminate blocks" true
    (!violations < Synth.Trace.length t / 20)

let test_runs_end_to_end () =
  let m =
    Hls.run cfg
      (Workload.Suite.stream (Workload.Suite.find "parser") ~length:20_000)
      ~target_length:5_000 ~seed:4
  in
  check "IPC plausible" true
    (Uarch.Metrics.ipc m > 0.05 && Uarch.Metrics.ipc m <= 4.0)

let test_of_stat_profile_consistency () =
  (* collect = of_stat_profile(k=0, immediate) by construction *)
  let spec = Workload.Suite.find "eon" in
  let direct = Hls.collect cfg (Workload.Suite.stream spec ~length:10_000) in
  let via =
    Hls.of_stat_profile
      (Profile.Stat_profile.collect ~k:0
         ~branch_mode:Profile.Branch_profiler.Immediate cfg
         (Workload.Suite.stream spec ~length:10_000))
  in
  Alcotest.(check (float 1e-9)) "same taken rate" direct.taken_rate via.taken_rate;
  Alcotest.(check (float 1e-9)) "same l1d" direct.l1d_rate via.l1d_rate;
  Alcotest.(check (float 1e-9))
    "same mean block size" direct.block_size_mean via.block_size_mean

let suite =
  [
    Alcotest.test_case "profile sane" `Quick test_profile_sane;
    Alcotest.test_case "generation length/shape" `Quick
      test_generation_length_and_shape;
    Alcotest.test_case "mix tracks profile" `Quick test_generation_mix_tracks_profile;
    Alcotest.test_case "block structure" `Quick test_blocks_have_one_branch;
    Alcotest.test_case "end to end" `Quick test_runs_end_to_end;
    Alcotest.test_case "of_stat_profile consistency" `Quick
      test_of_stat_profile_consistency;
  ]
