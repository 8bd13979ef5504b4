(* Synthetic trace generation tests: reduction arithmetic, the 9-step
   walk, dependency retry rule, flag consistency. *)

let check = Alcotest.(check bool)

let cfg = Config.Machine.baseline

let profile_of spec len =
  Statsim.profile cfg (Workload.Suite.stream spec ~length:len)

let test_reduction_length () =
  let spec = Workload.Suite.find "gzip" in
  let p = profile_of spec 60_000 in
  let t = Synth.Generate.generate ~reduction:10 p ~seed:1 in
  let len = Synth.Trace.length t in
  (* one block visit per reduced occurrence: within ~15% of 1/R *)
  check "length ~ N/R"
    true
    (abs (len - 6_000) < 1_200);
  Alcotest.(check int) "records R" 10 t.reduction

let test_target_length () =
  let spec = Workload.Suite.find "eon" in
  let p = profile_of spec 50_000 in
  let t = Synth.Generate.generate ~target_length:5_000 p ~seed:2 in
  let len = Synth.Trace.length t in
  check "near target" true (abs (len - 5_000) < 1_500)

let test_target_length_no_overshoot () =
  (* regression: R was floored, so a target over half the profiled
     length collapsed to R = 1 and the trace overshot the request by a
     whole reduction bucket (10k instead of 6k here); the ceiling keeps
     the trace at or under target *)
  let spec = Workload.Suite.find "gzip" in
  let p = profile_of spec 10_000 in
  let t = Synth.Generate.generate ~target_length:6_000 p ~seed:17 in
  Alcotest.(check int) "ceil(10000/6000) = 2" 2 t.reduction;
  let len = Synth.Trace.length t in
  check "does not overshoot the target" true (len <= 6_000);
  check "still a useful length" true (len >= 3_500)

(* MD5 of a trace's packed words: every instruction's [code] and [deps]
   word, in order *)
let trace_md5 (t : Synth.Trace.t) =
  let b = Buffer.create (24 * Synth.Trace.length t) in
  Array.iteri (fun i c -> Printf.bprintf b "%d %d\n" c t.deps.(i)) t.code;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_dep_squash_counter () =
  (* a store-only profile makes every sampled dependency invalid (no
     producer has a destination register), so each instruction past the
     first burns the 1,000 retries and lands on the squash counter *)
  let sfg = Profile.Sfg.create ~k:0 in
  let key = Profile.Sfg.key_of_history [| 3 |] ~len:1 in
  let n = Profile.Sfg.find_or_add sfg ~key ~block:3 in
  n.Profile.Sfg.occurrences <- 5;
  let deps = Stats.Histogram.create () in
  Stats.Histogram.add deps 1;
  n.Profile.Sfg.slots <-
    [|
      {
        Profile.Sfg.klass = Isa.Iclass.Store;
        nsrcs = 1;
        deps = [| deps |];
        waw = Stats.Histogram.create ();
        war = Stats.Histogram.create ();
      };
    |];
  let p =
    {
      Profile.Stat_profile.sfg;
      k = 0;
      machine = Config.Machine.canonical cfg;
      instructions = 5;
      perfect_caches = true;
      perfect_bpred = true;
      branches = 0;
      mispredicts = 0;
    }
  in
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let counter_now () =
    Telemetry.counter_total (Telemetry.snapshot ()) "synth.dep_squashed"
  in
  let before = counter_now () in
  let t = Synth.Generate.generate ~reduction:1 p ~seed:3 in
  Telemetry.set_enabled was;
  Alcotest.(check int) "replays all occurrences" 5 (Synth.Trace.length t);
  (* position 0 has no in-range producer (accepted as distance past the
     trace start); positions 1-4 each squash exactly once *)
  Alcotest.(check int) "squash count" 4 (counter_now () - before);
  Array.iter
    (fun (s : Synth.Trace.inst) ->
      Array.iter
        (fun d -> Alcotest.(check int) "dependency dropped" 0 d)
        s.deps)
    (Array.sub (Synth.Trace.to_insts t) 1 4);
  Alcotest.(check string) "trace bytes" "81e40b2ce6426873dea4c9dfdc7c5e34" (trace_md5 t)

let test_both_args_rejected () =
  let spec = Workload.Suite.find "eon" in
  let p = profile_of spec 5_000 in
  Alcotest.check_raises "both args"
    (Invalid_argument
       "Generate.generate: give reduction or target_length, not both")
    (fun () ->
      ignore (Synth.Generate.generate ~reduction:2 ~target_length:10 p ~seed:1))

let test_excessive_reduction_rejected () =
  let spec = Workload.Suite.find "vpr" in
  let p = profile_of spec 2_000 in
  check "raises on empty graph" true
    (try
       ignore (Synth.Generate.generate ~reduction:1_000_000 p ~seed:1);
       false
     with Invalid_argument _ -> true)

let test_all_well_formed () =
  List.iter
    (fun name ->
      let spec = Workload.Suite.find name in
      let p = profile_of spec 40_000 in
      let t = Synth.Generate.generate ~reduction:5 p ~seed:3 in
      Array.iteri
        (fun i s ->
          if not (Synth.Trace.well_formed s) then
            Alcotest.failf "%s: ill-formed synthetic inst %d" name i)
        (Synth.Trace.to_insts t))
    [ "gcc"; "twolf"; "bzip2" ]

let test_dep_retry_rule () =
  (* no sampled dependency may point at a branch or store (they produce
     no register value) — the paper's 1000-retry rule *)
  let spec = Workload.Suite.find "crafty" in
  let p = profile_of spec 40_000 in
  let t = Synth.Generate.generate ~reduction:5 p ~seed:4 in
  Array.iteri
    (fun i (s : Synth.Trace.inst) ->
      Array.iter
        (fun d ->
          if d > 0 && i - d >= 0 then
            check "producer has a destination" true
              (Isa.Iclass.has_dest (Synth.Trace.get t (i - d)).klass))
        s.deps)
    (Synth.Trace.to_insts t)

let test_determinism () =
  let spec = Workload.Suite.find "parser" in
  let p = profile_of spec 20_000 in
  let a = Synth.Generate.generate ~reduction:4 p ~seed:5 in
  let b = Synth.Generate.generate ~reduction:4 p ~seed:5 in
  check "same trace" true (Synth.Trace.to_insts a = Synth.Trace.to_insts b);
  let c = Synth.Generate.generate ~reduction:4 p ~seed:6 in
  check "seed changes trace" true
    (Synth.Trace.to_insts a <> Synth.Trace.to_insts c)

let test_mix_preserved () =
  (* the synthetic instruction mix tracks the profile's mix *)
  let spec = Workload.Suite.find "gcc" in
  let len = 60_000 in
  let p = profile_of spec len in
  let t = Synth.Generate.generate ~reduction:5 p ~seed:7 in
  let count pred arr =
    Array.fold_left (fun acc x -> if pred x then acc + 1 else acc) 0 arr
  in
  let frac_loads_syn =
    float_of_int
      (count
         (fun (s : Synth.Trace.inst) -> Isa.Iclass.is_load s.klass)
         (Synth.Trace.to_insts t))
    /. float_of_int (Synth.Trace.length t)
  in
  (* reference loads fraction from a fresh stream *)
  let gen = Workload.Suite.stream spec ~length:len in
  let loads = ref 0 and n = ref 0 in
  let rec drain () =
    match gen () with
    | None -> ()
    | Some i ->
      incr n;
      if Isa.Iclass.is_load i.klass then incr loads;
      drain ()
  in
  drain ();
  let frac_loads_ref = float_of_int !loads /. float_of_int !n in
  check "load fraction matches" true
    (Float.abs (frac_loads_syn -. frac_loads_ref) < 0.03)

let test_miss_rates_preserved () =
  let spec = Workload.Suite.find "twolf" in
  let p = profile_of spec 60_000 in
  let t = Synth.Generate.generate ~reduction:4 p ~seed:8 in
  (* aggregate l1d flag rate vs profile aggregate *)
  let loads = ref 0 and misses = ref 0 in
  Array.iter
    (fun (s : Synth.Trace.inst) ->
      if Isa.Iclass.is_load s.klass then begin
        incr loads;
        if s.l1d_miss then incr misses
      end)
    (Synth.Trace.to_insts t);
  let syn_rate = float_of_int !misses /. float_of_int (max 1 !loads) in
  let ploads = ref 0 and pmisses = ref 0 in
  Profile.Sfg.iter_nodes p.sfg (fun n ->
      ploads := !ploads + n.loads;
      pmisses := !pmisses + n.l1d_misses);
  let ref_rate = float_of_int !pmisses /. float_of_int (max 1 !ploads) in
  check "l1d rate tracks profile" true (Float.abs (syn_rate -. ref_rate) < 0.05)

let test_mispredict_rate_preserved () =
  let spec = Workload.Suite.find "twolf" in
  let p = profile_of spec 60_000 in
  let t = Synth.Generate.generate ~reduction:4 p ~seed:9 in
  let branches = ref 0 and mis = ref 0 in
  Array.iter
    (fun (s : Synth.Trace.inst) ->
      match s.Synth.Trace.branch with
      | Some b ->
        incr branches;
        if b.mispredict then incr mis
      | None -> ())
    (Synth.Trace.to_insts t);
  let syn = float_of_int !mis /. float_of_int (max 1 !branches) in
  let pb = ref 0 and pm = ref 0 in
  Profile.Sfg.iter_nodes p.sfg (fun n ->
      pb := !pb + n.br_execs;
      pm := !pm + n.br_mispredict);
  let reference = float_of_int !pm /. float_of_int (max 1 !pb) in
  check "mispredict rate tracks profile" true
    (Float.abs (syn -. reference) < 0.03)

let test_k0_uses_no_edges () =
  (* with k=0 every block is drawn independently: consecutive-pair
     distribution flattens vs the k=1 walk *)
  let spec = Workload.Suite.find "gzip" in
  let pair_entropy k =
    let p =
      Statsim.profile ~k cfg (Workload.Suite.stream spec ~length:40_000)
    in
    let t = Synth.Generate.generate ~reduction:5 p ~seed:10 in
    let pairs = Hashtbl.create 64 in
    Array.iteri
      (fun i (s : Synth.Trace.inst) ->
        if i > 0 then begin
          let key = ((Synth.Trace.get t (i - 1)).block, s.Synth.Trace.block) in
          Hashtbl.replace pairs key
            (1 + Option.value ~default:0 (Hashtbl.find_opt pairs key))
        end)
      (Synth.Trace.to_insts t);
    Hashtbl.length pairs
  in
  (* the independent draw creates many more distinct block pairs *)
  check "k=0 scrambles sequencing" true (pair_entropy 0 > pair_entropy 1)

let test_simulate_trace () =
  let spec = Workload.Suite.find "perlbmk" in
  let p = profile_of spec 30_000 in
  let t = Synth.Generate.generate ~target_length:8_000 p ~seed:11 in
  let m = Synth.Run.run cfg t in
  Alcotest.(check int) "commits whole trace" (Synth.Trace.length t) m.committed;
  check "plausible IPC" true (Uarch.Metrics.ipc m > 0.05 && Uarch.Metrics.ipc m <= 8.0)

let test_mean_ipc_weighting () =
  let m cycles committed =
    {
      Uarch.Metrics.cycles;
      committed;
      activity = Power.Activity.create ();
      branches = 0;
      mispredicts = 0;
      redirects = 0;
      taken = 0;
      loads = 0;
      stores = 0;
      stalls = Uarch.Metrics.no_stalls;
      dispatch_stall_cycles = 0;
    }
  in
  (* 100 insts in 100 cycles + 300 insts in 100 cycles = 400/200 *)
  Alcotest.(check (float 1e-9)) "weighted mean" 2.0
    (Synth.Run.mean_ipc [ m 100 100; m 100 300 ])


let test_trace_fidelity () =
  (* the generated trace must reproduce the profile's statistics tightly *)
  List.iter
    (fun name ->
      let spec = Workload.Suite.find name in
      let p = profile_of spec 60_000 in
      let t = Synth.Generate.generate ~reduction:4 p ~seed:21 in
      let d = Diag.compare p t in
      let gap feature =
        (List.find (fun (ft : Diag.feature) -> ft.f_name = feature) d.features)
          .max_delta
      in
      if gap "mix" > 0.02 then
        Alcotest.failf "%s: mix gap %.3f" name (gap "mix");
      List.iter
        (fun rname ->
          if gap rname > 0.03 then
            Alcotest.failf "%s: %s gap %.3f" name rname (gap rname))
        [ "taken"; "mispredict"; "redirect"; "l1i"; "l1d"; "l2d" ];
      (* consecutive same-block instructions approximate block runs *)
      let runs, _ =
        Array.fold_left
          (fun (runs, prev) (i : Synth.Trace.inst) ->
            ((if i.block <> prev then runs + 1 else runs), i.block))
          (0, -1) (Synth.Trace.to_insts t)
      in
      let trace_block = float_of_int (Synth.Trace.length t) /. float_of_int runs
      and profile_block = Profile.Stat_profile.mean_block_size p in
      check "block size close" true
        (Float.abs (trace_block -. profile_block)
        < 0.5 +. (0.1 *. profile_block)))
    [ "gcc"; "gzip"; "twolf" ]

(* The two sub-plans [Stratify.run ~strata:2] walks: k-means (seed 1)
   over the surviving nodes' features, then each group's restricted SFG
   compiled against its own instruction mass. Restricted graphs have
   many dead ends, so their walks squash far more dependencies than
   whole-graph ones. *)
let stratum_plans (p : Profile.Stat_profile.t) ~target_length =
  let r =
    Kernel.Compile.derive_reduction ~target_length (max 1 p.instructions)
  in
  let survivors = ref [] in
  Profile.Sfg.iter_nodes p.sfg (fun n ->
      if n.occurrences / r > 0 then survivors := n :: !survivors);
  let nodes =
    Array.of_list
      (List.sort
         (fun (a : Profile.Sfg.node) (b : Profile.Sfg.node) ->
           compare a.key b.key)
         !survivors)
  in
  let km =
    Simpoint.Kmeans.cluster (Prng.create ~seed:1)
      ~points:(Array.map Simpoint.node_features nodes)
      ~k:2
  in
  List.map
    (fun c ->
      let keep = Hashtbl.create 64 and insts = ref 0 in
      Array.iteri
        (fun i (n : Profile.Sfg.node) ->
          if km.assignment.(i) = c then begin
            Hashtbl.replace keep n.key ();
            insts := !insts + (n.occurrences * Array.length n.slots)
          end)
        nodes;
      Kernel.Compile.plan ~target_length
        {
          p with
          sfg = Profile.Sfg.restrict p.sfg ~keep:(fun n -> Hashtbl.mem keep n.key);
          instructions = !insts;
        })
    [ 0; 1 ]

(* Byte pins on generated traces, with the dependency squashes each walk
   takes: every workload at a 60k profile and a 20k target, the two
   stratum sub-plans of bzip2 and gcc (100k profile, 5k target) and one
   k = 0 plan. Generation is a pure function of (plan, seed); any change
   to the walk's draws moves a digest. *)
let test_trace_words_pinned () =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let squashed () =
    Telemetry.counter_total (Telemetry.snapshot ()) "synth.dep_squashed"
  in
  let pin label plan =
    let before = squashed () in
    let t = Synth.Generate.generate_of_plan plan ~seed:42 in
    Printf.sprintf "%s %s %d" label (trace_md5 t) (squashed () - before)
  in
  let got =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled was)
      (fun () ->
        List.map
          (fun name ->
            let p = profile_of (Workload.Suite.find name) 60_000 in
            pin name (Kernel.Compile.plan ~target_length:20_000 p))
          Workload.Suite.names
        @ List.concat_map
            (fun name ->
              let p = profile_of (Workload.Suite.find name) 100_000 in
              List.mapi
                (fun i plan -> pin (Printf.sprintf "%s/stratum%d" name i) plan)
                (stratum_plans p ~target_length:5_000))
            [ "bzip2"; "gcc" ]
        @ [
            pin "twolf/k0"
              (Kernel.Compile.plan ~target_length:20_000
                 (Statsim.profile ~k:0 cfg
                    (Workload.Suite.stream (Workload.Suite.find "twolf")
                       ~length:60_000)));
          ])
  in
  Alcotest.(check (list string))
    "trace words"
    [
      "bzip2 95028744a9c9ec3d4f0be79928b0d2a1 12";
      "crafty 9e567cc5813afd85cdb603bf329fe6db 9";
      "eon ae07f96c993f8b42a3f0681612a3b5fc 149";
      "gcc 9438f3db0d1de6e909f055d7de1cc1fe 32";
      "gzip bcf5dc010800ef0a928dbe49379202b7 21";
      "parser 2f8b4d83c46853877bf69e8ab367ff10 26";
      "perlbmk 1bc33eca2e06c8dc56523553b669a5a0 28";
      "twolf 78cb92e4be9e10e449c8ea263339ae3a 61";
      "vortex 6e47a5c998062cfd7c7e564ecd63f9ab 185";
      "vpr 74c100f6c6628504650d0331d2fbded5 16";
      "bzip2/stratum0 59ac6396f2763f13615db393f010dd06 600";
      "bzip2/stratum1 a80967a4339e5cbe05b99d9221e18ec8 126";
      "gcc/stratum0 54fbea2987cbb3c804975bc29083b2eb 11";
      "gcc/stratum1 8e3dab9b62cc73c5701c4598d64282dc 878";
      "twolf/k0 a43a15fd8216a9916f0e9d1eff5bd00e 299";
    ]
    got

let suite =
  [
    Alcotest.test_case "reduction length" `Quick test_reduction_length;
    Alcotest.test_case "target length" `Quick test_target_length;
    Alcotest.test_case "target length no overshoot" `Quick
      test_target_length_no_overshoot;
    Alcotest.test_case "dep-squash telemetry counter" `Quick
      test_dep_squash_counter;
    Alcotest.test_case "both args rejected" `Quick test_both_args_rejected;
    Alcotest.test_case "excessive reduction" `Quick test_excessive_reduction_rejected;
    Alcotest.test_case "well-formed traces" `Quick test_all_well_formed;
    Alcotest.test_case "dependency retry rule" `Quick test_dep_retry_rule;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "instruction mix preserved" `Quick test_mix_preserved;
    Alcotest.test_case "miss rates preserved" `Quick test_miss_rates_preserved;
    Alcotest.test_case "mispredict rate preserved" `Quick
      test_mispredict_rate_preserved;
    Alcotest.test_case "k=0 has no edges" `Quick test_k0_uses_no_edges;
    Alcotest.test_case "simulate trace" `Quick test_simulate_trace;
    Alcotest.test_case "mean_ipc weighting" `Quick test_mean_ipc_weighting;
    Alcotest.test_case "trace fidelity" `Quick test_trace_fidelity;
    Alcotest.test_case "trace words pinned" `Quick test_trace_words_pinned;
  ]
