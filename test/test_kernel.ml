(* Compiled synthesis kernel: fixed-point threshold guards, Fenwick
   tree, plan codec round-trips, walk invariants against the profile,
   event-driven pipeline equivalence, and the runner's plan cache
   tier. *)

let check = Alcotest.(check bool)

let cfg = Config.Machine.baseline

let profile_of name len =
  Statsim.profile cfg (Workload.Suite.stream (Workload.Suite.find name) ~length:len)

(* --- fixed-point thresholds: the centralized guard --- *)

let test_threshold_guards () =
  Alcotest.(check int) "zero denominator" 0
    (Kernel.Plan.threshold ~num:3 ~den:0);
  Alcotest.(check int) "negative denominator" 0
    (Kernel.Plan.threshold ~num:3 ~den:(-1));
  Alcotest.(check int) "zero numerator" 0 (Kernel.Plan.threshold ~num:0 ~den:5);
  Alcotest.(check int) "saturated" Kernel.Plan.two32
    (Kernel.Plan.threshold ~num:5 ~den:5);
  Alcotest.(check int) "over-unity clamps" Kernel.Plan.two32
    (Kernel.Plan.threshold ~num:7 ~den:5);
  Alcotest.(check int) "one half" (Kernel.Plan.two32 / 2)
    (Kernel.Plan.threshold ~num:1 ~den:2);
  (* impossible and certain events must consume no randomness *)
  let rng = Prng.create ~seed:4 in
  check "thr 0 is false" false (Kernel.Plan.sample_rate rng 0);
  check "thr two32 is true" true (Kernel.Plan.sample_rate rng Kernel.Plan.two32);
  let fresh = Prng.create ~seed:4 in
  check "no draws consumed" true (Prng.bits rng = Prng.bits fresh)

let test_meta_packing () =
  Array.iter
    (fun klass ->
      List.iter
        (fun ndeps ->
          let m = Kernel.Plan.pack_meta ~klass ~ndeps in
          Alcotest.(check int) "class" (Isa.Iclass.index klass)
            (Kernel.Plan.meta_class m);
          check "is_load" true
            (Kernel.Plan.meta_is_load m = Isa.Iclass.is_load klass);
          check "is_branch" true
            (Kernel.Plan.meta_is_branch m = Isa.Iclass.is_branch klass);
          check "has_dest" true
            (Kernel.Plan.meta_has_dest m = Isa.Iclass.has_dest klass);
          Alcotest.(check int) "ndeps" ndeps (Kernel.Plan.meta_ndeps m))
        [ 0; 2; 5; 70 ])
    Isa.Iclass.all

(* --- Fenwick tree vs a naive prefix scan --- *)

let naive_find weights x =
  let acc = ref 0 and found = ref (-1) in
  Array.iteri
    (fun i w ->
      if !found < 0 then begin
        acc := !acc + w;
        if !acc >= x then found := i
      end)
    weights;
  !found

let prop_fenwick_matches_naive =
  QCheck.Test.make ~name:"fenwick find matches a naive prefix scan" ~count:200
    QCheck.(
      pair small_int (list_of_size Gen.(1 -- 30) (int_range 0 20)))
    (fun (seed, ws) ->
      QCheck.assume (List.exists (fun w -> w > 0) ws);
      let weights = Array.of_list ws in
      let t = Kernel.Fenwick.create weights in
      let rng = Prng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        (* interleave decrements like the walk does *)
        let total = Kernel.Fenwick.total t in
        if total > 0 then begin
          let x = 1 + Prng.int rng total in
          let i = Kernel.Fenwick.find t x in
          if i <> naive_find weights x then ok := false;
          weights.(i) <- weights.(i) - 1;
          Kernel.Fenwick.add t i (-1)
        end
      done;
      !ok)

let test_fenwick_bounds () =
  let t = Kernel.Fenwick.create [| 2; 0; 3 |] in
  Alcotest.(check int) "total" 5 (Kernel.Fenwick.total t);
  Alcotest.(check int) "rank 1" 0 (Kernel.Fenwick.find t 1);
  Alcotest.(check int) "rank 2" 0 (Kernel.Fenwick.find t 2);
  Alcotest.(check int) "rank 3 skips empty" 2 (Kernel.Fenwick.find t 3);
  Alcotest.(check int) "rank 5" 2 (Kernel.Fenwick.find t 5);
  Alcotest.check_raises "rank 0" (Invalid_argument "Fenwick.find: rank out of range")
    (fun () -> ignore (Kernel.Fenwick.find t 0));
  Alcotest.check_raises "rank past total"
    (Invalid_argument "Fenwick.find: rank out of range") (fun () ->
      ignore (Kernel.Fenwick.find t 6));
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Fenwick.add: index out of range") (fun () ->
      Kernel.Fenwick.add t 3 1)

(* --- walk invariants --- *)

let block_counts (t : Synth.Trace.t) =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (i : Synth.Trace.inst) ->
      Hashtbl.replace tbl i.block
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl i.block)))
    (Synth.Trace.to_insts t);
  List.sort compare (Hashtbl.fold (fun b c acc -> (b, c) :: acc) tbl [])

(* The closed form of the walk's output mix: every node surviving
   reduction is visited exactly [occurrences / R] times and emits all of
   its slots per visit, so a block's instruction count is the sum over
   its surviving nodes of [(occurrences / R) * |slots|] — whatever
   order the seed walks them in. *)
let test_compiled_counts_match_profile () =
  let p = profile_of "gcc" 30_000 in
  let r = 3 in
  let expected = Hashtbl.create 64 in
  Profile.Sfg.iter_nodes p.sfg (fun n ->
      let visits = n.occurrences / r in
      if visits > 0 then
        Hashtbl.replace expected n.block
          ((visits * Array.length n.slots)
          + Option.value ~default:0 (Hashtbl.find_opt expected n.block)));
  let expected =
    List.sort compare
      (Hashtbl.fold
         (fun b c acc -> if c > 0 then (b, c) :: acc else acc)
         expected [])
  in
  let length = List.fold_left (fun acc (_, c) -> acc + c) 0 expected in
  List.iter
    (fun seed ->
      let t = Synth.Generate.generate ~reduction:r p ~seed in
      Alcotest.(check int) "length" length (Synth.Trace.length t);
      Alcotest.(check int) "reduction" r t.reduction;
      Alcotest.(check int) "k" p.k t.k;
      Alcotest.(check (list (pair int int)))
        "per-block counts" expected (block_counts t))
    [ 7; 8 ]

(* [check_survivors] must reject exactly the reductions [plan] rejects
   as an empty graph, so request boundaries can answer before it runs *)
let test_survivors_agree_with_plan () =
  let p = profile_of "vpr" 8_000 in
  List.iter
    (fun r ->
      let compiles =
        match Kernel.Compile.plan ~reduction:r p with
        | _ -> true
        | exception Invalid_argument _ -> false
      in
      check
        (Printf.sprintf "R = %d" r)
        compiles
        (Kernel.Compile.check_survivors ~reduction:r p = Ok ()))
    [ 1; 10; 100; 1_000; 2_000; 4_000; 8_000; 100_000 ];
  check "target length 1 empties the graph" true
    (Result.is_error (Kernel.Compile.check_survivors ~target_length:1 p))

(* The plan the generator walks, the steady-state chain and the
   stratified partition read one reduced graph: for every workload and
   R, the chain's visit counts are the plan's, its keys name the plan's
   blocks in order, and the strata partition exactly those keys. *)
let test_one_reduced_graph () =
  List.iter
    (fun bench ->
      let p = profile_of bench 20_000 in
      let block key =
        match Profile.Sfg.find p.sfg ~key with Some n -> n.block | None -> -1
      in
      List.iter
        (fun r ->
          let label what = Printf.sprintf "%s, R = %d: %s" bench r what in
          let plan = Kernel.Compile.plan ~reduction:r p in
          let g = Analytical.Steady_state.of_sfg ~reduction:r p.sfg in
          Alcotest.(check (array int)) (label "visits") plan.node_occ g.occ;
          Alcotest.(check (array int))
            (label "blocks") plan.node_block (Array.map block g.keys);
          let members =
            List.concat_map
              (List.map (fun (n : Profile.Sfg.node) -> n.key))
              (Synth.Stratify.partition ~reduction:r p)
          in
          Alcotest.(check (list int))
            (label "strata") (Array.to_list g.keys)
            (List.sort compare members))
        [ 1; 4; 16; 64 ])
    Workload.Suite.names

let test_empty_count_node () =
  (* a node whose branch/fetch/load denominators are all zero must
     compile (thresholds guard the zero denominators) and generate
     all-false events; the never-executed branch emits taken by
     default *)
  let sfg = Profile.Sfg.create ~k:0 in
  let key = Profile.Sfg.key_of_history [| 1 |] ~len:1 in
  let n = Profile.Sfg.find_or_add sfg ~key ~block:1 in
  n.Profile.Sfg.occurrences <- 4;
  n.Profile.Sfg.slots <-
    [|
      {
        Profile.Sfg.klass = Isa.Iclass.Load;
        nsrcs = 0;
        deps = [||];
        waw = Stats.Histogram.create ();
        war = Stats.Histogram.create ();
      };
      {
        Profile.Sfg.klass = Isa.Iclass.Int_branch;
        nsrcs = 0;
        deps = [||];
        waw = Stats.Histogram.create ();
        war = Stats.Histogram.create ();
      };
    |];
  let p =
    {
      Profile.Stat_profile.sfg;
      k = 0;
      machine = Config.Machine.canonical cfg;
      instructions = 8;
      perfect_caches = true;
      perfect_bpred = true;
      branches = 0;
      mispredicts = 0;
    }
  in
  let plan = Statsim.compile_plan ~reduction:1 p in
  let t = Synth.Generate.generate_of_plan plan ~seed:13 in
  Alcotest.(check int) "trace length" 8 (Synth.Trace.length t);
  Array.iter
    (fun (i : Synth.Trace.inst) ->
      check "no cache events" false
        (i.l1i_miss || i.l2i_miss || i.itlb_miss || i.l1d_miss || i.l2d_miss
       || i.dtlb_miss);
      match i.branch with
      | Some b ->
        check "taken by default" true b.taken;
        check "never mispredicts" false (b.mispredict || b.redirect)
      | None -> ())
    (Synth.Trace.to_insts t)

let test_plan_codec_roundtrip () =
  let p = profile_of "gcc" 25_000 in
  let plan = Statsim.compile_plan ~reduction:5 p in
  let encoded = Kernel.Plan.to_string plan in
  let decoded = Kernel.Plan.of_string encoded in
  Alcotest.(check string) "canonical re-encode" encoded
    (Kernel.Plan.to_string decoded);
  (* the decoded plan must sample bit-identically — the property the
     persistent store tier depends on *)
  let a = Synth.Generate.generate_of_plan plan ~seed:21 in
  let b = Synth.Generate.generate_of_plan decoded ~seed:21 in
  check "bit-identical traces" true (Synth.Trace.to_insts a = Synth.Trace.to_insts b)

let test_plan_codec_rejects () =
  let p = profile_of "gzip" 6_000 in
  let plan = Statsim.compile_plan ~reduction:2 p in
  let s = Kernel.Plan.to_string plan in
  let is_fail f = match f () with exception Failure _ -> true | _ -> false in
  check "garbage rejected" true
    (is_fail (fun () -> Kernel.Plan.of_string "not a plan"));
  check "truncation rejected" true
    (is_fail (fun () ->
         Kernel.Plan.of_string (String.sub s 0 (String.length s / 2))));
  check "version bump rejected" true
    (is_fail (fun () ->
         let lines = String.split_on_char '\n' s in
         Kernel.Plan.of_string
           (String.concat "\n" ("statsim-plan 9999" :: List.tl lines))))

(* --- event-driven pipeline equivalence --- *)

(* Dense and event-driven loops agree on random machines: window, LSQ,
   fetch queue, width and memory latency drawn independently (tiny
   windows and in-order issue maximize idle windows), over three
   workloads. *)
let skip_idle_traces =
  lazy
    (Array.mapi
       (fun i p -> Statsim.synthesize ~target_length:3_000 p ~seed:(31 + i))
       [|
         profile_of "gcc" 20_000;
         profile_of "twolf" 20_000;
         Statsim.profile cfg
           (Workload.Suite_fp.stream (Workload.Suite_fp.find "swim")
              ~length:20_000);
       |])

let prop_skip_idle_equivalence =
  QCheck.Test.make ~name:"skip-idle equivalence" ~count:60
    QCheck.(
      pair
        (quad (int_range 1 160) (int_range 1 64) (int_range 1 64)
           (int_range 1 8))
        (triple bool (int_bound 2) (int_range 1 3000)))
    (fun ((ruu, lsq, ifq, width), (in_order, which, mem_latency)) ->
      let c =
        Config.Machine.with_width
          (Config.Machine.with_ifq
             (Config.Machine.with_window { cfg with mem_latency } ~ruu ~lsq)
             ifq)
          width
      in
      let c = if in_order then Config.Machine.in_order_variant c else c in
      let trace = (Lazy.force skip_idle_traces).(which) in
      Uarch.Metrics.encode (Synth.Run.run ~skip_idle:false c trace)
      = Uarch.Metrics.encode (Synth.Run.run c trace))

(* --- runner plan cache tier --- *)

let test_cache_plan_tier () =
  let root = Filename.temp_file "statsim_plan_store" "" in
  Sys.remove root;
  let t = Store.open_root root in
  Fun.protect
    ~finally:(fun () ->
      Store.clear t;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () ->
      let p = profile_of "twolf" 15_000 in
      let c1 = Runner.Cache.create ~store:t () in
      let pl1 = Runner.Cache.plan c1 ~reduction:4 p in
      let pl1' = Runner.Cache.plan c1 ~reduction:4 p in
      let s1 = Runner.Cache.stats c1 in
      Alcotest.(check int) "memo hit on repeat" 1 s1.Runner.Cache.plan_hits;
      Alcotest.(check int) "one miss" 1 s1.plan_misses;
      check "same physical plan" true (pl1 == pl1');
      (* a fresh process: new memo tables, same store root *)
      let t2 = Store.open_root (Store.root t) in
      let c2 = Runner.Cache.create ~store:t2 () in
      let pl2 = Runner.Cache.plan c2 ~reduction:4 p in
      let s2 = Runner.Cache.stats c2 in
      Alcotest.(check int) "store hit across processes" 1 s2.store_hits;
      Alcotest.(check int) "no store miss" 0 s2.store_misses;
      let a = Synth.Generate.generate_of_plan pl1 ~seed:19 in
      let b = Synth.Generate.generate_of_plan pl2 ~seed:19 in
      check "store-decoded plan is bit-identical" true (Synth.Trace.to_insts a = Synth.Trace.to_insts b);
      (* target_length resolves to a reduction factor before keying *)
      let pl3 = Runner.Cache.plan c1 ~target_length:5_000 p in
      Alcotest.(check int) "resolved R" 3 pl3.Kernel.Plan.reduction)

let suite =
  [
    Alcotest.test_case "threshold guards" `Quick test_threshold_guards;
    Alcotest.test_case "meta packing" `Quick test_meta_packing;
    QCheck_alcotest.to_alcotest prop_fenwick_matches_naive;
    Alcotest.test_case "fenwick bounds" `Quick test_fenwick_bounds;
    Alcotest.test_case "compiled counts match profile" `Quick
      test_compiled_counts_match_profile;
    Alcotest.test_case "one reduced graph" `Quick test_one_reduced_graph;
    Alcotest.test_case "empty-count node" `Quick test_empty_count_node;
    Alcotest.test_case "survivor check agrees with plan" `Quick
      test_survivors_agree_with_plan;
    Alcotest.test_case "plan codec roundtrip" `Quick test_plan_codec_roundtrip;
    Alcotest.test_case "plan codec rejects" `Quick test_plan_codec_rejects;
    QCheck_alcotest.to_alcotest prop_skip_idle_equivalence;
    Alcotest.test_case "cache plan tier" `Quick test_cache_plan_tier;
  ]
