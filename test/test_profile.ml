(* Statistical profiling tests, including the paper's Figure 2 example:
   the basic-block sequence AABAABCABC and its first- and second-order
   statistical flow graphs.

   Note on numbering: we write "order k" for "each block qualified by k
   preceding blocks", so this repository's k=0/k=1 graphs correspond to
   the nodes drawn in the paper's Figure 2 for k=1/k=2 (the paper labels
   nodes by the history length *including* the current block there,
   while its Table 3 counts k=0 nodes per distinct basic block — the
   convention used here matches Table 3). *)

let check = Alcotest.(check bool)

(* one-instruction basic blocks A=0, B=1, C=2 *)
let block_inst ?(klass = Isa.Iclass.Int_alu) ?(dest = 9) ?(srcs = [||]) b =
  {
    Isa.Dyn_inst.pc = 0x400000 + (b * 4);
    klass;
    dest;
    srcs;
    mem_addr = -1;
    branch = None;
    block = b;
    first_in_block = true;
  }

let stream_of_blocks blocks =
  let remaining = ref blocks in
  fun () ->
    match !remaining with
    | [] -> None
    | b :: rest ->
      remaining := rest;
      Some (block_inst b)

let aabaabcabc = [ 0; 0; 1; 0; 0; 1; 2; 0; 1; 2 ]

let profile_k k blocks =
  Profile.Stat_profile.collect ~k ~perfect_caches:true ~perfect_bpred:true
    Config.Machine.baseline
    (stream_of_blocks blocks)

let find_node sfg history =
  (* history: current block first *)
  let key =
    Profile.Sfg.key_of_history (Array.of_list history)
      ~len:(List.length history)
  in
  match Profile.Sfg.find sfg ~key with
  | Some n -> n
  | None -> Alcotest.failf "node not found"

let test_fig2_first_order () =
  let p = profile_k 0 aabaabcabc in
  Alcotest.(check int) "3 nodes" 3 (Profile.Sfg.node_count p.sfg);
  let a = find_node p.sfg [ 0 ] in
  let b = find_node p.sfg [ 1 ] in
  let c = find_node p.sfg [ 2 ] in
  Alcotest.(check int) "A occurs 5" 5 a.occurrences;
  Alcotest.(check int) "B occurs 3" 3 b.occurrences;
  Alcotest.(check int) "C occurs 2" 2 c.occurrences;
  (* paper Figure 2 (k=1 drawing): A -> A 40%, A -> B 60% *)
  let edge n succ =
    match Hashtbl.find_opt n.Profile.Sfg.edges succ with
    | Some r -> !r
    | None -> 0
  in
  let key1 b = Profile.Sfg.key_of_history [| b |] ~len:1 in
  Alcotest.(check int) "A->A twice" 2 (edge a (key1 0));
  Alcotest.(check int) "A->B thrice" 3 (edge a (key1 1));
  Alcotest.(check int) "B->A once" 1 (edge b (key1 0));
  Alcotest.(check int) "B->C twice" 2 (edge b (key1 2));
  Alcotest.(check int) "C->A once" 1 (edge c (key1 0))

let test_fig2_second_order () =
  let p = profile_k 1 aabaabcabc in
  (* paper Figure 2 (k=2 drawing): AA(2) AB(3) BA(1) BC(2) CA(1), plus the
     history-less start node for the very first A *)
  let node hist = find_node p.sfg hist in
  (* our keys list the current block first: node "AB" = B preceded by A *)
  Alcotest.(check int) "AA" 2 (node [ 0; 0 ]).occurrences;
  Alcotest.(check int) "AB" 3 (node [ 1; 0 ]).occurrences;
  Alcotest.(check int) "BA" 1 (node [ 0; 1 ]).occurrences;
  Alcotest.(check int) "BC" 2 (node [ 2; 1 ]).occurrences;
  Alcotest.(check int) "CA" 1 (node [ 0; 2 ]).occurrences;
  Alcotest.(check int) "start node A" 1 (node [ 0 ]).occurrences;
  Alcotest.(check int) "6 nodes total" 6 (Profile.Sfg.node_count p.sfg)

let test_occurrences_conserved () =
  let p = profile_k 1 aabaabcabc in
  Alcotest.(check int) "total occurrences = blocks" 10
    (Profile.Sfg.total_occurrences p.sfg)

let test_dependency_distances () =
  (* r5 <- ...; r6 <- r5 (distance 1); r7 <- r5 (distance 2) *)
  let insts =
    [
      { (block_inst ~dest:5 0) with first_in_block = true };
      { (block_inst ~dest:6 ~srcs:[| 5 |] 1) with pc = 0x400004 };
      { (block_inst ~dest:7 ~srcs:[| 5 |] 2) with pc = 0x400008 };
    ]
  in
  let remaining = ref insts in
  let gen () =
    match !remaining with
    | [] -> None
    | i :: rest ->
      remaining := rest;
      Some i
  in
  let p =
    Profile.Stat_profile.collect ~k:0 ~perfect_caches:true ~perfect_bpred:true
      Config.Machine.baseline gen
  in
  let n1 = find_node p.sfg [ 1 ] and n2 = find_node p.sfg [ 2 ] in
  let d1 = n1.slots.(0).deps.(0) and d2 = n2.slots.(0).deps.(0) in
  Alcotest.(check int) "distance 1" 1 (Stats.Histogram.count d1 1);
  Alcotest.(check int) "distance 2" 1 (Stats.Histogram.count d2 2)

let test_dep_cap () =
  (* producer 600 instructions earlier: recorded as the 512 cap *)
  let producer = { (block_inst ~dest:5 0) with pc = 0x400000 } in
  let filler i =
    { (block_inst ~dest:((i mod 3) + 10) 1) with first_in_block = i = 0 }
  in
  let consumer =
    { (block_inst ~dest:7 ~srcs:[| 5 |] 2) with first_in_block = true }
  in
  let insts = producer :: List.init 600 filler @ [ consumer ] in
  let remaining = ref insts in
  let gen () =
    match !remaining with
    | [] -> None
    | i :: rest ->
      remaining := rest;
      Some i
  in
  let p =
    Profile.Stat_profile.collect ~k:0 ~perfect_caches:true ~perfect_bpred:true
      Config.Machine.baseline gen
  in
  let n = find_node p.sfg [ 2 ] in
  Alcotest.(check int) "capped at 512" 1
    (Stats.Histogram.count n.slots.(0).deps.(0) Profile.Sfg.dep_cap)

let cond_branch ~pc ~taken block =
  {
    Isa.Dyn_inst.pc;
    klass = Isa.Iclass.Int_branch;
    dest = Isa.Reg.none;
    srcs = [||];
    mem_addr = -1;
    branch =
      Some { Isa.Dyn_inst.kind = Cond; taken; target = 0x500000; next_pc = pc + 4 };
    block;
    first_in_block = true;
  }

let test_immediate_vs_delayed_alternating () =
  (* A branch alternating T/N/T/N every execution, re-executing faster
     than the FIFO drains: immediate update lets the two-level predictor
     lock onto the alternation; delayed update sees stale history and
     keeps missing. This is the Figure 3 phenomenon in miniature. *)
  let n = 4000 in
  let mk_stream () =
    let i = ref 0 in
    fun () ->
      if !i >= n then None
      else begin
        let inst = cond_branch ~pc:0x400100 ~taken:(!i mod 2 = 0) 0 in
        incr i;
        Some inst
      end
  in
  let cfg = Config.Machine.baseline in
  let run mode =
    Profile.Stat_profile.mpki
      (Profile.Stat_profile.collect ~k:0 ~perfect_caches:true ~branch_mode:mode
         cfg (mk_stream ()))
  in
  let imm = run Profile.Branch_profiler.Immediate in
  let del = run (Profile.Branch_profiler.default_delayed cfg) in
  check "immediate learns alternation" true (imm < 50.0);
  check "delayed update suffers" true (del > 4.0 *. Float.max imm 1.0)

let test_branch_counts_conserved () =
  let cfg = Config.Machine.baseline in
  let spec = Workload.Suite.find "gcc" in
  let p =
    Profile.Stat_profile.collect cfg (Workload.Suite.stream spec ~length:20_000)
  in
  let node_execs = ref 0 in
  Profile.Sfg.iter_nodes p.sfg (fun n -> node_execs := !node_execs + n.br_execs);
  Alcotest.(check int) "per-node branch execs sum to total" p.branches !node_execs

let test_fetch_counts_conserved () =
  let cfg = Config.Machine.baseline in
  let spec = Workload.Suite.find "vpr" in
  let p =
    Profile.Stat_profile.collect cfg (Workload.Suite.stream spec ~length:15_000)
  in
  let fetches = ref 0 in
  Profile.Sfg.iter_nodes p.sfg (fun n -> fetches := !fetches + n.fetches);
  Alcotest.(check int) "per-node fetches sum to stream" p.instructions !fetches

let test_key_packing_no_collision () =
  (* block 0 as real history must differ from "no history" *)
  let k1 = Profile.Sfg.key_of_history [| 5 |] ~len:1 in
  let k2 = Profile.Sfg.key_of_history [| 5; 0 |] ~len:2 in
  check "short vs long keys differ" true (k1 <> k2)

let test_perfect_modes_zero_rates () =
  let cfg = Config.Machine.baseline in
  let spec = Workload.Suite.find "twolf" in
  let p =
    Profile.Stat_profile.collect ~perfect_caches:true ~perfect_bpred:true cfg
      (Workload.Suite.stream spec ~length:10_000)
  in
  Profile.Sfg.iter_nodes p.sfg (fun n ->
      check "no cache events" true (n.l1d_misses = 0 && n.l1i_misses = 0);
      check "no mispredicts" true (n.br_mispredict = 0))

let test_mean_block_size () =
  let p = profile_k 0 aabaabcabc in
  Alcotest.(check (float 1e-9)) "1 inst per block" 1.0
    (Profile.Stat_profile.mean_block_size p)


(* Profile sharing is sound: DSE and Table 4 profile a machine at
   [Config.Machine.profiled cfg], so changing any leaf field of the
   baseline must profile exactly as its profiled configuration does. A
   field profiling reads moves the profiled configuration with it, and
   both sides are one machine; any other field must leave the profile's
   bytes unchanged. Profiles are compared with their machine names
   blanked, which differ whenever the machines do. *)
let test_profile_config_sharing () =
  List.iter
    (fun bench ->
      let spec = Workload.Suite.find bench in
      let digest cfg =
        let p =
          Profile.Stat_profile.collect cfg
            (Workload.Suite.stream spec ~length:20_000)
        in
        Digest.to_hex
          (Digest.string (Profile.Serialize.to_string { p with machine = "" }))
      in
      let shared = lazy (digest Config.Machine.baseline) in
      List.iter
        (fun (path, cfg) ->
          let pcfg = Config.Machine.profiled cfg in
          if pcfg <> cfg then begin
            (* a field [profiled] drops, so [pcfg] is the baseline *)
            check "profiled at the baseline" true
              (pcfg = Config.Machine.baseline);
            Alcotest.(check string)
              (Printf.sprintf "%s, %s changed" bench path)
              (Lazy.force shared) (digest cfg)
          end)
        (Test_config.leaf_variants Config.Machine.baseline))
    Workload.Suite.names

(* Default delayed profiling never squashes, so it takes no RAS
   snapshots: what it allocates per instruction does not grow with the
   RAS. [Gc.minor_words] is exact; [Gc.counters]' major words less its
   promoted words count what went straight to the major heap, where a
   1,024-entry snapshot goes. The 1,024-entry RAS itself is 0.05 words
   an instruction here. *)
let test_ras_size_free_profiling () =
  let base = Config.Machine.baseline in
  let n = 20_000 in
  let words_per_inst ras_entries =
    let cfg = { base with bpred = { base.bpred with ras_entries } } in
    let next = Workload.Suite.stream (Workload.Suite.find "gcc") ~length:n in
    let _, pro0, maj0 = Gc.counters () in
    let min0 = Gc.minor_words () in
    ignore (Profile.Stat_profile.collect cfg next);
    let min1 = Gc.minor_words () in
    let _, pro1, maj1 = Gc.counters () in
    (min1 -. min0 +. (maj1 -. maj0 -. (pro1 -. pro0))) /. float_of_int n
  in
  let small = words_per_inst 8 and large = words_per_inst 1024 in
  if Float.abs (large -. small) > 0.1 then
    Alcotest.failf "%.2f words per instruction at 1024 RAS entries, %.2f at 8"
      large small

(* Profiling finds a block's node through its own index, and counts a
   repeated transition through a per-node cache. Over a stream of
   thousands of distinct histories, past every initial table size, the
   graph must hold exactly the nodes, occurrences and edges a naive
   count of the same histories gives. *)
let test_many_nodes () =
  let nblocks = 3_000 and length = 20_000 in
  let x = ref 12_345 in
  let blocks =
    List.init length (fun _ ->
        x := ((!x * 1_103_515_245) + 12_345) land 0x3fff_ffff;
        (* mostly a short loop, sometimes a jump anywhere *)
        if !x land 3 = 0 then (!x lsr 2) mod nblocks else (!x lsr 2) mod 7)
  in
  let p = profile_k 1 blocks in
  let key hist = Profile.Sfg.key_of_history (Array.of_list hist) ~len:(List.length hist) in
  let occ = Hashtbl.create 4096 and edges = Hashtbl.create 4096 in
  let bump t k = Hashtbl.replace t k (1 + Option.value (Hashtbl.find_opt t k) ~default:0) in
  ignore
    (List.fold_left
       (fun (prev_block, prev_key) b ->
         let k = key (match prev_block with None -> [ b ] | Some a -> [ b; a ]) in
         bump occ k;
         Option.iter (fun pk -> bump edges (pk, k)) prev_key;
         (Some b, Some k))
       (None, None) blocks);
  Alcotest.(check int) "node count" (Hashtbl.length occ)
    (Profile.Sfg.node_count p.sfg);
  Hashtbl.iter
    (fun k n ->
      match Profile.Sfg.find p.sfg ~key:k with
      | None -> Alcotest.failf "node %d missing" k
      | Some node ->
        if node.occurrences <> n then
          Alcotest.failf "node %d: %d occurrences, counted %d" k node.occurrences n)
    occ;
  let edge_count = ref 0 in
  Profile.Sfg.iter_nodes p.sfg (fun node ->
      Hashtbl.iter
        (fun succ r ->
          incr edge_count;
          let want = Option.value (Hashtbl.find_opt edges (node.key, succ)) ~default:0 in
          if !r <> want then
            Alcotest.failf "edge %d -> %d: %d, counted %d" node.key succ !r want)
        node.edges);
  Alcotest.(check int) "edge count" (Hashtbl.length edges) !edge_count

(* Profiling allocates nothing per instruction: the step loops over
   operands without closures, the node index and FIFO live in int
   arrays, and histograms grow in place. What it allocates beyond its
   stream is the graph itself, a node, slot or histogram pair at a time,
   which at 20k instructions stays within 3 minor words an instruction
   on every workload. Each stream is built before the count starts;
   [Gc.minor_words] is exact. *)
let test_profiling_allocation () =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled was)
    (fun () ->
      let words_per f =
        let before = Gc.minor_words () in
        let n = f () in
        (Gc.minor_words () -. before) /. float_of_int (max 1 n)
      in
      List.iter
        (fun name ->
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
          let profile =
            let gen = stream () in
            words_per (fun () ->
                (Statsim.profile Config.Machine.baseline gen)
                  .Profile.Stat_profile.instructions)
          in
          if profile -. drain > 3.0 then
            Alcotest.failf
              "%s: profiling %.2f minor words per instruction, draining %.2f"
              name profile drain)
        Workload.Suite.names)

let suite =
  [
    Alcotest.test_case "Figure 2, first order" `Quick test_fig2_first_order;
    Alcotest.test_case "Figure 2, second order" `Quick test_fig2_second_order;
    Alcotest.test_case "occurrence conservation" `Quick test_occurrences_conserved;
    Alcotest.test_case "dependency distances" `Quick test_dependency_distances;
    Alcotest.test_case "dependency cap 512" `Quick test_dep_cap;
    Alcotest.test_case "immediate vs delayed (alternating)" `Quick
      test_immediate_vs_delayed_alternating;
    Alcotest.test_case "branch count conservation" `Quick
      test_branch_counts_conserved;
    Alcotest.test_case "fetch count conservation" `Quick
      test_fetch_counts_conserved;
    Alcotest.test_case "key packing" `Quick test_key_packing_no_collision;
    Alcotest.test_case "perfect modes" `Quick test_perfect_modes_zero_rates;
    Alcotest.test_case "mean block size" `Quick test_mean_block_size;
    Alcotest.test_case "profile config shares soundly" `Quick
      test_profile_config_sharing;
    Alcotest.test_case "allocation independent of the RAS size" `Quick
      test_ras_size_free_profiling;
    Alcotest.test_case "profiling allocates nothing per instruction" `Quick
      test_profiling_allocation;
    Alcotest.test_case "thousands of nodes, counted exactly" `Quick
      test_many_nodes;
  ]
