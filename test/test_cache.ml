(* Set-associative cache, TLB and hierarchy tests. *)

let check = Alcotest.(check bool)

let small_cache ?(size = 256) ?(assoc = 2) ?(block = 32) ?(lat = 1) () =
  Cache.Sa_cache.create
    { Config.Machine.size_bytes = size; assoc; block_bytes = block; hit_latency = lat }

let test_cold_miss_then_hit () =
  let c = small_cache () in
  check "cold miss" false (Cache.Sa_cache.access c 0x1000);
  check "hit after fill" true (Cache.Sa_cache.access c 0x1000);
  check "same block hits" true (Cache.Sa_cache.access c 0x101F);
  check "next block misses" false (Cache.Sa_cache.access c 0x1020)

let test_lru_eviction () =
  (* 256B, 2-way, 32B blocks -> 4 sets; set 0 holds blocks 0, 4, 8... *)
  let c = small_cache () in
  let addr_of_block b = b * 32 in
  ignore (Cache.Sa_cache.access c (addr_of_block 0));
  ignore (Cache.Sa_cache.access c (addr_of_block 4));
  (* touch block 0 so block 4 is LRU *)
  ignore (Cache.Sa_cache.access c (addr_of_block 0));
  ignore (Cache.Sa_cache.access c (addr_of_block 8));
  check "block 0 survives (MRU)" true (Cache.Sa_cache.probe c (addr_of_block 0));
  check "block 4 evicted (LRU)" false (Cache.Sa_cache.probe c (addr_of_block 4));
  check "block 8 present" true (Cache.Sa_cache.probe c (addr_of_block 8))

let test_probe_no_side_effect () =
  let c = small_cache () in
  check "probe cold" false (Cache.Sa_cache.probe c 0x2000);
  check "still cold" false (Cache.Sa_cache.probe c 0x2000);
  (* probing filled nothing: the first access still misses *)
  check "access after probes misses" false (Cache.Sa_cache.access c 0x2000)

let test_geometry () =
  let c = small_cache () in
  Alcotest.(check int) "sets" 4 (Cache.Sa_cache.sets c);
  Alcotest.(check int) "assoc" 2 (Cache.Sa_cache.assoc c)

let test_direct_mapped_conflict () =
  let c = small_cache ~assoc:1 () in
  (* 8 sets; blocks 0 and 8 map to set 0 and conflict *)
  ignore (Cache.Sa_cache.access c 0);
  ignore (Cache.Sa_cache.access c (8 * 32));
  check "conflict evicts" false (Cache.Sa_cache.probe c 0)

let prop_fill_then_hit =
  QCheck.Test.make ~name:"access then probe hits" ~count:300
    QCheck.(int_range 0 0xFFFFFF)
    (fun addr ->
      let c = small_cache () in
      ignore (Cache.Sa_cache.access c addr);
      Cache.Sa_cache.probe c addr)

let prop_occupancy_bounded =
  QCheck.Test.make ~name:"set never exceeds associativity" ~count:100
    QCheck.(list_of_size Gen.(0 -- 200) (int_range 0 0xFFFF))
    (fun addrs ->
      (* after any access sequence, at most [assoc] distinct blocks of the
         same set can hit *)
      let c = small_cache () in
      List.iter (fun a -> ignore (Cache.Sa_cache.access c a)) addrs;
      let sets = 4 and block = 32 in
      let hits_in_set s =
        List.length
          (List.filter
             (fun b -> Cache.Sa_cache.probe c (b * block))
             (List.init 64 (fun i -> (i * sets) + s)))
      in
      List.for_all (fun s -> hits_in_set s <= 2) [ 0; 1; 2; 3 ])

let test_tlb_paging () =
  let t =
    Cache.Tlb.create
      { Config.Machine.entries = 4; tlb_assoc = 4; page_bytes = 4096; miss_penalty = 30 }
  in
  check "cold" false (Cache.Tlb.access t 0x1000);
  check "same page hits" true (Cache.Tlb.access t 0x1FFF);
  check "other page misses" false (Cache.Tlb.access t 0x2000);
  Alcotest.(check int) "penalty" 30 (Cache.Tlb.miss_penalty t)

let test_hierarchy_latencies () =
  let cfg = Config.Machine.baseline in
  let h = Cache.Hierarchy.create cfg in
  let cold = Cache.Hierarchy.latency (Cache.Hierarchy.dload h 0x10000000) in
  (* cold: D-TLB miss + L1 miss + L2 miss *)
  Alcotest.(check int) "cold load latency"
    (cfg.dcache.hit_latency + cfg.l2.hit_latency + cfg.mem_latency
   + cfg.dtlb.miss_penalty)
    cold;
  let a = Cache.Hierarchy.dload h 0x10000000 in
  check "warm all hit" true
    ((not (Cache.Hierarchy.l1_miss a))
    && (not (Cache.Hierarchy.l2_miss a))
    && not (Cache.Hierarchy.tlb_miss a));
  Alcotest.(check int) "warm latency" cfg.dcache.hit_latency
    (Cache.Hierarchy.latency a)

(* the unified L2's misses are told apart by the call that returned
   them: an instruction fetch's word carries an L2I miss, a load's an
   L2D miss *)
let test_hierarchy_l2_split_accounting () =
  let cfg = Config.Machine.baseline in
  let h = Cache.Hierarchy.create cfg in
  let i = Cache.Hierarchy.ifetch h 0x400000 in
  let d = Cache.Hierarchy.dload h 0x10000000 in
  check "cold ifetch misses L2" true
    (Cache.Hierarchy.l1_miss i && Cache.Hierarchy.l2_miss i);
  check "cold dload misses L2" true
    (Cache.Hierarchy.l1_miss d && Cache.Hierarchy.l2_miss d);
  check "warm ifetch hits" false
    (Cache.Hierarchy.l2_miss (Cache.Hierarchy.ifetch h 0x400000));
  check "warm dload hits" false
    (Cache.Hierarchy.l2_miss (Cache.Hierarchy.dload h 0x10000000))

let test_latency_of_outcome () =
  let cfg = Config.Machine.baseline in
  let lat o = Cache.Hierarchy.latency_of_outcome cfg ~instruction:false o in
  Alcotest.(check int) "hit" cfg.dcache.hit_latency (lat Cache.Hierarchy.hit);
  Alcotest.(check int) "l1 miss"
    (cfg.dcache.hit_latency + cfg.l2.hit_latency)
    (lat (Cache.Hierarchy.outcome ~l1_miss:true ~l2_miss:false ~tlb_miss:false));
  Alcotest.(check int) "l2 miss"
    (cfg.dcache.hit_latency + cfg.l2.hit_latency + cfg.mem_latency)
    (lat (Cache.Hierarchy.outcome ~l1_miss:true ~l2_miss:true ~tlb_miss:false));
  let ilat o = Cache.Hierarchy.latency_of_outcome cfg ~instruction:true o in
  Alcotest.(check int) "itlb miss"
    (cfg.icache.hit_latency + cfg.itlb.miss_penalty)
    (ilat (Cache.Hierarchy.outcome ~l1_miss:false ~l2_miss:false ~tlb_miss:true))

(* minor words per call of [f i] over [n] calls *)
let words_per_call n f =
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* An access allocates nothing: hits, repeat hits to the last line,
   misses and evictions alike, in a set-associative cache, a TLB and
   both hierarchy paths. The addresses cycle through more blocks than
   the caches hold, with each block touched twice in a row. *)
let test_access_allocates_nothing () =
  let cfg = Config.Machine.baseline in
  let h = Cache.Hierarchy.create cfg in
  let c = small_cache ~assoc:4 () and odd = small_cache ~size:(3 * 64) ~assoc:2 () in
  let tlb = Cache.Tlb.create cfg.dtlb in
  let addr i = ((i / 2) * 4160) land 0xFFFFFF in
  let n = 100_000 in
  List.iter
    (fun (label, f) ->
      let w = words_per_call n f in
      if w >= 0.01 then Alcotest.failf "%s: %.3f minor words per call" label w)
    [
      ("Sa_cache.access", fun i -> ignore (Cache.Sa_cache.access c (addr i)));
      ( "Sa_cache.access, 3 sets",
        fun i -> ignore (Cache.Sa_cache.access odd (addr i)) );
      ("Sa_cache.probe", fun i -> ignore (Cache.Sa_cache.probe c (addr i)));
      ("Tlb.access", fun i -> ignore (Cache.Tlb.access tlb (addr i)));
      ( "Hierarchy.ifetch",
        fun i -> ignore (Cache.Hierarchy.ifetch h (0x400000 + addr i)) );
      ( "Hierarchy.dload",
        fun i -> ignore (Cache.Hierarchy.dload h (0x10000000 + addr i)) );
      ( "Hierarchy.dstore",
        fun i -> ignore (Cache.Hierarchy.dstore h (0x10000000 + addr i)) );
    ]

let suite =
  [
    Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "probe pure" `Quick test_probe_no_side_effect;
    Alcotest.test_case "geometry" `Quick test_geometry;
    Alcotest.test_case "direct-mapped conflict" `Quick test_direct_mapped_conflict;
    QCheck_alcotest.to_alcotest prop_fill_then_hit;
    QCheck_alcotest.to_alcotest prop_occupancy_bounded;
    Alcotest.test_case "TLB paging" `Quick test_tlb_paging;
    Alcotest.test_case "hierarchy latencies" `Quick test_hierarchy_latencies;
    Alcotest.test_case "hierarchy L2 split" `Quick test_hierarchy_l2_split_accounting;
    Alcotest.test_case "latency_of_outcome" `Quick test_latency_of_outcome;
    Alcotest.test_case "access allocates nothing" `Quick
      test_access_allocates_nothing;
  ]
