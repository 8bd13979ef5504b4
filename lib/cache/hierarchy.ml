type outcome = int

let hit = 0

let outcome ~l1_miss ~l2_miss ~tlb_miss =
  (if l1_miss then 1 else 0)
  lor (if l2_miss then 2 else 0)
  lor if tlb_miss then 4 else 0

let l1_miss a = a land 1 <> 0
let l2_miss a = a land 2 <> 0
let tlb_miss a = a land 4 <> 0

type t = {
  cfg : Config.Machine.t;
  icache : Sa_cache.t;
  dcache : Sa_cache.t;
  l2 : Sa_cache.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  mutable ifetches : int;
  mutable l2i_misses : int;
  mutable daccesses : int;
  mutable l2d_misses : int;
}

let create (cfg : Config.Machine.t) =
  {
    cfg;
    icache = Sa_cache.create cfg.icache;
    dcache = Sa_cache.create cfg.dcache;
    l2 = Sa_cache.create cfg.l2;
    itlb = Tlb.create cfg.itlb;
    dtlb = Tlb.create cfg.dtlb;
    ifetches = 0;
    l2i_misses = 0;
    daccesses = 0;
    l2d_misses = 0;
  }

let latency_of_outcome (cfg : Config.Machine.t) ~instruction o =
  (if instruction then cfg.icache.hit_latency else cfg.dcache.hit_latency)
  + (if l1_miss o then cfg.l2.hit_latency else 0)
  + (if l1_miss o && l2_miss o then cfg.mem_latency else 0)
  +
  if tlb_miss o then
    if instruction then cfg.itlb.miss_penalty else cfg.dtlb.miss_penalty
  else 0

let access_of_outcome cfg ~instruction o =
  o lor (latency_of_outcome cfg ~instruction o lsl 3)

let latency a = a lsr 3

let ifetch t pc =
  t.ifetches <- t.ifetches + 1;
  let tlb_miss = not (Tlb.access t.itlb pc) in
  let l1_miss = not (Sa_cache.access t.icache pc) in
  let l2_miss = l1_miss && not (Sa_cache.access t.l2 pc) in
  if l2_miss then t.l2i_misses <- t.l2i_misses + 1;
  access_of_outcome t.cfg ~instruction:true
    (outcome ~l1_miss ~l2_miss ~tlb_miss)

let daccess t addr =
  t.daccesses <- t.daccesses + 1;
  let tlb_miss = not (Tlb.access t.dtlb addr) in
  let l1_miss = not (Sa_cache.access t.dcache addr) in
  let l2_miss = l1_miss && not (Sa_cache.access t.l2 addr) in
  if l2_miss then t.l2d_misses <- t.l2d_misses + 1;
  access_of_outcome t.cfg ~instruction:false
    (outcome ~l1_miss ~l2_miss ~tlb_miss)

let dload = daccess
let dstore = daccess

let l1i_miss_rate t = Sa_cache.miss_rate t.icache
let l1d_miss_rate t = Sa_cache.miss_rate t.dcache

let rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let l2i_miss_rate t = rate t.l2i_misses t.ifetches
let l2d_miss_rate t = rate t.l2d_misses t.daccesses
let itlb_miss_rate t = Tlb.miss_rate t.itlb
let dtlb_miss_rate t = Tlb.miss_rate t.dtlb

let reset_stats t =
  Sa_cache.reset_stats t.icache;
  Sa_cache.reset_stats t.dcache;
  Sa_cache.reset_stats t.l2;
  Tlb.reset_stats t.itlb;
  Tlb.reset_stats t.dtlb;
  t.ifetches <- 0;
  t.l2i_misses <- 0;
  t.daccesses <- 0;
  t.l2d_misses <- 0
