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
}

let create (cfg : Config.Machine.t) =
  {
    cfg;
    icache = Sa_cache.create cfg.icache;
    dcache = Sa_cache.create cfg.dcache;
    l2 = Sa_cache.create cfg.l2;
    itlb = Tlb.create cfg.itlb;
    dtlb = Tlb.create cfg.dtlb;
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
  let tlb_miss = not (Tlb.access t.itlb pc) in
  let l1_miss = not (Sa_cache.access t.icache pc) in
  let l2_miss = l1_miss && not (Sa_cache.access t.l2 pc) in
  access_of_outcome t.cfg ~instruction:true
    (outcome ~l1_miss ~l2_miss ~tlb_miss)

let daccess t addr =
  let tlb_miss = not (Tlb.access t.dtlb addr) in
  let l1_miss = not (Sa_cache.access t.dcache addr) in
  let l2_miss = l1_miss && not (Sa_cache.access t.l2 addr) in
  access_of_outcome t.cfg ~instruction:false
    (outcome ~l1_miss ~l2_miss ~tlb_miss)

let dload = daccess
let dstore = daccess
