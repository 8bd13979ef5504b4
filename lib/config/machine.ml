type cache = {
  size_bytes : int;
  assoc : int;
  block_bytes : int;
  hit_latency : int;
}

type tlb = { entries : int; tlb_assoc : int; page_bytes : int; miss_penalty : int }

type predictor_kind = Hybrid_local | Gshare | Bimodal_only

type bpred = {
  kind : predictor_kind;
  meta_entries : int;
  bimodal_entries : int;
  local_hist_entries : int;
  local_pattern_entries : int;
  local_hist_bits : int;
  btb_sets : int;
  btb_assoc : int;
  ras_entries : int;
}

type fu_pool = {
  int_alu : int;
  int_mult_div : int;
  mem_ports : int;
  fp_alu : int;
  fp_mult_div : int;
}

type t = {
  icache : cache;
  dcache : cache;
  l2 : cache;
  itlb : tlb;
  dtlb : tlb;
  mem_latency : int;
  bpred : bpred;
  mispredict_restart : int;
  fetch_redirect_penalty : int;
  ifq_size : int;
  ruu_size : int;
  lsq_size : int;
  fetch_speed : int;
  decode_width : int;
  issue_width : int;
  commit_width : int;
  fu : fu_pool;
  in_order : bool;
}

let kb n = n * 1024

let baseline =
  {
    icache = { size_bytes = kb 8; assoc = 2; block_bytes = 32; hit_latency = 1 };
    dcache = { size_bytes = kb 16; assoc = 4; block_bytes = 32; hit_latency = 2 };
    l2 = { size_bytes = kb 1024; assoc = 4; block_bytes = 64; hit_latency = 20 };
    itlb = { entries = 32; tlb_assoc = 8; page_bytes = kb 4; miss_penalty = 30 };
    dtlb = { entries = 32; tlb_assoc = 8; page_bytes = kb 4; miss_penalty = 30 };
    mem_latency = 150;
    bpred =
      {
        kind = Hybrid_local;
        meta_entries = 8192;
        bimodal_entries = 8192;
        local_hist_entries = 8192;
        local_pattern_entries = 8192;
        local_hist_bits = 13;
        btb_sets = 128;
        btb_assoc = 4;
        ras_entries = 64;
      };
    mispredict_restart = 3;
    fetch_redirect_penalty = 2;
    ifq_size = 32;
    ruu_size = 128;
    lsq_size = 32;
    fetch_speed = 2;
    decode_width = 8;
    issue_width = 8;
    commit_width = 8;
    fu = { int_alu = 8; int_mult_div = 2; mem_ports = 4; fp_alu = 2; fp_mult_div = 2 };
    in_order = false;
  }

(* SimpleScalar's out-of-the-box configuration, used for the HLS
   comparison (Section 4.3): 4-wide, 16-entry RUU, 8-entry LSQ, 16KB L1
   caches, bimodal predictor sizes left as in [baseline] scaled down. *)
let hls_baseline =
  {
    baseline with
    icache = { size_bytes = kb 16; assoc = 1; block_bytes = 32; hit_latency = 1 };
    dcache = { size_bytes = kb 16; assoc = 4; block_bytes = 32; hit_latency = 1 };
    l2 = { size_bytes = kb 256; assoc = 4; block_bytes = 64; hit_latency = 6 };
    bpred =
      {
        kind = Hybrid_local;
        meta_entries = 2048;
        bimodal_entries = 2048;
        local_hist_entries = 2048;
        local_pattern_entries = 2048;
        local_hist_bits = 11;
        btb_sets = 128;
        btb_assoc = 4;
        ras_entries = 8;
      };
    ifq_size = 4;
    ruu_size = 16;
    lsq_size = 8;
    fetch_speed = 1;
    decode_width = 4;
    issue_width = 4;
    commit_width = 4;
    fu = { int_alu = 4; int_mult_div = 1; mem_ports = 2; fp_alu = 4; fp_mult_div = 1 };
  }

let op_latency (c : Isa.Iclass.t) =
  match c with
  | Int_alu | Int_branch | Indirect_branch -> 1
  | Load | Store -> 1 (* address generation; memory time added on top *)
  | Int_mult -> 3
  | Int_div -> 20
  | Fp_alu | Fp_branch -> 2
  | Fp_mult -> 4
  | Fp_div -> 12
  | Fp_sqrt -> 24

let scale_size n factor = max 1 (int_of_float (float_of_int n *. factor))

let scale_caches t factor =
  let sc (c : cache) = { c with size_bytes = scale_size c.size_bytes factor } in
  { t with icache = sc t.icache; dcache = sc t.dcache; l2 = sc t.l2 }

let scale_bpred t factor =
  let b = t.bpred in
  {
    t with
    bpred =
      {
        b with
        meta_entries = scale_size b.meta_entries factor;
        bimodal_entries = scale_size b.bimodal_entries factor;
        local_hist_entries = scale_size b.local_hist_entries factor;
        local_pattern_entries = scale_size b.local_pattern_entries factor;
      };
  }

let with_window t ~ruu ~lsq = { t with ruu_size = ruu; lsq_size = lsq }

let with_width t w =
  { t with decode_width = w; issue_width = w; commit_width = w }

let with_ifq t n = { t with ifq_size = n }

let in_order_variant t = { t with in_order = true }

let with_predictor t kind = { t with bpred = { t.bpred with kind } }

(* --- design-space axes ---
   The named knobs a sweep grammar may vary. Each axis owns its getter
   and setter, so the DSE layer never pattern-matches on the record:
   adding an axis here is the whole job. Setter values are validated
   (in [1, axis_max], and a power of two where the structure indexes by
   mask) because a sweep file is user input. Each bound is the largest
   value a run can allocate and finish with; the reason sits with it. *)

type axis = {
  axis_name : string;
  axis_get : t -> int;
  axis_set : t -> int -> t;
  axis_max : int;
  axis_pow2 : bool;
}

let check_value ~name ~max ~pow2 v =
  if v < 1 then
    invalid_arg (Printf.sprintf "Config.Machine axis %s: value %d < 1" name v)
  else if v > max then
    invalid_arg
      (Printf.sprintf "Config.Machine axis %s: value %d > %d" name v max)
  else if pow2 && v land (v - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Config.Machine axis %s: value %d is not a power of two"
         name v)

let check_axis a v =
  check_value ~name:a.axis_name ~max:a.axis_max ~pow2:a.axis_pow2 v

let ax ?(pow2 = false) ~max name get set =
  let checked t v =
    check_value ~name ~max ~pow2 v;
    set t v
  in
  {
    axis_name = name;
    axis_get = get;
    axis_set = checked;
    axis_max = max;
    axis_pow2 = pow2;
  }

let set_bpred_tables t v =
  {
    t with
    bpred =
      {
        t.bpred with
        meta_entries = v;
        bimodal_entries = v;
        local_hist_entries = v;
        local_pattern_entries = v;
      };
  }

(* A run holds about 25 words per RUU entry (its slot arrays and eight
   waiter edges): 2^16 entries is 13 MiB of pipeline state. *)
let ruu_max = 1 lsl 16

(* Up to 1,024 instructions decoded, issued or committed a cycle.
   decode_width x fetch_speed is a cycle's fetch budget, and EDS's
   rewind window holds one budget: 2^16 instructions at both bounds. *)
let width_max = 1 lsl 10

(* Each cache keeps a tag and an LRU stamp per block: a 64 MiB cache of
   32-byte blocks is 32 MiB of them, and the profiler and EDS each build
   a hierarchy. *)
let cache_kb_max = 1 lsl 16

let axes =
  [
    ax "ruu" ~max:ruu_max
      (fun t -> t.ruu_size)
      (fun t v -> { t with ruu_size = v });
    (* the LSQ is a count, and each memory op in it also holds an RUU
       entry: a larger LSQ than the largest RUU never fills *)
    ax "lsq" ~max:ruu_max
      (fun t -> t.lsq_size)
      (fun t v -> { t with lsq_size = v });
    (* delayed branch profiling keeps an IFQ-sized FIFO; under
       squash-and-refetch (the ablation's mode) each branch in it holds
       a RAS copy: with [ras_entries] at its bound too, 2^20 words,
       8 MiB *)
    ax "ifq" ~max:(1 lsl 10)
      (fun t -> t.ifq_size)
      (fun t v -> { t with ifq_size = v });
    (* taken branches fetched a cycle, a factor of the fetch budget *)
    ax "fetch_speed" ~max:(1 lsl 6)
      (fun t -> t.fetch_speed)
      (fun t v -> { t with fetch_speed = v });
    ax "decode_width" ~max:width_max
      (fun t -> t.decode_width)
      (fun t v -> { t with decode_width = v });
    ax "issue_width" ~max:width_max
      (fun t -> t.issue_width)
      (fun t v -> { t with issue_width = v });
    ax "commit_width" ~max:width_max
      (fun t -> t.commit_width)
      (fun t v -> { t with commit_width = v });
    (* the classic machine-width sweep: decode = issue = commit *)
    ax "width" ~max:width_max (fun t -> t.decode_width) with_width;
    (* 2^30 cycles: IPC is ~1e-7 there already, and the bound keeps a
       run's cycle count and the pipeline's watchdog sum far from
       wrapping for any trace under 2^31 instructions *)
    ax "mem_latency" ~max:(1 lsl 30)
      (fun t -> t.mem_latency)
      (fun t v -> { t with mem_latency = v });
    ax "icache_kb" ~max:cache_kb_max
      (fun t -> t.icache.size_bytes / 1024)
      (fun t v -> { t with icache = { t.icache with size_bytes = kb v } });
    ax "dcache_kb" ~max:cache_kb_max
      (fun t -> t.dcache.size_bytes / 1024)
      (fun t v -> { t with dcache = { t.dcache with size_bytes = kb v } });
    ax "l2_kb" ~max:cache_kb_max
      (fun t -> t.l2.size_bytes / 1024)
      (fun t v -> { t with l2 = { t.l2 with size_bytes = kb v } });
    (* every access scans all the ways of its set; [validate] keeps
       the ways within the cache's blocks *)
    ax "icache_assoc" ~max:(1 lsl 10)
      (fun t -> t.icache.assoc)
      (fun t v -> { t with icache = { t.icache with assoc = v } });
    ax "dcache_assoc" ~max:(1 lsl 10)
      (fun t -> t.dcache.assoc)
      (fun t v -> { t with dcache = { t.dcache with assoc = v } });
    ax "l2_assoc" ~max:(1 lsl 10)
      (fun t -> t.l2.assoc)
      (fun t v -> { t with l2 = { t.l2 with assoc = v } });
    (* all four predictor tables in lockstep, like [scale_bpred]. They
       index by mask, so sizes are powers of two, and take 11 bytes an
       entry together: 11 MiB at 2^20 *)
    ax "bpred_entries" ~max:(1 lsl 20) ~pow2:true
      (fun t -> t.bpred.meta_entries)
      set_bpred_tables;
    (* three words per BTB way: 6 MiB at 2^16 sets of the baseline's
       four ways *)
    ax "btb_sets" ~max:(1 lsl 16)
      (fun t -> t.bpred.btb_sets)
      (fun t v -> { t with bpred = { t.bpred with btb_sets = v } });
    (* squash-and-refetch branch profiling (the ablation's mode) copies
       the RAS at every branch: 8 KiB a branch at 2^10 entries. The
       default delayed mode never squashes and copies nothing *)
    ax "ras_entries" ~max:(1 lsl 10)
      (fun t -> t.bpred.ras_entries)
      (fun t v -> { t with bpred = { t.bpred with ras_entries = v } });
  ]

let validate t =
  let ways_fit name c =
    let blocks = c.size_bytes / c.block_bytes in
    if c.assoc <= blocks then Ok ()
    else
      Error (Printf.sprintf "%s has %d ways but %d blocks" name c.assoc blocks)
  in
  Result.bind (ways_fit "icache" t.icache) (fun () ->
      Result.bind (ways_fit "dcache" t.dcache) (fun () -> ways_fit "l2" t.l2))

let axis_names = List.map (fun a -> a.axis_name) axes
let find_axis name = List.find_opt (fun a -> a.axis_name = name) axes

(* Every field, in declaration order, under a scheme-version tag. A new
   field is appended here (and the tag bumped if the meaning of an
   existing field changes): persistent cache keys and a profile's
   record of its machine are this string, so it must be exhaustive and
   stable. test_config walks the record's runtime representation and
   fails for any leaf field this rendering leaves out. *)
let canonical (t : t) =
  let b = Buffer.create 256 in
  let f fmt = Printf.bprintf b fmt in
  let cache tag (c : cache) =
    f "%s=%d/%d/%d/%d;" tag c.size_bytes c.assoc c.block_bytes c.hit_latency
  in
  let tlb tag (x : tlb) =
    f "%s=%d/%d/%d/%d;" tag x.entries x.tlb_assoc x.page_bytes x.miss_penalty
  in
  f "machine-v1;";
  cache "icache" t.icache;
  cache "dcache" t.dcache;
  cache "l2" t.l2;
  tlb "itlb" t.itlb;
  tlb "dtlb" t.dtlb;
  f "mem=%d;" t.mem_latency;
  let kind =
    match t.bpred.kind with
    | Hybrid_local -> "hybrid"
    | Gshare -> "gshare"
    | Bimodal_only -> "bimodal"
  in
  f "bpred=%s/%d/%d/%d/%d/%d/%d/%d/%d;" kind t.bpred.meta_entries
    t.bpred.bimodal_entries t.bpred.local_hist_entries
    t.bpred.local_pattern_entries t.bpred.local_hist_bits t.bpred.btb_sets
    t.bpred.btb_assoc t.bpred.ras_entries;
  f "front=%d/%d/%d/%d;" t.mispredict_restart t.fetch_redirect_penalty
    t.ifq_size t.fetch_speed;
  f "window=%d/%d;" t.ruu_size t.lsq_size;
  f "width=%d/%d/%d;" t.decode_width t.issue_width t.commit_width;
  f "fu=%d/%d/%d/%d/%d;" t.fu.int_alu t.fu.int_mult_div t.fu.mem_ports
    t.fu.fp_alu t.fu.fp_mult_div;
  f "inorder=%b" t.in_order;
  Buffer.contents b

(* Profiling reads a cache's or TLB's hit and miss outcomes, never
   the cycles they cost, so the latencies stay the baseline's. *)
let profiled cfg =
  let cache (c : cache) (b : cache) = { c with hit_latency = b.hit_latency } in
  let tlb (t : tlb) (b : tlb) = { t with miss_penalty = b.miss_penalty } in
  {
    baseline with
    icache = cache cfg.icache baseline.icache;
    dcache = cache cfg.dcache baseline.dcache;
    l2 = cache cfg.l2 baseline.l2;
    itlb = tlb cfg.itlb baseline.itlb;
    dtlb = tlb cfg.dtlb baseline.dtlb;
    bpred = cfg.bpred;
    ifq_size = cfg.ifq_size;
    in_order = cfg.in_order;
  }
