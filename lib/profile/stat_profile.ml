(* Stage telemetry: one span per profiling pass (both collectors run
   the one loop, [collect_chunks]), instructions counted per pass. Free
   when telemetry is disabled. *)
let span_collect = Telemetry.span "profile.collect"
let c_instructions = Telemetry.counter "profile.instructions"

type t = {
  sfg : Sfg.t;
  k : int;
  machine : string;
  instructions : int;
  perfect_caches : bool;
  perfect_bpred : bool;
  branches : int;
  mispredicts : int;
}

let record_branch_result (node : Sfg.node) (inst : Isa.Dyn_inst.t)
    (r : Branch.Predictor.resolution) =
  node.br_execs <- node.br_execs + 1;
  (match inst.branch with
  | Some b when b.taken -> node.br_taken <- node.br_taken + 1
  | Some _ | None -> ());
  match r with
  | Branch.Predictor.Mispredict -> node.br_mispredict <- node.br_mispredict + 1
  | Branch.Predictor.Fetch_redirect -> node.br_redirect <- node.br_redirect + 1
  | Branch.Predictor.Correct -> ()

let ensure_slot (node : Sfg.node) idx (inst : Isa.Dyn_inst.t) =
  let nslots = Array.length node.slots in
  if idx >= nslots then begin
    (* first occurrence of this block reaches this slot: extend *)
    let nsrcs = Array.length inst.srcs in
    let slot =
      {
        Sfg.klass = inst.klass;
        nsrcs;
        deps = Array.init nsrcs (fun _ -> Stats.Histogram.create ());
        waw = Stats.Histogram.create ();
        war = Stats.Histogram.create ();
      }
    in
    let slots = Array.make (idx + 1) slot in
    Array.blit node.slots 0 slots 0 nslots;
    slots.(idx) <- slot;
    node.slots <- slots
  end;
  node.slots.(idx)

(* Profiling state that persists across chunk boundaries: the machine
   structures being modeled (caches, TLBs, predictor and its FIFO) and
   the architectural register history. Only the SFG under construction
   is per-chunk. *)
type state = {
  cfg : Config.Machine.t;
  k : int;
  dep_cap : int;
  perfect_caches : bool;
  perfect_bpred : bool;
  hier : Cache.Hierarchy.t option;
  bprof : Sfg.node Branch_profiler.t option;
  history : int array;
  mutable hist_len : int;
  last_writer : int array;
  last_reader : int array;
  mutable cur_node : Sfg.node option;
  mutable slot_idx : int;
  mutable seq : int;
  (* per-chunk branch accounting (the FIFO's counters are cumulative) *)
  mutable branches_base : int;
  mutable mispredicts_base : int;
}

let make_state ?(k = 1) ?(dep_cap = Sfg.dep_cap) ?branch_mode
    ?(perfect_caches = false) ?(perfect_bpred = false) cfg =
  if dep_cap < 1 || dep_cap > Sfg.dep_cap then
    invalid_arg "Stat_profile.collect: dep_cap out of [1, 512]";
  let branch_mode =
    match branch_mode with
    | Some m -> m
    | None -> Branch_profiler.default_delayed cfg
  in
  {
    cfg;
    k;
    dep_cap;
    perfect_caches;
    perfect_bpred;
    hier = (if perfect_caches then None else Some (Cache.Hierarchy.create cfg));
    bprof =
      (if perfect_bpred then None
       else
         Some
           (Branch_profiler.create cfg branch_mode
              ~on_result:record_branch_result));
    history = Array.make (k + 1) (-1);
    hist_len = 0;
    last_writer = Array.make Isa.Reg.count (-1);
    last_reader = Array.make Isa.Reg.count (-1);
    cur_node = None;
    slot_idx = 0;
    seq = 0;
    branches_base = 0;
    mispredicts_base = 0;
  }

let step st sfg (inst : Isa.Dyn_inst.t) =
  let k = st.k in
  if inst.first_in_block || st.cur_node = None then begin
    (* shift a new block into the history *)
    for i = min st.hist_len k downto 1 do
      st.history.(i) <- st.history.(i - 1)
    done;
    st.history.(0) <- inst.block;
    if st.hist_len < k + 1 then st.hist_len <- st.hist_len + 1;
    let key = Sfg.key_of_history st.history ~len:st.hist_len in
    let node = Sfg.find_or_add sfg ~key ~block:inst.block in
    node.occurrences <- node.occurrences + 1;
    (match st.cur_node with
    | Some prev -> Sfg.record_transition prev ~succ_key:key
    | None -> ());
    st.cur_node <- Some node;
    st.slot_idx <- 0
  end;
  let node = Option.get st.cur_node in
  let slot = ensure_slot node st.slot_idx inst in
  st.slot_idx <- st.slot_idx + 1;
  (* dependency distances per operand *)
  Array.iteri
    (fun p r ->
      if p < slot.nsrcs && r >= 0 && r <> Isa.Reg.zero then begin
        let w = st.last_writer.(r) in
        if w >= 0 then
          Stats.Histogram.add slot.deps.(p) (min (st.seq - w) st.dep_cap)
      end)
    inst.srcs;
  (* WAW/WAR distances for machines without register renaming *)
  if st.cfg.Config.Machine.in_order && inst.dest >= 0 then begin
    let w = st.last_writer.(inst.dest) in
    if w >= 0 then Stats.Histogram.add slot.waw (min (st.seq - w) st.dep_cap);
    let r = st.last_reader.(inst.dest) in
    if r >= 0 then Stats.Histogram.add slot.war (min (st.seq - r) st.dep_cap)
  end;
  Array.iter
    (fun r -> if r >= 0 && r <> Isa.Reg.zero then st.last_reader.(r) <- st.seq)
    inst.srcs;
  if inst.dest >= 0 then st.last_writer.(inst.dest) <- st.seq;
  (* locality events *)
  (match st.hier with
  | None -> ()
  | Some h ->
    let io = Cache.Hierarchy.ifetch h inst.pc in
    node.fetches <- node.fetches + 1;
    if Cache.Hierarchy.l1_miss io then node.l1i_misses <- node.l1i_misses + 1;
    if Cache.Hierarchy.l1_miss io && Cache.Hierarchy.l2_miss io then
      node.l2i_misses <- node.l2i_misses + 1;
    if Cache.Hierarchy.tlb_miss io then
      node.itlb_misses <- node.itlb_misses + 1;
    if Isa.Iclass.is_load inst.klass then begin
      let o = Cache.Hierarchy.dload h inst.mem_addr in
      node.loads <- node.loads + 1;
      if Cache.Hierarchy.l1_miss o then node.l1d_misses <- node.l1d_misses + 1;
      if Cache.Hierarchy.l1_miss o && Cache.Hierarchy.l2_miss o then
        node.l2d_misses <- node.l2d_misses + 1;
      if Cache.Hierarchy.tlb_miss o then
        node.dtlb_misses <- node.dtlb_misses + 1
    end
    else if Isa.Iclass.is_store inst.klass then
      (* keep the data cache warm; the paper assigns locality flags to
         loads only *)
      ignore (Cache.Hierarchy.dstore h inst.mem_addr));
  (* branch behaviour *)
  (match st.bprof with
  | Some bp -> Branch_profiler.push bp node inst
  | None -> (
    (* perfect prediction: only the taken rate matters for fetch *)
    match inst.branch with
    | Some b ->
      node.br_execs <- node.br_execs + 1;
      if b.taken then node.br_taken <- node.br_taken + 1
    | None -> ()));
  st.seq <- st.seq + 1

let finish st sfg ~instructions =
  (* per-chunk deltas of the profiler's cumulative counters *)
  let cum_b, cum_m =
    match st.bprof with
    | Some bp -> (Branch_profiler.branches bp, Branch_profiler.mispredicts bp)
    | None -> (0, 0)
  in
  let branches = cum_b - st.branches_base in
  let mispredicts = cum_m - st.mispredicts_base in
  st.branches_base <- cum_b;
  st.mispredicts_base <- cum_m;
  {
    sfg;
    k = st.k;
    machine = Config.Machine.canonical st.cfg;
    instructions;
    perfect_caches = st.perfect_caches;
    perfect_bpred = st.perfect_bpred;
    branches;
    mispredicts;
  }

(* The one profiling loop: consecutive chunks of at most [chunk_length]
   instructions, each into a fresh SFG, with the machine state warm
   across chunk boundaries. A chunk that reads no instruction yields no
   profile; the state comes back with the profiles. *)
let collect_chunks ?k ?dep_cap ?branch_mode ?perfect_caches ?perfect_bpred cfg
    gen ~chunk_length =
  Telemetry.time span_collect (fun () ->
      let st =
        make_state ?k ?dep_cap ?branch_mode ?perfect_caches ?perfect_bpred cfg
      in
      let profiles = ref [] in
      let exhausted = ref false in
      while not !exhausted do
        let sfg = Sfg.create ~k:st.k in
        let start = st.seq in
        while st.seq - start < chunk_length && not !exhausted do
          match gen () with
          | None -> exhausted := true
          | Some inst -> step st sfg inst
        done;
        (* at end of stream, drain pending delayed-update results (they are
           attributed to the nodes they were pushed with, possibly in an
           earlier chunk, which is where those branches executed) *)
        if !exhausted then (
          match st.bprof with Some bp -> Branch_profiler.flush bp | None -> ());
        if st.seq > start then
          profiles := finish st sfg ~instructions:(st.seq - start) :: !profiles;
        (* a new chunk starts a new SFG: the first transition of the next
           chunk must not point into the old graph *)
        st.cur_node <- None
      done;
      Telemetry.add c_instructions st.seq;
      (st, List.rev !profiles))

let collect ?k ?dep_cap ?branch_mode ?perfect_caches ?perfect_bpred cfg gen =
  match
    collect_chunks ?k ?dep_cap ?branch_mode ?perfect_caches ?perfect_bpred cfg
      gen ~chunk_length:max_int
  with
  | _, p :: _ -> p
  | st, [] -> finish st (Sfg.create ~k:st.k) ~instructions:0

let collect_chunked ?k ?dep_cap ?branch_mode ?perfect_caches ?perfect_bpred
    cfg gen ~chunk_length =
  if chunk_length <= 0 then
    invalid_arg "Stat_profile.collect_chunked: chunk_length <= 0";
  snd
    (collect_chunks ?k ?dep_cap ?branch_mode ?perfect_caches ?perfect_bpred
       cfg gen ~chunk_length)

let mpki t =
  if t.instructions = 0 then 0.0
  else 1000.0 *. float_of_int t.mispredicts /. float_of_int t.instructions

let mean_block_size t =
  let occ = Sfg.total_occurrences t.sfg in
  if occ = 0 then 0.0 else float_of_int t.instructions /. float_of_int occ
