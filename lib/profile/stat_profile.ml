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

(* The per-chunk node index beside the SFG's own table. A block start
   looks its history key up here, not in [Sfg]'s generic table: an
   open-addressed table over two int arrays maps the key to a dense node
   id (a packed history's low field is at least 1, so no key is 0 and 0
   marks a free slot). Per id it keeps the node and its last successor:
   that successor's key, id and edge-count cell, so a block that repeats
   its predecessor's last transition costs no lookup at all. Nodes still
   enter the SFG through [Sfg.find_or_add] and edges through
   [Sfg.record_transition], in first-occurrence order, so both tables
   fill exactly as a lookup per block fills them. *)
module Index = struct
  type t = {
    mutable keys : int array;  (* power-of-two length, at most half full *)
    mutable ids : int array;
    mutable nodes : Sfg.node array;  (* by id; allocated by the first node *)
    mutable succ_key : int array;  (* 0: no successor seen yet *)
    mutable succ_id : int array;
    mutable succ_cell : int ref array;
    mutable len : int;
  }

  let create () =
    {
      keys = Array.make 1024 0;
      ids = Array.make 1024 0;
      nodes = [||];
      succ_key = [||];
      succ_id = [||];
      succ_cell = [||];
      len = 0;
    }

  let clear t =
    Array.fill t.keys 0 (Array.length t.keys) 0;
    t.len <- 0

  (* the slot holding [key], or the free slot where it belongs *)
  let slot keys key =
    let mask = Array.length keys - 1 in
    let i = ref (((key * 0x2545F4914F6CDD1D) lsr 24) land mask) in
    while
      let k = Array.unsafe_get keys !i in
      k <> key && k <> 0
    do
      i := (!i + 1) land mask
    done;
    !i

  let grow_table t =
    let keys = Array.make (2 * Array.length t.keys) 0 in
    let ids = Array.make (Array.length keys) 0 in
    Array.iteri
      (fun i key ->
        if key <> 0 then begin
          let s = slot keys key in
          keys.(s) <- key;
          ids.(s) <- t.ids.(i)
        end)
      t.keys;
    t.keys <- keys;
    t.ids <- ids

  let grow_nodes t node =
    let n = Array.length t.nodes in
    let cap = if n = 0 then 1024 else 2 * n in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.nodes <- extend t.nodes node;
    t.succ_key <- extend t.succ_key 0;
    t.succ_id <- extend t.succ_id 0;
    t.succ_cell <- extend t.succ_cell (ref 0)

  let find_or_add t sfg ~key ~block =
    let s = slot t.keys key in
    if t.keys.(s) = key then t.ids.(s)
    else begin
      let node = Sfg.find_or_add sfg ~key ~block in
      let id = t.len in
      if id = Array.length t.nodes then grow_nodes t node;
      t.nodes.(id) <- node;
      t.succ_key.(id) <- 0;
      t.keys.(s) <- key;
      t.ids.(s) <- id;
      t.len <- id + 1;
      if 2 * t.len > Array.length t.keys then grow_table t;
      id
    end
end

(* Profiling state that persists across chunk boundaries: the machine
   structures being modeled (caches, TLBs, predictor and its FIFO) and
   the architectural register history. Only the SFG under construction
   and its index are per-chunk. *)
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
  index : Index.t;
  mutable cur : int;  (* the current node's index id; -1 before a chunk's first *)
  mutable slot_idx : int;
  (* slots the current occurrence added past its node's slot array *)
  mutable grown : Sfg.slot array;
  mutable ngrown : int;
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
    index = Index.create ();
    cur = -1;
    slot_idx = 0;
    grown = [||];
    ngrown = 0;
    seq = 0;
    branches_base = 0;
    mispredicts_base = 0;
  }

(* A node's slot array grows only while an occurrence runs past its end,
   mostly the node's first. The new slots wait in [st.grown] and join
   the array in one copy when the occurrence ends, not one copy each. *)
let slot_at st (node : Sfg.node) (inst : Isa.Dyn_inst.t) =
  if st.slot_idx < Array.length node.slots then node.slots.(st.slot_idx)
  else begin
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
    if st.ngrown = Array.length st.grown then begin
      let grown = Array.make (max 16 (2 * st.ngrown)) slot in
      Array.blit st.grown 0 grown 0 st.ngrown;
      st.grown <- grown
    end;
    st.grown.(st.ngrown) <- slot;
    st.ngrown <- st.ngrown + 1;
    slot
  end

(* the current occurrence ended: its new slots join its node *)
let commit_slots st =
  if st.ngrown > 0 then begin
    let node = st.index.nodes.(st.cur) in
    let n = Array.length node.slots in
    let slots = Array.make (n + st.ngrown) st.grown.(0) in
    Array.blit node.slots 0 slots 0 n;
    Array.blit st.grown 0 slots n st.ngrown;
    node.slots <- slots;
    st.ngrown <- 0
  end

(* enter the node of a new block: shift the block into the history and
   count the transition from the previous node *)
let enter_block st sfg block =
  commit_slots st;
  let k = st.k in
  for i = (if st.hist_len < k then st.hist_len else k) downto 1 do
    st.history.(i) <- st.history.(i - 1)
  done;
  st.history.(0) <- block;
  if st.hist_len < k + 1 then st.hist_len <- st.hist_len + 1;
  let key = Sfg.key_of_history st.history ~len:st.hist_len in
  let ix = st.index and prev = st.cur in
  let id =
    if prev >= 0 && ix.succ_key.(prev) = key then begin
      incr ix.succ_cell.(prev);
      ix.succ_id.(prev)
    end
    else begin
      let id = Index.find_or_add ix sfg ~key ~block in
      if prev >= 0 then begin
        ix.succ_cell.(prev) <-
          Sfg.record_transition ix.nodes.(prev) ~succ_key:key;
        ix.succ_key.(prev) <- key;
        ix.succ_id.(prev) <- id
      end;
      id
    end
  in
  let node = ix.nodes.(id) in
  node.occurrences <- node.occurrences + 1;
  st.cur <- id;
  st.slot_idx <- 0

(* the distance back to instruction [earlier], capped at [dep_cap] *)
let[@inline] distance st earlier =
  let d = st.seq - earlier in
  if d < st.dep_cap then d else st.dep_cap

let step st sfg (inst : Isa.Dyn_inst.t) =
  if inst.first_in_block || st.cur < 0 then enter_block st sfg inst.block;
  let node = st.index.nodes.(st.cur) in
  let slot = slot_at st node inst in
  st.slot_idx <- st.slot_idx + 1;
  let seq = st.seq and srcs = inst.srcs in
  (* dependency distances per operand *)
  for p = 0 to Array.length srcs - 1 do
    let r = srcs.(p) in
    if p < slot.nsrcs && r >= 0 && r <> Isa.Reg.zero then begin
      let w = st.last_writer.(r) in
      if w >= 0 then Stats.Histogram.add slot.deps.(p) (distance st w)
    end
  done;
  (* WAW/WAR distances for machines without register renaming *)
  if st.cfg.Config.Machine.in_order && inst.dest >= 0 then begin
    let w = st.last_writer.(inst.dest) in
    if w >= 0 then Stats.Histogram.add slot.waw (distance st w);
    let r = st.last_reader.(inst.dest) in
    if r >= 0 then Stats.Histogram.add slot.war (distance st r)
  end;
  for p = 0 to Array.length srcs - 1 do
    let r = srcs.(p) in
    if r >= 0 && r <> Isa.Reg.zero then st.last_reader.(r) <- seq
  done;
  if inst.dest >= 0 then st.last_writer.(inst.dest) <- seq;
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
  st.seq <- seq + 1

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
        commit_slots st;
        (* at end of stream, drain pending delayed-update results (they are
           attributed to the nodes they were pushed with, possibly in an
           earlier chunk, which is where those branches executed) *)
        if !exhausted then (
          match st.bprof with Some bp -> Branch_profiler.flush bp | None -> ());
        if st.seq > start then
          profiles := finish st sfg ~instructions:(st.seq - start) :: !profiles;
        (* a new chunk starts a new SFG: the first transition of the next
           chunk must not point into the old graph *)
        st.cur <- -1;
        Index.clear st.index
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
