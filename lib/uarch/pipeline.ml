(* RUU slot states *)
let st_wait = 0
let st_ready = 1
let st_exec = 2
let st_done = 3

(* functional-unit pools, cf. Config.Machine.fu_pool; the pool is also
   the activity category an issue charges *)
let pool_of (c : Isa.Iclass.t) =
  match c with
  | Int_alu | Int_branch | Indirect_branch -> 0
  | Int_mult | Int_div -> 1
  | Load | Store -> 2
  | Fp_alu | Fp_branch -> 3
  | Fp_mult | Fp_div | Fp_sqrt -> 4

(* per-class tables, indexed by the feed word's class index *)
let class_pool = Array.map pool_of Isa.Iclass.all
let class_latency = Array.map Config.Machine.op_latency Isa.Iclass.all

(* per-class predicates as sets of class indices, one bit each: a test
   is a shift and a mask, with no table read *)
let class_set p =
  Array.fold_left
    (fun set c -> if p c then set lor (1 lsl Isa.Iclass.index c) else set)
    0 Isa.Iclass.all

let mem_classes = class_set Isa.Iclass.is_mem
let load_classes = class_set Isa.Iclass.is_load
let store_classes = class_set Isa.Iclass.is_store
let[@inline] class_in set cls = (set lsr cls) land 1 <> 0

(* the latency of a fetch or data access that misses everywhere *)
let worst_access cfg ~instruction =
  Cache.Hierarchy.latency_of_outcome cfg ~instruction
    (Cache.Hierarchy.outcome ~l1_miss:true ~l2_miss:true ~tlb_miss:true)

let longest_op = Array.fold_left max 0 class_latency

(* The watchdog fires when nothing commits for this many cycles. A legal
   machine stays far below it: by the time the oldest instruction is
   fetched its producers have committed, so a commit gap is a fetch miss
   or two, one load miss, the longest operation and the front-end
   penalties. The bound is four times their sum, and at least 200,000
   cycles. *)
let watchdog_floor = 200_000

let watchdog_cycles (cfg : Config.Machine.t) =
  max watchdog_floor
    (4
    * (worst_access cfg ~instruction:true
      + worst_access cfg ~instruction:false
      + longest_op + cfg.mispredict_restart + cfg.fetch_redirect_penalty))

(* The longest latency an issue can draw: the longest operation, or a
   load's address generation plus an all-miss data access. *)
let max_issue_latency cfg =
  max longest_op
    (class_latency.(Isa.Iclass.index Load)
    + worst_access cfg ~instruction:false)

(* The timing wheel has the smallest power of two of buckets above the
   longest issue latency, so every executing slot is due within one lap,
   but no more than [max_wheel_buckets]: a swept memory latency must not
   size the memory of a run. On a slower machine a slot due a lap or
   more ahead waits in the wheel's overflow list. *)
let max_wheel_buckets = 1 lsl 10

let wheel_buckets cfg =
  let longest = max_issue_latency cfg in
  let rec up n =
    if n > longest || n >= max_wheel_buckets then n else up (2 * n)
  in
  up 1

(* Waiter edges per consumer slot: at most six producers on the synthetic
   feed and five on EDS (three sources plus WAW and WAR). *)
let edge_stride_log2 = 3
let edge_stride = 1 lsl edge_stride_log2

(* Why the front end last stopped fetching. Sticky: it is cleared only
   when a fetch burst actually resumes, because the bubble a stalled
   fetch engine creates reaches the dispatch stage one or more cycles
   after the stall window itself has passed — attributing empty-IFQ
   dispatch stalls by "is the stall window still open" would charge
   the bubble to the wrong cause. *)
type fetch_stall = Fs_none | Fs_redirect | Fs_icache | Fs_squash

(* Per-cycle occupancy telemetry, shared by the EDS and synthetic
   simulators (free when telemetry is disabled). *)
let h_ruu_occ = Telemetry.histogram "uarch.occupancy.ruu"
let h_lsq_occ = Telemetry.histogram "uarch.occupancy.lsq"
let h_ifq_occ = Telemetry.histogram "uarch.occupancy.ifq"

(* Per-stage work, counted in machine-local ints and published once per
   run. *)
let c_wakeups = Telemetry.counter "uarch.wakeups"
let c_issue_examined = Telemetry.counter "uarch.issue_examined"
let c_cycles_skipped = Telemetry.counter "uarch.cycles_skipped"
let c_squashed = Telemetry.counter "uarch.squashed"

(* what a run reads: a synthetic trace or the execution-driven stream *)
type feed = Trace of Trace_feed.t | Eds of Eds_feed.t

type machine = {
  cfg : Config.Machine.t;
  (* the instruction source: the trace feed, or an empty trace feed
     with the execution-driven feed beside it (never one variant field:
     that would put a block between every trace read and its arrays) *)
  trace : Trace_feed.t;
  eds : Eds_feed.t option;
  act : Power.Activity.t;
  in_order : bool;
  watchdog : int;
  (* RUU: a ring of [cap] slots kept as parallel int arrays. Dispatch
     is in order and a squash removes a suffix, so the in-flight seqs
     are always the contiguous range [head_seq, head_seq + count) and
     seq [p] sits at ring offset [p - head_seq] from [head]. *)
  cap : int;
  r_seq : int array;
  r_word : int array;  (* feed word *)
  r_state : int array;
  r_pending : int array;  (* producers not yet Done *)
  r_wrong : Bytes.t;  (* '\001' on the wrong path *)
  r_waiters : int array;  (* first waiter edge, or -1 *)
  (* Waiter edges: an intrusive list per producer slot. Edge
     [c * edge_stride + j] is consumer slot [c]'s edge to its producer
     [j]; [e_prod] holds the producer slot while the edge is linked
     and -1 otherwise. Consumers are prepended in dispatch order, so
     each list runs youngest consumer first. *)
  e_next : int array;
  e_prod : int array;
  mutable head : int;
  mutable head_seq : int;
  mutable count : int;
  mutable lsq : int;
  (* IFQ: a ring of feed words and wrong-path flags. It holds the
     positions [next_pos - ifq_len, next_pos). *)
  ifq_word : int array;
  ifq_wrong : Bytes.t;
  mutable ifq_head : int;
  mutable ifq_len : int;
  (* Executing slots: a timing wheel with a bucket per cycle modulo
     its power-of-two size, each bucket a list threaded through
     [r_next] and [r_prev]. Only slots due within one lap enter a
     bucket, so bucket [t land wheel_mask] holds exactly the slots due
     at cycle [t]. A slot due further ahead (only on a machine whose
     latencies outgrow [max_wheel_buckets]) enters the overflow list,
     the last cell of [wheel], with its cycle in [r_due], and moves to
     its bucket on that cycle. The first slot's [r_prev] is
     [-1 - bucket]. *)
  wheel : int array;  (* first slot of each list, or -1 *)
  wheel_mask : int;
  r_next : int array;
  r_prev : int array;
  r_due : int array;
  mutable overflow_due : int;  (* earliest [r_due] listed, or max_int *)
  (* seqs of the Ready slots, ascending *)
  ready : int array;
  mutable ready_len : int;
  mutable issue_seq : int;
      (* in-order issue only: the oldest slot not yet issued (issued
         slots always form a prefix of the window) *)
  mutable next_pos : int;
  mutable fetch_stall_until : int;
  mutable pending_mispredict : int;  (* seq, or -1 *)
  mutable cycle : int;
  mutable stream_done : bool;
  mutable last_commit_cycle : int;
  observe : bool;  (* occupancy histograms, read once per run *)
  fu_limit : int array;
  fu_used : int array;
  (* committed-instruction statistics *)
  mutable branches : int;
  mutable mispredicts : int;
  mutable redirects : int;
  mutable taken : int;
  mutable loads : int;
  mutable stores : int;
  (* dispatch-stall attribution *)
  mutable fetch_stall_reason : fetch_stall;
  mutable disp_count : int;  (* instructions dispatched this cycle *)
  mutable disp_lsq_blocked : bool;
  mutable stall_ruu : int;
  mutable stall_lsq : int;
  mutable stall_redirect : int;
  mutable stall_icache : int;
  mutable stall_squash : int;
  mutable stall_frontend : int;
  mutable stall_cycles : int;
  (* work counters *)
  mutable wakeups : int;
  mutable issue_examined : int;
  mutable cycles_skipped : int;
  mutable squashed : int;
}

let create cfg feed =
  let cap = cfg.Config.Machine.ruu_size in
  let trace, eds =
    match feed with
    | Trace t -> (t, None)
    | Eds e -> (Trace_feed.create cfg ~code:[||] ~deps:[||], Some e)
  in
  let buckets = wheel_buckets cfg in
  {
    cfg;
    trace;
    eds;
    act = Power.Activity.create ();
    in_order = cfg.in_order;
    watchdog = watchdog_cycles cfg;
    cap;
    r_seq = Array.make cap 0;
    r_word = Array.make cap 0;
    r_state = Array.make cap st_done;
    r_pending = Array.make cap 0;
    r_wrong = Bytes.make cap '\000';
    r_waiters = Array.make cap (-1);
    e_next = Array.make (edge_stride * cap) (-1);
    e_prod = Array.make (edge_stride * cap) (-1);
    head = 0;
    head_seq = 0;
    count = 0;
    lsq = 0;
    ifq_word = Array.make cfg.ifq_size 0;
    ifq_wrong = Bytes.make cfg.ifq_size '\000';
    ifq_head = 0;
    ifq_len = 0;
    wheel = Array.make (buckets + 1) (-1);
    wheel_mask = buckets - 1;
    r_next = Array.make cap (-1);
    r_prev = Array.make cap (-1);
    r_due = Array.make cap 0;
    overflow_due = max_int;
    ready = Array.make cap 0;
    ready_len = 0;
    issue_seq = 0;
    next_pos = 0;
    fetch_stall_until = 0;
    pending_mispredict = -1;
    cycle = 0;
    stream_done = false;
    last_commit_cycle = 0;
    observe = Telemetry.enabled ();
    fu_limit =
      [|
        cfg.fu.int_alu;
        cfg.fu.int_mult_div;
        cfg.fu.mem_ports;
        cfg.fu.fp_alu;
        cfg.fu.fp_mult_div;
      |];
    fu_used = Array.make 5 0;
    branches = 0;
    mispredicts = 0;
    redirects = 0;
    taken = 0;
    loads = 0;
    stores = 0;
    fetch_stall_reason = Fs_none;
    disp_count = 0;
    disp_lsq_blocked = false;
    stall_ruu = 0;
    stall_lsq = 0;
    stall_redirect = 0;
    stall_icache = 0;
    stall_squash = 0;
    stall_frontend = 0;
    stall_cycles = 0;
    wakeups = 0;
    issue_examined = 0;
    cycles_skipped = 0;
    squashed = 0;
  }

(* ring index of the slot [k] places behind [head], [0 <= k < cap] *)
let[@inline] ruu_index m k =
  let i = m.head + k in
  if i >= m.cap then i - m.cap else i

let[@inline] wrong_path m c = Bytes.unsafe_get m.r_wrong c <> '\000'

(* --- the six feed touch points: the trace case inline, the EDS case a
   direct call --- *)

let[@inline] feed_fetch m seq =
  match m.eds with
  | None -> Trace_feed.fetch m.trace seq
  | Some e -> Eds_feed.fetch e seq

let[@inline] feed_producer m seq j =
  match m.eds with
  | None -> Trace_feed.producer m.trace seq j
  | Some e -> Eds_feed.producer e seq j

let[@inline] feed_ifetch m seq ~wrong_path =
  match m.eds with
  | None -> Trace_feed.ifetch_access m.trace seq ~wrong_path
  | Some e -> Eds_feed.ifetch_access e seq ~wrong_path

let[@inline] feed_load m seq ~wrong_path =
  match m.eds with
  | None -> Trace_feed.load_access m.trace seq ~wrong_path
  | Some e -> Eds_feed.load_access e seq ~wrong_path

let[@inline] feed_commit_store m seq =
  match m.eds with
  | None -> Trace_feed.store_access m.trace
  | Some e -> Eds_feed.on_commit_store e seq

let[@inline] feed_dispatch m seq ~wrong_path =
  match m.eds with
  | None -> ()
  | Some e -> Eds_feed.on_dispatch e seq ~wrong_path

(* --- timing wheel --- *)

let[@inline] wheel_push m c b =
  let first = m.wheel.(b) in
  m.r_next.(c) <- first;
  m.r_prev.(c) <- -1 - b;
  if first >= 0 then m.r_prev.(first) <- c;
  m.wheel.(b) <- c

let[@inline] wheel_unlink m c =
  let prev = m.r_prev.(c) and next = m.r_next.(c) in
  if prev >= 0 then m.r_next.(prev) <- next else m.wheel.(-1 - prev) <- next;
  if next >= 0 then m.r_prev.(next) <- prev

(* executing slot [c] completes at cycle [at], after this one *)
let[@inline] wheel_link m c ~at =
  if at - m.cycle <= m.wheel_mask then wheel_push m c (at land m.wheel_mask)
  else begin
    m.r_due.(c) <- at;
    wheel_push m c (m.wheel_mask + 1);
    if at < m.overflow_due then m.overflow_due <- at
  end

(* the earliest due cycle in the overflow list, or max_int *)
let overflow_min m =
  let c = ref m.wheel.(m.wheel_mask + 1) in
  let t = ref max_int in
  while !c >= 0 do
    if m.r_due.(!c) < !t then t := m.r_due.(!c);
    c := m.r_next.(!c)
  done;
  !t

(* move the overflow slots due this cycle into its bucket *)
let land_overflow m =
  let b = m.cycle land m.wheel_mask in
  let c = ref m.wheel.(m.wheel_mask + 1) in
  while !c >= 0 do
    let slot = !c in
    c := m.r_next.(slot);
    if m.r_due.(slot) = m.cycle then begin
      wheel_unlink m slot;
      wheel_push m slot b
    end
  done;
  m.overflow_due <- overflow_min m

(* --- ready list --- *)

(* Dispatch appends (the new slot is the youngest in flight); a wakeup
   inserts by seq. *)
let[@inline] ready_insert m seq =
  let r = m.ready in
  let i = ref m.ready_len in
  while !i > 0 && r.(!i - 1) > seq do
    r.(!i) <- r.(!i - 1);
    decr i
  done;
  r.(!i) <- seq;
  m.ready_len <- m.ready_len + 1

(* Squash everything younger than [seq] — the tail of the window — and
   restart the front end just after it. Youngest first, each squashed
   slot leaves the wheel if it is executing and unlinks its waiter
   edges: every younger consumer is already gone, so its edges head
   their producers' lists, its last edge first. *)
let squash m ~seq =
  let keep = seq + 1 - m.head_seq in
  while m.count > keep do
    let c = ruu_index m (m.count - 1) in
    let w = m.r_word.(c) in
    if m.r_state.(c) = st_exec then wheel_unlink m c;
    for j = Feed.producers w - 1 downto 0 do
      let e = (c lsl edge_stride_log2) + j in
      let p = m.e_prod.(e) in
      if p >= 0 then begin
        m.r_waiters.(p) <- m.e_next.(e);
        m.e_prod.(e) <- -1
      end
    done;
    if class_in mem_classes (Feed.klass w) then m.lsq <- m.lsq - 1;
    m.count <- m.count - 1;
    m.squashed <- m.squashed + 1
  done;
  if m.overflow_due < max_int then m.overflow_due <- overflow_min m;
  while m.ready_len > 0 && m.ready.(m.ready_len - 1) > seq do
    m.ready_len <- m.ready_len - 1
  done;
  if m.issue_seq > seq + 1 then m.issue_seq <- seq + 1;
  m.ifq_head <- 0;
  m.ifq_len <- 0;
  m.next_pos <- seq + 1;
  m.stream_done <- false;
  let restart = m.cycle + m.cfg.mispredict_restart in
  if restart > m.fetch_stall_until then m.fetch_stall_until <- restart;
  m.fetch_stall_reason <- Fs_squash;
  m.pending_mispredict <- -1

let[@inline] commit_stage m ~budget ~hook =
  let n = ref 0 in
  while !n < budget && m.count > 0 && m.r_state.(m.head) = st_done do
    let w = m.r_word.(m.head) in
    let cls = Feed.klass w in
    if class_in store_classes cls then begin
      let a = feed_commit_store m m.head_seq in
      m.act.dcache_accesses <- m.act.dcache_accesses + 1;
      if Cache.Hierarchy.l1_miss a then
        m.act.l2_accesses <- m.act.l2_accesses + 1
    end;
    m.head <- ruu_index m 1;
    m.head_seq <- m.head_seq + 1;
    m.count <- m.count - 1;
    if class_in mem_classes cls then m.lsq <- m.lsq - 1;
    m.act.committed <- m.act.committed + 1;
    if Feed.is_branch w then begin
      m.branches <- m.branches + 1;
      if Feed.taken w then m.taken <- m.taken + 1;
      if Feed.mispredicted w then m.mispredicts <- m.mispredicts + 1
      else if Feed.redirected w then m.redirects <- m.redirects + 1
    end;
    if class_in load_classes cls then m.loads <- m.loads + 1;
    if class_in store_classes cls then m.stores <- m.stores + 1;
    m.last_commit_cycle <- m.cycle;
    (match hook with
    | Some f -> f ~committed:m.act.committed ~cycle:m.cycle
    | None -> ());
    incr n
  done

(* Wake every consumer waiting on slot [p] and empty its list. *)
let[@inline] wake m p =
  let e = ref m.r_waiters.(p) in
  m.r_waiters.(p) <- -1;
  while !e >= 0 do
    let edge = !e in
    let c = edge lsr edge_stride_log2 in
    m.e_prod.(edge) <- -1;
    m.wakeups <- m.wakeups + 1;
    let pending = m.r_pending.(c) - 1 in
    m.r_pending.(c) <- pending;
    if pending = 0 && m.r_state.(c) = st_wait then begin
      m.r_state.(c) <- st_ready;
      ready_insert m m.r_seq.(c)
    end;
    e := m.e_next.(edge)
  done

(* Complete the slots due this cycle: detach the cycle's bucket whole
   and walk it. Completion order within a cycle is immaterial: wakeups
   only move slots into the seq-sorted ready list, and the squash
   waits for the loop. *)
let[@inline] writeback_stage m =
  if m.overflow_due = m.cycle then land_overflow m;
  let b = m.cycle land m.wheel_mask in
  let c = ref m.wheel.(b) in
  m.wheel.(b) <- -1;
  let to_squash = ref (-1) in
  while !c >= 0 do
    let slot = !c in
    m.r_state.(slot) <- st_done;
    m.act.completed <- m.act.completed + 1;
    wake m slot;
    let seq = m.r_seq.(slot) in
    if seq = m.pending_mispredict then to_squash := seq;
    c := m.r_next.(slot)
  done;
  if !to_squash >= 0 then squash m ~seq:!to_squash

let[@inline] issue m c seq pool =
  let cls = Feed.klass m.r_word.(c) in
  let latency =
    let base = class_latency.(cls) in
    if class_in load_classes cls then begin
      let a = feed_load m seq ~wrong_path:(wrong_path m c) in
      m.act.dcache_accesses <- m.act.dcache_accesses + 1;
      if Cache.Hierarchy.l1_miss a then
        m.act.l2_accesses <- m.act.l2_accesses + 1;
      base + Cache.Hierarchy.latency a
    end
    else base
  in
  m.r_state.(c) <- st_exec;
  wheel_link m c ~at:(m.cycle + latency);
  m.fu_used.(pool) <- m.fu_used.(pool) + 1;
  m.act.issued <- m.act.issued + 1;
  if pool = 0 then m.act.int_alu_ops <- m.act.int_alu_ops + 1
  else if pool = 1 then m.act.int_mult_ops <- m.act.int_mult_ops + 1
  else if pool <> 2 then m.act.fp_ops <- m.act.fp_ops + 1

(* Walk the ready list oldest first, issuing into free functional
   units, and compact it in place; a slot whose pool is full stays for
   the next cycle. In order, only the oldest unissued slot
   ([issue_seq]) may go, so the walk ends at the first gap in the seq
   run: a slot still waiting on operands, or one just kept because its
   pool was full. *)
let[@inline] issue_stage m =
  let fu = m.fu_used in
  fu.(0) <- 0;
  fu.(1) <- 0;
  fu.(2) <- 0;
  fu.(3) <- 0;
  fu.(4) <- 0;
  let r = m.ready in
  let n = m.ready_len in
  let width = m.cfg.issue_width in
  let issued = ref 0 in
  let i = ref 0 in
  let kept = ref 0 in
  while
    !i < n && !issued < width && not (m.in_order && r.(!i) <> m.issue_seq)
  do
    let seq = r.(!i) in
    m.issue_examined <- m.issue_examined + 1;
    let c = ruu_index m (seq - m.head_seq) in
    let pool = class_pool.(Feed.klass m.r_word.(c)) in
    if fu.(pool) < m.fu_limit.(pool) then begin
      issue m c seq pool;
      if m.in_order then m.issue_seq <- m.issue_seq + 1;
      incr issued
    end
    else begin
      r.(!kept) <- seq;
      incr kept
    end;
    incr i
  done;
  (* shift the unexamined tail down: an int loop, not a C call *)
  if !kept < !i then
    for x = 0 to n - !i - 1 do
      r.(!kept + x) <- r.(!i + x)
    done;
  m.ready_len <- n - (!i - !kept)

(* Link consumer slot [c] (position [seq], not yet counted in the
   window) to its producers still in flight and not Done; a producer
   older than the head has committed. Answers how many it waits on. *)
let[@inline] link_producers m c seq w =
  let np = Feed.producers w in
  if np > edge_stride then
    invalid_arg "Pipeline: an instruction with more than 8 producers";
  let pending = ref 0 in
  for j = 0 to np - 1 do
    let e = (c lsl edge_stride_log2) + j in
    let k = feed_producer m seq j - m.head_seq in
    if k >= 0 && k < m.count then begin
      let p = ruu_index m k in
      if m.r_state.(p) <> st_done then begin
        m.e_prod.(e) <- p;
        m.e_next.(e) <- m.r_waiters.(p);
        m.r_waiters.(p) <- e;
        incr pending
      end
      else m.e_prod.(e) <- -1
    end
    else m.e_prod.(e) <- -1
  done;
  !pending

let[@inline] dispatch_stage m =
  let ifq_cap = Array.length m.ifq_word in
  let n = ref 0 in
  let blocked = ref false in
  m.disp_lsq_blocked <- false;
  while
    (not !blocked)
    && !n < m.cfg.decode_width
    && m.count < m.cap
    && m.ifq_len > 0
  do
    let w = m.ifq_word.(m.ifq_head) in
    let is_mem = class_in mem_classes (Feed.klass w) in
    if is_mem && m.lsq >= m.cfg.lsq_size then begin
      blocked := true;
      m.disp_lsq_blocked <- true
    end
    else begin
      let wrong = Bytes.unsafe_get m.ifq_wrong m.ifq_head in
      let seq = m.next_pos - m.ifq_len in
      m.ifq_head <- (if m.ifq_head + 1 = ifq_cap then 0 else m.ifq_head + 1);
      m.ifq_len <- m.ifq_len - 1;
      let c = ruu_index m m.count in
      let pending = link_producers m c seq w in
      m.r_seq.(c) <- seq;
      m.r_word.(c) <- w;
      m.r_pending.(c) <- pending;
      Bytes.unsafe_set m.r_wrong c wrong;
      m.r_waiters.(c) <- -1;
      m.count <- m.count + 1;
      if pending = 0 then begin
        m.r_state.(c) <- st_ready;
        m.ready.(m.ready_len) <- seq;
        m.ready_len <- m.ready_len + 1
      end
      else m.r_state.(c) <- st_wait;
      if is_mem then begin
        m.lsq <- m.lsq + 1;
        m.act.mem_ops <- m.act.mem_ops + 1
      end;
      feed_dispatch m seq ~wrong_path:(wrong <> '\000');
      m.act.dispatched <- m.act.dispatched + 1;
      incr n
    end
  done;
  m.disp_count <- !n

let[@inline] charge_fetch_stall m k =
  match m.fetch_stall_reason with
  | Fs_redirect -> m.stall_redirect <- m.stall_redirect + k
  | Fs_icache -> m.stall_icache <- m.stall_icache + k
  | Fs_squash -> m.stall_squash <- m.stall_squash + k
  | Fs_none -> m.stall_frontend <- m.stall_frontend + k

(* Charge a zero-dispatch cycle to exactly one cause. Checked in
   priority order: back-pressure from the window (RUU, then LSQ)
   before front-end starvation, whose sub-cause is whatever last
   stopped the fetch engine (end-of-stream drain is the catch-all).
   The six counters therefore partition [stall_cycles]. *)
let[@inline] account_dispatch_stall m =
  if m.disp_count = 0 then begin
    m.stall_cycles <- m.stall_cycles + 1;
    if m.count >= m.cap then m.stall_ruu <- m.stall_ruu + 1
    else if m.disp_lsq_blocked then m.stall_lsq <- m.stall_lsq + 1
    else if m.stream_done then m.stall_frontend <- m.stall_frontend + 1
    else charge_fetch_stall m 1
  end

let[@inline] fetch_stage m =
  if m.cycle >= m.fetch_stall_until && not m.stream_done then begin
    (* the stall is over and fetch resumes; the loop below re-sets the
       reason if this very burst runs into a new redirect or miss *)
    m.fetch_stall_reason <- Fs_none;
    let cap = Array.length m.ifq_word in
    let budget = ref (m.cfg.decode_width * m.cfg.fetch_speed) in
    let taken_budget = ref m.cfg.fetch_speed in
    let stop = ref false in
    while
      (not !stop) && !budget > 0 && m.ifq_len < cap && not m.stream_done
    do
      let seq = m.next_pos in
      let w = feed_fetch m seq in
      if w < 0 then m.stream_done <- true
      else begin
        let wrong = m.pending_mispredict >= 0 in
        let a = feed_ifetch m seq ~wrong_path:wrong in
        m.act.fetched <- m.act.fetched + 1;
        m.act.icache_accesses <- m.act.icache_accesses + 1;
        if Cache.Hierarchy.l1_miss a then
          m.act.l2_accesses <- m.act.l2_accesses + 1;
        let tail = m.ifq_head + m.ifq_len in
        let tail = if tail >= cap then tail - cap else tail in
        m.ifq_word.(tail) <- w;
        Bytes.unsafe_set m.ifq_wrong tail (if wrong then '\001' else '\000');
        m.ifq_len <- m.ifq_len + 1;
        m.next_pos <- seq + 1;
        decr budget;
        if Feed.is_branch w then begin
          m.act.bpred_lookups <- m.act.bpred_lookups + 1;
          if not wrong then begin
            if Feed.mispredicted w then m.pending_mispredict <- seq
            else if Feed.redirected w then begin
              m.fetch_stall_until <- m.cycle + m.cfg.fetch_redirect_penalty;
              m.fetch_stall_reason <- Fs_redirect;
              stop := true
            end
          end;
          if Feed.taken w then begin
            decr taken_budget;
            if !taken_budget <= 0 then stop := true
          end
        end;
        let lat = Cache.Hierarchy.latency a in
        if lat > m.cfg.icache.hit_latency then begin
          (* I-cache (or I-TLB) miss: the fetch engine stops fetching
             for the duration of the miss (Section 2.3) *)
          m.fetch_stall_until <- m.cycle + lat;
          m.fetch_stall_reason <- Fs_icache;
          stop := true
        end
      end
    done
  end

let metrics m =
  {
    Metrics.cycles = m.cycle;
    committed = m.act.committed;
    activity = m.act;
    branches = m.branches;
    mispredicts = m.mispredicts;
    redirects = m.redirects;
    taken = m.taken;
    loads = m.loads;
    stores = m.stores;
    stalls =
      {
        Metrics.ruu_full = m.stall_ruu;
        lsq_full = m.stall_lsq;
        fetch_redirect = m.stall_redirect;
        icache_miss = m.stall_icache;
        squash_drain = m.stall_squash;
        frontend_empty = m.stall_frontend;
      };
    dispatch_stall_cycles = m.stall_cycles;
  }

(* --- event-driven idle skipping ---

   A cycle where no stage can make progress is fully characterized by
   machine state: nothing to commit (head not Done), nothing to
   complete (earliest completion beyond now), nothing to issue (empty
   ready list), dispatch blocked (window full, empty IFQ, or an IFQ
   head waiting on the LSQ), and the fetch engine stalled or out of
   input. Such a cycle changes nothing but per-cycle accounting, and
   every condition above is frozen until one of three external
   events: the earliest in-flight completion, the fetch-stall expiry,
   or the watchdog trip point. [idle_until] returns that next event
   cycle when the machine is provably idle, and -1 otherwise. *)
let[@inline] lsq_blocks_dispatch m =
  m.ifq_len > 0
  && class_in mem_classes (Feed.klass m.ifq_word.(m.ifq_head))
  && m.lsq >= m.cfg.lsq_size

(* the first cycle in [t, stop) with a slot due, or [stop] *)
let rec next_due m t stop =
  if t >= stop || m.wheel.(t land m.wheel_mask) >= 0 then t
  else next_due m (t + 1) stop

(* The cheap tests go first. Only a machine stalled in every stage
   scans the wheel, up to the fetch wake, the watchdog trip or the
   first overflow slot, so it reads no more buckets than the cycles it
   then skips; and at most one lap, past which no bucket is due. *)
let[@inline] idle_until m =
  if
    (m.count > 0 && m.r_state.(m.head) = st_done)
    || m.ready_len > 0
    || m.wheel.(m.cycle land m.wheel_mask) >= 0
    || m.overflow_due = m.cycle
    || (m.count < m.cap && m.ifq_len > 0 && not (lsq_blocks_dispatch m))
  then -1
  else begin
    let fetch_wake =
      if m.stream_done || m.ifq_len >= Array.length m.ifq_word then max_int
      else m.fetch_stall_until
    in
    if fetch_wake <= m.cycle then -1
    else begin
      (* never jump past where the watchdog would have fired *)
      let trip = m.last_commit_cycle + m.watchdog + 1 in
      let wake = if trip < fetch_wake then trip else fetch_wake in
      let wake = if m.overflow_due < wake then m.overflow_due else wake in
      let lap = m.cycle + m.wheel_mask + 1 in
      let stop = if lap < wake then lap else wake in
      let due = next_due m (m.cycle + 1) stop in
      if due < stop then due else wake
    end
  end

(* Charge [k] skipped cycles exactly as the dense loop would have:
   occupancy sums and histograms at the frozen values, and the
   zero-dispatch stall attributed to the same single cause
   [account_dispatch_stall] would pick every one of those cycles. *)
let[@inline] advance_idle m k =
  m.act.cycles <- m.act.cycles + k;
  m.act.ruu_occupancy_sum <- m.act.ruu_occupancy_sum + (k * m.count);
  m.act.lsq_occupancy_sum <- m.act.lsq_occupancy_sum + (k * m.lsq);
  m.act.ifq_occupancy_sum <- m.act.ifq_occupancy_sum + (k * m.ifq_len);
  if m.observe then begin
    Telemetry.observe_many h_ruu_occ m.count k;
    Telemetry.observe_many h_lsq_occ m.lsq k;
    Telemetry.observe_many h_ifq_occ m.ifq_len k
  end;
  m.stall_cycles <- m.stall_cycles + k;
  if m.count >= m.cap then m.stall_ruu <- m.stall_ruu + k
  else if lsq_blocks_dispatch m then m.stall_lsq <- m.stall_lsq + k
  else if m.stream_done then m.stall_frontend <- m.stall_frontend + k
  else charge_fetch_stall m k;
  m.cycles_skipped <- m.cycles_skipped + k;
  m.cycle <- m.cycle + k

let[@inline] check_watchdog m =
  if m.cycle - m.last_commit_cycle > m.watchdog then
    failwith
      (Printf.sprintf
         "Pipeline: no commit for %d cycles (cycle=%d committed=%d \
          ruu=%d ifq=%d pos=%d) — model bug"
         m.watchdog m.cycle m.act.committed m.count m.ifq_len m.next_pos)

(* the budget is committed, or the stream is drained and the machine
   empty *)
let[@inline] finished m max_instructions =
  m.act.committed >= max_instructions
  || (m.stream_done && m.count = 0 && m.ifq_len = 0)

let run ?(max_instructions = max_int) ?(skip_idle = true) ?commit_hook cfg
    feed =
  let m = create cfg feed in
  while not (finished m max_instructions) do
    let left = max_instructions - m.act.committed in
    commit_stage m ~hook:commit_hook
      ~budget:(if cfg.commit_width < left then cfg.commit_width else left);
    writeback_stage m;
    issue_stage m;
    dispatch_stage m;
    account_dispatch_stall m;
    fetch_stage m;
    m.act.cycles <- m.act.cycles + 1;
    m.act.ruu_occupancy_sum <- m.act.ruu_occupancy_sum + m.count;
    m.act.lsq_occupancy_sum <- m.act.lsq_occupancy_sum + m.lsq;
    m.act.ifq_occupancy_sum <- m.act.ifq_occupancy_sum + m.ifq_len;
    if m.observe then begin
      Telemetry.observe h_ruu_occ m.count;
      Telemetry.observe h_lsq_occ m.lsq;
      Telemetry.observe h_ifq_occ m.ifq_len
    end;
    m.cycle <- m.cycle + 1;
    check_watchdog m;
    if skip_idle && not (finished m max_instructions) then begin
      let target = idle_until m in
      if target >= 0 then begin
        advance_idle m (target - m.cycle);
        check_watchdog m
      end
    end
  done;
  Telemetry.add c_wakeups m.wakeups;
  Telemetry.add c_issue_examined m.issue_examined;
  Telemetry.add c_cycles_skipped m.cycles_skipped;
  Telemetry.add c_squashed m.squashed;
  metrics m
