type istate = Wait | Ready | Exec | Done

type slot = {
  f : Feed.fetched;
  seq : int;  (* [f.seq], one indirection closer *)
  pool : int;
  mutable st : istate;
  mutable complete_at : int;
  wrong_path : bool;
  mutable pending : int;  (* producers not yet Done *)
  mutable waiters : slot list;
  uses_lsq : bool;
  mutable valid : bool;  (* false once squashed; never set again *)
}

(* functional-unit pools, cf. Config.Machine.fu_pool *)
let pool_of (c : Isa.Iclass.t) =
  match c with
  | Int_alu | Int_branch | Indirect_branch -> 0
  | Int_mult | Int_div -> 1
  | Load | Store -> 2
  | Fp_alu | Fp_branch -> 3
  | Fp_mult | Fp_div | Fp_sqrt -> 4

(* Filler for the preallocated rings; never read as a live entry. *)
let no_fetch =
  {
    Feed.seq = -1;
    pc = 0;
    klass = Isa.Iclass.Int_alu;
    mem_addr = -1;
    producers = [||];
    branch = None;
  }

let sentinel =
  {
    f = no_fetch;
    seq = -1;
    pool = 0;
    st = Done;
    complete_at = max_int;
    wrong_path = false;
    pending = 0;
    waiters = [];
    uses_lsq = false;
    valid = false;
  }

(* The watchdog fires when nothing commits for this many cycles. A legal
   machine stays far below it: by the time the oldest instruction is
   fetched its producers have committed, so a commit gap is a fetch miss
   or two, one load miss, the longest operation and the front-end
   penalties. The bound is four times their sum, and at least 200,000
   cycles. *)
let watchdog_floor = 200_000

let watchdog_cycles (cfg : Config.Machine.t) =
  let worst ~instruction =
    Cache.Hierarchy.latency_of_outcome cfg ~instruction
      { Cache.Hierarchy.l1_miss = true; l2_miss = true; tlb_miss = true }
  in
  let longest_op =
    Array.fold_left
      (fun acc c -> max acc (Config.Machine.op_latency c))
      0 Isa.Iclass.all
  in
  max watchdog_floor
    (4
    * (worst ~instruction:true + worst ~instruction:false + longest_op
      + cfg.mispredict_restart + cfg.fetch_redirect_penalty))

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

module Make (F : Feed.S) = struct
  type machine = {
    cfg : Config.Machine.t;
    feed : F.t;
    act : Power.Activity.t;
    in_order : bool;
    watchdog : int;
    (* RUU: a ring of [ruu_size] slots. Dispatch is in order and a
       squash removes a suffix, so the in-flight seqs are always the
       contiguous range [head_seq, head_seq + count) and seq [p] sits
       at ring offset [p - head_seq] from [head]. *)
    ruu : slot array;
    mutable head : int;
    mutable head_seq : int;
    mutable count : int;
    mutable lsq : int;
    (* IFQ: a ring of [ifq_size] fetched records and wrong-path flags *)
    ifq : Feed.fetched array;
    ifq_wrong : bool array;
    mutable ifq_head : int;
    mutable ifq_len : int;
    (* issued slots: a binary min-heap of (complete_at, seq) pairs in
       two int arrays. An entry is live while the slot at its seq is in
       flight, executing and due at its key; a squashed slot's entry
       fails that test and is dropped when it surfaces. *)
    mutable heap_at : int array;
    mutable heap_seq : int array;
    mutable heap_len : int;
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
    {
      cfg;
      feed;
      act = Power.Activity.create ();
      in_order = cfg.Config.Machine.in_order;
      watchdog = watchdog_cycles cfg;
      ruu = Array.make cfg.ruu_size sentinel;
      head = 0;
      head_seq = 0;
      count = 0;
      lsq = 0;
      ifq = Array.make cfg.ifq_size no_fetch;
      ifq_wrong = Array.make cfg.ifq_size false;
      ifq_head = 0;
      ifq_len = 0;
      heap_at = Array.make (cfg.ruu_size + 1) 0;
      heap_seq = Array.make (cfg.ruu_size + 1) 0;
      heap_len = 0;
      ready = Array.make cfg.ruu_size 0;
      ready_len = 0;
      issue_seq = 0;
      next_pos = 0;
      fetch_stall_until = 0;
      pending_mispredict = -1;
      cycle = 0;
      stream_done = false;
      last_commit_cycle = 0;
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
  let ruu_index m k =
    let i = m.head + k in
    let cap = Array.length m.ruu in
    if i >= cap then i - cap else i

  let slot_of m seq = m.ruu.(ruu_index m (seq - m.head_seq))

  (* --- completion heap --- *)

  let heap_push m ~at ~seq =
    if m.heap_len = Array.length m.heap_at then begin
      let grow a =
        let bigger = Array.make (2 * m.heap_len) 0 in
        Array.blit a 0 bigger 0 m.heap_len;
        bigger
      in
      m.heap_at <- grow m.heap_at;
      m.heap_seq <- grow m.heap_seq
    end;
    let ha = m.heap_at and hs = m.heap_seq in
    let i = ref m.heap_len in
    m.heap_len <- m.heap_len + 1;
    while !i > 0 && ha.((!i - 1) / 2) > at do
      let p = (!i - 1) / 2 in
      ha.(!i) <- ha.(p);
      hs.(!i) <- hs.(p);
      i := p
    done;
    ha.(!i) <- at;
    hs.(!i) <- seq

  let heap_pop m =
    let ha = m.heap_at and hs = m.heap_seq in
    let n = m.heap_len - 1 in
    m.heap_len <- n;
    if n > 0 then begin
      let at = ha.(n) and seq = hs.(n) in
      let i = ref 0 in
      let sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= n then sifting := false
        else begin
          let c = if l + 1 < n && ha.(l + 1) < ha.(l) then l + 1 else l in
          if ha.(c) < at then begin
            ha.(!i) <- ha.(c);
            hs.(!i) <- hs.(c);
            i := c
          end
          else sifting := false
        end
      done;
      ha.(!i) <- at;
      hs.(!i) <- seq
    end

  (* The slot a heap entry completes, or [sentinel] for a dead entry. *)
  let due_slot m ~at ~seq =
    let k = seq - m.head_seq in
    if k >= 0 && k < m.count then begin
      let s = m.ruu.(ruu_index m k) in
      if s.st = Exec && s.complete_at = at then s else sentinel
    end
    else sentinel

  (* Earliest pending completion, after dropping dead entries from the
     top; [max_int] when nothing is executing. *)
  let next_completion m =
    while
      m.heap_len > 0
      && due_slot m ~at:m.heap_at.(0) ~seq:m.heap_seq.(0) == sentinel
    do
      heap_pop m
    done;
    if m.heap_len > 0 then m.heap_at.(0) else max_int

  (* --- ready list --- *)

  (* Dispatch appends (the new slot is the youngest in flight); a wakeup
     inserts by seq. *)
  let ready_insert m seq =
    let r = m.ready in
    let i = ref m.ready_len in
    while !i > 0 && r.(!i - 1) > seq do
      r.(!i) <- r.(!i - 1);
      decr i
    done;
    r.(!i) <- seq;
    m.ready_len <- m.ready_len + 1

  (* Squash everything younger than [seq] — the tail of the window — and
     restart the front end just after it. *)
  let squash m ~seq =
    let keep = seq + 1 - m.head_seq in
    while m.count > keep do
      let s = m.ruu.(ruu_index m (m.count - 1)) in
      s.valid <- false;
      if s.uses_lsq then m.lsq <- m.lsq - 1;
      m.count <- m.count - 1;
      m.squashed <- m.squashed + 1
    done;
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

  let commit_stage m ~budget ~hook =
    let n = ref 0 in
    while !n < budget && m.count > 0 && m.ruu.(m.head).st = Done do
      let s = m.ruu.(m.head) in
      if Isa.Iclass.is_store s.f.klass then begin
        let o = F.on_commit_store m.feed s.f in
        m.act.dcache_accesses <- m.act.dcache_accesses + 1;
        if o.Cache.Hierarchy.l1_miss then
          m.act.l2_accesses <- m.act.l2_accesses + 1
      end;
      m.head <- ruu_index m 1;
      m.head_seq <- m.head_seq + 1;
      m.count <- m.count - 1;
      if s.uses_lsq then m.lsq <- m.lsq - 1;
      m.act.committed <- m.act.committed + 1;
      (match s.f.branch with
      | None -> ()
      | Some b ->
        m.branches <- m.branches + 1;
        if b.taken then m.taken <- m.taken + 1;
        (match b.resolution with
        | Branch.Predictor.Mispredict -> m.mispredicts <- m.mispredicts + 1
        | Branch.Predictor.Fetch_redirect -> m.redirects <- m.redirects + 1
        | Branch.Predictor.Correct -> ()));
      if Isa.Iclass.is_load s.f.klass then m.loads <- m.loads + 1;
      if Isa.Iclass.is_store s.f.klass then m.stores <- m.stores + 1;
      m.last_commit_cycle <- m.cycle;
      (match hook with
      | Some f -> f ~committed:m.act.committed ~cycle:m.cycle
      | None -> ());
      incr n
    done

  let rec wake m = function
    | [] -> ()
    | w :: rest ->
      if w.valid then begin
        m.wakeups <- m.wakeups + 1;
        w.pending <- w.pending - 1;
        if w.pending = 0 && w.st = Wait then begin
          w.st <- Ready;
          ready_insert m w.seq
        end
      end;
      wake m rest

  (* Complete every issued slot whose latency has elapsed. Completion
     order within a cycle is immaterial: wakeups only move slots into
     the seq-sorted ready list, and the squash waits for the loop. *)
  let writeback_stage m =
    let to_squash = ref (-1) in
    while m.heap_len > 0 && m.heap_at.(0) <= m.cycle do
      let s = due_slot m ~at:m.heap_at.(0) ~seq:m.heap_seq.(0) in
      heap_pop m;
      if s != sentinel then begin
        s.st <- Done;
        m.act.completed <- m.act.completed + 1;
        wake m s.waiters;
        s.waiters <- [];
        if s.seq = m.pending_mispredict then to_squash := s.seq
      end
    done;
    if !to_squash >= 0 then squash m ~seq:!to_squash

  let issue m s =
    let latency =
      let base = Config.Machine.op_latency s.f.klass in
      if Isa.Iclass.is_load s.f.klass then begin
        let o, lat = F.load_access m.feed s.f ~wrong_path:s.wrong_path in
        m.act.dcache_accesses <- m.act.dcache_accesses + 1;
        if o.Cache.Hierarchy.l1_miss then
          m.act.l2_accesses <- m.act.l2_accesses + 1;
        base + lat
      end
      else base
    in
    s.st <- Exec;
    s.complete_at <- m.cycle + latency;
    heap_push m ~at:s.complete_at ~seq:s.seq;
    m.fu_used.(s.pool) <- m.fu_used.(s.pool) + 1;
    m.act.issued <- m.act.issued + 1;
    match s.f.klass with
    | Int_alu | Int_branch | Indirect_branch ->
      m.act.int_alu_ops <- m.act.int_alu_ops + 1
    | Int_mult | Int_div -> m.act.int_mult_ops <- m.act.int_mult_ops + 1
    | Fp_alu | Fp_branch | Fp_mult | Fp_div | Fp_sqrt ->
      m.act.fp_ops <- m.act.fp_ops + 1
    | Load | Store -> ()

  (* Walk the ready list oldest first, issuing into free functional
     units, and compact it in place; a slot whose pool is full stays for
     the next cycle. In order, only the oldest unissued slot
     ([issue_seq]) may go, so the walk ends at the first gap in the seq
     run: a slot still waiting on operands, or one just kept because its
     pool was full. *)
  let issue_stage m =
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
      let s = slot_of m seq in
      if fu.(s.pool) < m.fu_limit.(s.pool) then begin
        issue m s;
        if m.in_order then m.issue_seq <- m.issue_seq + 1;
        incr issued
      end
      else begin
        r.(!kept) <- seq;
        incr kept
      end;
      incr i
    done;
    if !kept < !i then Array.blit r !i r !kept (n - !i);
    m.ready_len <- n - (!i - !kept)

  let dispatch_stage m =
    let cap = Array.length m.ruu in
    let ifq_cap = Array.length m.ifq in
    let n = ref 0 in
    let blocked = ref false in
    m.disp_lsq_blocked <- false;
    while
      (not !blocked)
      && !n < m.cfg.decode_width
      && m.count < cap
      && m.ifq_len > 0
    do
      let f = m.ifq.(m.ifq_head) in
      let is_mem = Isa.Iclass.is_mem f.Feed.klass in
      if is_mem && m.lsq >= m.cfg.lsq_size then begin
        blocked := true;
        m.disp_lsq_blocked <- true
      end
      else begin
        let wrong = m.ifq_wrong.(m.ifq_head) in
        m.ifq_head <- (if m.ifq_head + 1 = ifq_cap then 0 else m.ifq_head + 1);
        m.ifq_len <- m.ifq_len - 1;
        let s =
          {
            f;
            seq = f.seq;
            pool = pool_of f.klass;
            st = Wait;
            complete_at = max_int;
            wrong_path = wrong;
            pending = 0;
            waiters = [];
            uses_lsq = is_mem;
            valid = true;
          }
        in
        (* a producer still in the window is at a known ring offset;
           one older than the head has committed *)
        let producers = f.producers in
        for j = 0 to Array.length producers - 1 do
          let k = producers.(j) - m.head_seq in
          if k >= 0 && k < m.count then begin
            let prod = m.ruu.(ruu_index m k) in
            if prod.st <> Done then begin
              prod.waiters <- s :: prod.waiters;
              s.pending <- s.pending + 1
            end
          end
        done;
        m.ruu.(ruu_index m m.count) <- s;
        m.count <- m.count + 1;
        if s.pending = 0 then begin
          s.st <- Ready;
          m.ready.(m.ready_len) <- s.seq;
          m.ready_len <- m.ready_len + 1
        end;
        if is_mem then begin
          m.lsq <- m.lsq + 1;
          m.act.mem_ops <- m.act.mem_ops + 1
        end;
        F.on_dispatch m.feed f ~wrong_path:wrong;
        m.act.dispatched <- m.act.dispatched + 1;
        incr n
      end
    done;
    m.disp_count <- !n

  let charge_fetch_stall m k =
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
  let account_dispatch_stall m =
    if m.disp_count = 0 then begin
      m.stall_cycles <- m.stall_cycles + 1;
      if m.count >= Array.length m.ruu then m.stall_ruu <- m.stall_ruu + 1
      else if m.disp_lsq_blocked then m.stall_lsq <- m.stall_lsq + 1
      else if m.stream_done then m.stall_frontend <- m.stall_frontend + 1
      else charge_fetch_stall m 1
    end

  let fetch_stage m =
    if m.cycle >= m.fetch_stall_until && not m.stream_done then begin
      (* the stall is over and fetch resumes; the loop below re-sets the
         reason if this very burst runs into a new redirect or miss *)
      m.fetch_stall_reason <- Fs_none;
      let cap = Array.length m.ifq in
      let budget = ref (m.cfg.decode_width * m.cfg.fetch_speed) in
      let taken_budget = ref m.cfg.fetch_speed in
      let stop = ref false in
      while
        (not !stop) && !budget > 0 && m.ifq_len < cap && not m.stream_done
      do
        match F.fetch m.feed m.next_pos with
        | None -> m.stream_done <- true
        | Some f ->
          let wrong = m.pending_mispredict >= 0 in
          let o, lat = F.ifetch_access m.feed f ~wrong_path:wrong in
          m.act.fetched <- m.act.fetched + 1;
          m.act.icache_accesses <- m.act.icache_accesses + 1;
          if o.Cache.Hierarchy.l1_miss then
            m.act.l2_accesses <- m.act.l2_accesses + 1;
          let tail = m.ifq_head + m.ifq_len in
          let tail = if tail >= cap then tail - cap else tail in
          m.ifq.(tail) <- f;
          m.ifq_wrong.(tail) <- wrong;
          m.ifq_len <- m.ifq_len + 1;
          m.next_pos <- m.next_pos + 1;
          decr budget;
          (match f.branch with
          | None -> ()
          | Some b ->
            m.act.bpred_lookups <- m.act.bpred_lookups + 1;
            if not wrong then begin
              match b.resolution with
              | Branch.Predictor.Mispredict -> m.pending_mispredict <- f.seq
              | Branch.Predictor.Fetch_redirect ->
                m.fetch_stall_until <- m.cycle + m.cfg.fetch_redirect_penalty;
                m.fetch_stall_reason <- Fs_redirect;
                stop := true
              | Branch.Predictor.Correct -> ()
            end;
            if b.taken then begin
              decr taken_budget;
              if !taken_budget <= 0 then stop := true
            end);
          if lat > m.cfg.icache.hit_latency then begin
            (* I-cache (or I-TLB) miss: the fetch engine stops fetching
               for the duration of the miss (Section 2.3) *)
            m.fetch_stall_until <- m.cycle + lat;
            m.fetch_stall_reason <- Fs_icache;
            stop := true
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
     events: the earliest in-flight completion (the heap top), the
     fetch-stall expiry, or the watchdog trip point. [idle_until]
     returns that next event cycle when the machine is provably idle. *)
  let lsq_blocks_dispatch m =
    m.ifq_len > 0
    && Isa.Iclass.is_mem m.ifq.(m.ifq_head).Feed.klass
    && m.lsq >= m.cfg.lsq_size

  let idle_until m =
    let next = next_completion m in
    if
      (m.count > 0 && m.ruu.(m.head).st = Done)
      || m.ready_len > 0 || next <= m.cycle
    then None
    else if
      m.count < Array.length m.ruu && m.ifq_len > 0 && not (lsq_blocks_dispatch m)
    then None
    else begin
      let fetch_wake =
        if m.stream_done || m.ifq_len >= Array.length m.ifq then max_int
        else m.fetch_stall_until
      in
      if fetch_wake <= m.cycle then None
      else
        (* never jump past where the watchdog would have fired *)
        let trip = m.last_commit_cycle + m.watchdog + 1 in
        let wake = if fetch_wake < next then fetch_wake else next in
        Some (if trip < wake then trip else wake)
    end

  (* Charge [k] skipped cycles exactly as the dense loop would have:
     occupancy sums and histograms at the frozen values, and the
     zero-dispatch stall attributed to the same single cause
     [account_dispatch_stall] would pick every one of those cycles. *)
  let advance_idle m k =
    m.act.cycles <- m.act.cycles + k;
    m.act.ruu_occupancy_sum <- m.act.ruu_occupancy_sum + (k * m.count);
    m.act.lsq_occupancy_sum <- m.act.lsq_occupancy_sum + (k * m.lsq);
    m.act.ifq_occupancy_sum <- m.act.ifq_occupancy_sum + (k * m.ifq_len);
    Telemetry.observe_many h_ruu_occ m.count k;
    Telemetry.observe_many h_lsq_occ m.lsq k;
    Telemetry.observe_many h_ifq_occ m.ifq_len k;
    m.stall_cycles <- m.stall_cycles + k;
    if m.count >= Array.length m.ruu then m.stall_ruu <- m.stall_ruu + k
    else if lsq_blocks_dispatch m then m.stall_lsq <- m.stall_lsq + k
    else if m.stream_done then m.stall_frontend <- m.stall_frontend + k
    else charge_fetch_stall m k;
    m.cycles_skipped <- m.cycles_skipped + k;
    m.cycle <- m.cycle + k

  let check_watchdog m =
    if m.cycle - m.last_commit_cycle > m.watchdog then
      failwith
        (Printf.sprintf
           "Pipeline: no commit for %d cycles (cycle=%d committed=%d \
            ruu=%d ifq=%d pos=%d) — model bug"
           m.watchdog m.cycle m.act.committed m.count m.ifq_len m.next_pos)

  let run ?(max_instructions = max_int) ?(skip_idle = true) ?commit_hook cfg
      feed =
    let m = create cfg feed in
    let finished () =
      m.act.committed >= max_instructions
      || (m.stream_done && m.count = 0 && m.ifq_len = 0)
    in
    while not (finished ()) do
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
      Telemetry.observe h_ruu_occ m.count;
      Telemetry.observe h_lsq_occ m.lsq;
      Telemetry.observe h_ifq_occ m.ifq_len;
      m.cycle <- m.cycle + 1;
      check_watchdog m;
      if skip_idle && not (finished ()) then begin
        match idle_until m with
        | Some target ->
          advance_idle m (target - m.cycle);
          check_watchdog m
        | None -> ()
      end
    done;
    Telemetry.add c_wakeups m.wakeups;
    Telemetry.add c_issue_examined m.issue_examined;
    Telemetry.add c_cycles_skipped m.cycles_skipped;
    Telemetry.add c_squashed m.squashed;
    metrics m
end
