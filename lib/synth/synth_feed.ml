module Ring = Uarch.Feed.Ring

type t = {
  cfg : Config.Machine.t;
  wrong_path_locality : bool;
  ring : Trace.inst Ring.t;
  (* per ring slot, whether the position in it has paid its
     pre-assigned miss flags, for fetches and for loads *)
  ifetch_paid : Bytes.t;
  load_paid : Bytes.t;
}

let make ?(wrong_path_locality = false) cfg ~ifetch_paid ~load_paid ring =
  { cfg; wrong_path_locality; ring; ifetch_paid; load_paid }

let unpaid n = Bytes.make n '\000'

let of_trace ?wrong_path_locality cfg (trace : Trace.t) =
  let n = Array.length trace.insts in
  make ?wrong_path_locality cfg ~ifetch_paid:(unpaid n) ~load_paid:(unpaid n)
    (Ring.of_array trace.insts)

let of_stream ?wrong_path_locality cfg s =
  let window = Uarch.Feed.rewind_window cfg in
  let ifetch_paid = unpaid window and load_paid = unpaid window in
  let produce slot =
    match Generate.next s with
    | None -> None
    | Some _ as inst ->
      (* past the first lap the new position takes over the slot of one
         that slid out of the window, and pays its own misses *)
      Bytes.set ifetch_paid slot '\000';
      Bytes.set load_paid slot '\000';
      inst
  in
  make ?wrong_path_locality cfg ~ifetch_paid ~load_paid
    (Ring.create ~window produce)

let producer i d = if d > 0 then i - d else -1

let fetched i (s : Trace.inst) =
  let producers =
    (* the common operand counts skip [Array.map]'s closure and C call *)
    match s.deps with
    | [||] -> [||]
    | [| a |] -> [| producer i a |]
    | [| a; b |] -> [| producer i a; producer i b |]
    | deps -> Array.map (producer i) deps
  in
  let branch =
    match s.branch with
    | None -> None
    | Some b ->
      let resolution =
        if b.mispredict then Branch.Predictor.Mispredict
        else if b.redirect then Branch.Predictor.Fetch_redirect
        else Branch.Predictor.Correct
      in
      Some { Uarch.Feed.taken = b.taken; resolution }
  in
  {
    Uarch.Feed.seq = i;
    pc = i * 4;
    klass = s.klass;
    mem_addr = -1;
    producers;
    branch;
  }

let fetch t i =
  if Ring.mem t.ring i then Some (fetched i (Ring.get t.ring i)) else None

let flagged t ~instruction ~l1 ~l2 ~tlb =
  let o = { Cache.Hierarchy.l1_miss = l1; l2_miss = l2; tlb_miss = tlb } in
  (o, Cache.Hierarchy.latency_of_outcome t.cfg ~instruction o)

(* A correct-path access pays the position's flags the first time and
   hits afterwards (a re-fetch after a squash). A wrong-path access
   hits, or with [wrong_path_locality] pays the flags without using up
   the correct-path charge. *)
let[@inline] charge t paid ~seq ~wrong_path ~instruction ~l1 ~l2 ~tlb =
  if wrong_path && t.wrong_path_locality then
    flagged t ~instruction ~l1 ~l2 ~tlb
  else begin
    let slot = Ring.slot t.ring seq in
    if wrong_path || Bytes.get paid slot <> '\000' then
      ( Cache.Hierarchy.hit,
        if instruction then t.cfg.icache.hit_latency
        else t.cfg.dcache.hit_latency )
    else begin
      Bytes.set paid slot '\001';
      flagged t ~instruction ~l1 ~l2 ~tlb
    end
  end

let ifetch_access t (f : Uarch.Feed.fetched) ~wrong_path =
  let s = Ring.get t.ring f.seq in
  charge t t.ifetch_paid ~seq:f.seq ~wrong_path ~instruction:true
    ~l1:s.l1i_miss ~l2:s.l2i_miss ~tlb:s.itlb_miss

let load_access t (f : Uarch.Feed.fetched) ~wrong_path =
  let s = Ring.get t.ring f.seq in
  charge t t.load_paid ~seq:f.seq ~wrong_path ~instruction:false
    ~l1:s.l1d_miss ~l2:s.l2d_miss ~tlb:s.dtlb_miss

let on_commit_store _ _ = Cache.Hierarchy.hit
let on_dispatch _ _ ~wrong_path:_ = ()
