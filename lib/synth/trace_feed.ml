type charges = {
  cfg : Config.Machine.t;
  wrong_path_locality : bool;
  ifetch : Bytes.t;
  load : Bytes.t;
}

let charges ?(wrong_path_locality = false) cfg n =
  {
    cfg;
    wrong_path_locality;
    ifetch = Bytes.make n '\000';
    load = Bytes.make n '\000';
  }

let clear c slot =
  Bytes.set c.ifetch slot '\000';
  Bytes.set c.load slot '\000'

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

let flagged c ~instruction ~l1 ~l2 ~tlb =
  let o = { Cache.Hierarchy.l1_miss = l1; l2_miss = l2; tlb_miss = tlb } in
  (o, Cache.Hierarchy.latency_of_outcome c.cfg ~instruction o)

let charge c bits ~slot ~wrong_path ~instruction ~l1 ~l2 ~tlb =
  if wrong_path && c.wrong_path_locality then
    (* misspeculated-path modeling: the wrong-path access pays the
       position's flags without consuming the correct-path charge *)
    flagged c ~instruction ~l1 ~l2 ~tlb
  else if wrong_path || Bytes.get bits slot <> '\000' then
    ( Cache.Hierarchy.hit,
      if instruction then c.cfg.icache.hit_latency
      else c.cfg.dcache.hit_latency )
  else begin
    Bytes.set bits slot '\001';
    flagged c ~instruction ~l1 ~l2 ~tlb
  end

let ifetch_access c (s : Trace.inst) ~slot ~wrong_path =
  charge c c.ifetch ~slot ~wrong_path ~instruction:true ~l1:s.l1i_miss
    ~l2:s.l2i_miss ~tlb:s.itlb_miss

let load_access c (s : Trace.inst) ~slot ~wrong_path =
  charge c c.load ~slot ~wrong_path ~instruction:false ~l1:s.l1d_miss
    ~l2:s.l2d_miss ~tlb:s.dtlb_miss
