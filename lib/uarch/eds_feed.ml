type produced = { fetched : Feed.fetched; dyn : Isa.Dyn_inst.t }

type t = {
  cfg : Config.Machine.t;
  perfect_caches : bool;
  perfect_bpred : bool;
  hier : Cache.Hierarchy.t;
  pred : Branch.Predictor.t;
  ring : produced Feed.Ring.t;
  last_writer : int array;
  last_reader : int array;
  mutable pos : int;
  mutable last_update_seq : int;
}

let create ?(perfect_caches = false) ?(perfect_bpred = false) cfg gen =
  let hier = Cache.Hierarchy.create cfg in
  let pred = Branch.Predictor.create cfg.Config.Machine.bpred in
  let t_ref = ref None in
  let produce _slot =
    let t = Option.get !t_ref in
    match gen () with
    | None -> None
    | Some (d : Isa.Dyn_inst.t) ->
      let seq = t.pos in
      t.pos <- t.pos + 1;
      let raw =
        Array.map
          (fun r ->
            if r < 0 || r = Isa.Reg.zero then -1 else t.last_writer.(r))
          d.srcs
      in
      let producers =
        (* without register renaming, a write must also wait for the
           previous writer (WAW) and the last reader (WAR) of its
           destination — Section 2.1.1's sketched extension *)
        if t.cfg.Config.Machine.in_order && d.dest >= 0 then
          Array.append raw [| t.last_writer.(d.dest); t.last_reader.(d.dest) |]
        else raw
      in
      let branch =
        match d.branch with
        | None -> None
        | Some b ->
          let resolution =
            if t.perfect_bpred then Branch.Predictor.Correct
            else Branch.Predictor.lookup t.pred ~pc:d.pc ~branch:b
          in
          Some { Feed.taken = b.taken; resolution }
      in
      Array.iter
        (fun r -> if r >= 0 && r <> Isa.Reg.zero then t.last_reader.(r) <- seq)
        d.srcs;
      if d.dest >= 0 then t.last_writer.(d.dest) <- seq;
      Some
        {
          fetched =
            {
              Feed.seq;
              pc = d.pc;
              klass = d.klass;
              mem_addr = d.mem_addr;
              producers;
              branch;
            };
          dyn = d;
        }
  in
  let t =
    {
      cfg;
      perfect_caches;
      perfect_bpred;
      hier;
      pred;
      ring = Feed.Ring.create ~window:(Feed.rewind_window cfg) produce;
      last_writer = Array.make Isa.Reg.count (-1);
      last_reader = Array.make Isa.Reg.count (-1);
      pos = 0;
      last_update_seq = -1;
    }
  in
  t_ref := Some t;
  t

let fetch t i =
  if Feed.Ring.mem t.ring i then Some (Feed.Ring.get t.ring i).fetched
  else None

let perfect_ifetch cfg =
  (Cache.Hierarchy.hit, cfg.Config.Machine.icache.hit_latency)

let perfect_dload cfg =
  (Cache.Hierarchy.hit, cfg.Config.Machine.dcache.hit_latency)

let ifetch_access t (f : Feed.fetched) ~wrong_path:_ =
  if t.perfect_caches then perfect_ifetch t.cfg
  else Cache.Hierarchy.ifetch t.hier f.pc

let load_access t (f : Feed.fetched) ~wrong_path:_ =
  if t.perfect_caches then perfect_dload t.cfg
  else Cache.Hierarchy.dload t.hier f.mem_addr

let on_commit_store t (f : Feed.fetched) =
  if t.perfect_caches then Cache.Hierarchy.hit
  else fst (Cache.Hierarchy.dstore t.hier f.mem_addr)

let on_dispatch t (f : Feed.fetched) ~wrong_path =
  if (not wrong_path) && not t.perfect_bpred then begin
    match f.branch with
    | Some _ when f.seq > t.last_update_seq -> (
      t.last_update_seq <- f.seq;
      match (Feed.Ring.get t.ring f.seq).dyn with
      | { branch = Some b; pc; _ } ->
        Branch.Predictor.update t.pred ~pc ~branch:b
      | { branch = None; _ } -> ())
    | Some _ | None -> ()
  end
