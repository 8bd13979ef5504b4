(* most producers an instruction can name: three source registers, plus
   the waw and war producers of an in-order machine *)
let max_srcs = 3
let stride = max_srcs + 2

type t = {
  cfg : Config.Machine.t;
  perfect_caches : bool;
  perfect_bpred : bool;
  hier : Cache.Hierarchy.t;
  pred : Branch.Predictor.t;
  gen : unit -> Isa.Dyn_inst.t option;
  mutable ring : Feed.Ring.t;
  (* per ring slot: the position's feed word, instruction, and producers
     at [stride * slot + j] *)
  mutable words : int array;
  mutable insts : Isa.Dyn_inst.t array;
  mutable prods : int array;
  last_writer : int array;
  last_reader : int array;
  mutable pos : int;
  mutable last_update_seq : int;
  ifetch_hit : int;
  load_hit : int;
}

let[@inline] source t r =
  if r < 0 || r = Isa.Reg.zero then -1 else t.last_writer.(r)

(* Write the next instruction of the stream into ring slot [slot]. The
   branch prediction is made here, once per position, so a re-fetch
   after a squash replays it. *)
let produce t slot =
  match t.gen () with
  | None -> false
  | Some (d : Isa.Dyn_inst.t) ->
    let seq = t.pos in
    t.pos <- t.pos + 1;
    let nsrcs = Array.length d.srcs in
    if nsrcs > max_srcs then
      invalid_arg "Eds_feed: more than three source registers";
    let base = stride * slot in
    for j = 0 to nsrcs - 1 do
      t.prods.(base + j) <- source t d.srcs.(j)
    done;
    let nprod =
      (* without register renaming, a write must also wait for the
         previous writer (WAW) and the last reader (WAR) of its
         destination — Section 2.1.1's sketched extension *)
      if t.cfg.Config.Machine.in_order && d.dest >= 0 then begin
        t.prods.(base + nsrcs) <- t.last_writer.(d.dest);
        t.prods.(base + nsrcs + 1) <- t.last_reader.(d.dest);
        nsrcs + 2
      end
      else nsrcs
    in
    let branch =
      match d.branch with
      | None -> 0
      | Some b ->
        let r : Branch.Predictor.resolution =
          if t.perfect_bpred then Correct
          else Branch.Predictor.lookup t.pred ~pc:d.pc ~branch:b
        in
        Feed.branch_bits ~taken:b.taken ~mispredict:(r = Mispredict)
          ~redirect:(r = Fetch_redirect)
    in
    for j = 0 to nsrcs - 1 do
      let r = d.srcs.(j) in
      if r >= 0 && r <> Isa.Reg.zero then t.last_reader.(r) <- seq
    done;
    if d.dest >= 0 then t.last_writer.(d.dest) <- seq;
    t.words.(slot) <-
      Feed.word ~klass:(Isa.Iclass.index d.klass) ~branch ~producers:nprod;
    if Array.length t.insts = 0 then
      (* the first pull: an instruction to fill the slots with *)
      t.insts <- Array.make (Feed.Ring.window t.ring) d
    else t.insts.(slot) <- d;
    true

let create ?(perfect_caches = false) ?(perfect_bpred = false) cfg gen =
  let t =
    {
      cfg;
      perfect_caches;
      perfect_bpred;
      hier = Cache.Hierarchy.create cfg;
      pred = Branch.Predictor.create cfg.Config.Machine.bpred;
      gen;
      ring = Feed.Ring.create ~window:1 (fun _ -> false);
      words = [||];
      insts = [||];
      prods = [||];
      last_writer = Array.make Isa.Reg.count (-1);
      last_reader = Array.make Isa.Reg.count (-1);
      pos = 0;
      last_update_seq = -1;
      ifetch_hit =
        Cache.Hierarchy.access_of_outcome cfg ~instruction:true
          Cache.Hierarchy.hit;
      load_hit =
        Cache.Hierarchy.access_of_outcome cfg ~instruction:false
          Cache.Hierarchy.hit;
    }
  in
  let ring = Feed.Ring.create ~window:(Feed.rewind_window cfg) (produce t) in
  let n = Feed.Ring.window ring in
  t.ring <- ring;
  t.words <- Array.make n 0;
  t.prods <- Array.make (stride * n) (-1);
  t

let fetch t i =
  if Feed.Ring.mem t.ring i then t.words.(Feed.Ring.index t.ring i)
  else Feed.end_of_stream

let producer t i j = t.prods.((stride * Feed.Ring.index t.ring i) + j)

let inst t i = t.insts.(Feed.Ring.index t.ring i)

let ifetch_access t i ~wrong_path:_ =
  if t.perfect_caches then t.ifetch_hit
  else Cache.Hierarchy.ifetch t.hier (inst t i).pc

let load_access t i ~wrong_path:_ =
  if t.perfect_caches then t.load_hit
  else Cache.Hierarchy.dload t.hier (inst t i).mem_addr

let on_commit_store t i =
  if t.perfect_caches then t.load_hit
  else Cache.Hierarchy.dstore t.hier (inst t i).mem_addr

let on_dispatch t i ~wrong_path =
  if (not wrong_path) && (not t.perfect_bpred) && i > t.last_update_seq
  then begin
    let s = Feed.Ring.index t.ring i in
    if Feed.is_branch t.words.(s) then begin
      t.last_update_seq <- i;
      match t.insts.(s) with
      | { branch = Some b; pc; _ } ->
        Branch.Predictor.update t.pred ~pc ~branch:b
      | { branch = None; _ } -> ()
    end
  end
