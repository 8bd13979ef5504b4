type branch = { taken : bool; mispredict : bool; redirect : bool }

type inst = {
  klass : Isa.Iclass.t;
  deps : int array;
  l1i_miss : bool;
  l2i_miss : bool;
  itlb_miss : bool;
  l1d_miss : bool;
  l2d_miss : bool;
  dtlb_miss : bool;
  block : int;
  branch : branch option;
}

type t = {
  code : int array;
  deps : int array;
  k : int;
  reduction : int;
  seed : int;
}

(* the word layout is the trace feed's: one definition for the writer
   here and the reader in the pipeline *)
let max_deps = Kernel.Plan.max_deps
let dep_bits = Uarch.Trace_feed.dep_bits

let[@inline] code ~feed ~fetch ~load ~block =
  Uarch.Trace_feed.code ~feed ~fetch ~load ~block

let[@inline] feed_word c = Uarch.Trace_feed.feed_word c
let[@inline] fetch_outcome c = Uarch.Trace_feed.fetch_outcome c
let[@inline] load_outcome c = Uarch.Trace_feed.load_outcome c
let[@inline] dep w j = Uarch.Trace_feed.dep w j

let create ?(k = 0) ?(reduction = 0) ?(seed = 0) n =
  { code = Array.make n 0; deps = Array.make n 0; k; reduction; seed }

let length t = Array.length t.code

let get t i =
  let c = t.code.(i) and w = t.deps.(i) in
  let f = feed_word c in
  let fetch = fetch_outcome c and load = load_outcome c in
  {
    klass = Isa.Iclass.of_index (Uarch.Feed.klass f);
    deps = Array.init (Uarch.Feed.producers f) (dep w);
    l1i_miss = Cache.Hierarchy.l1_miss fetch;
    l2i_miss = Cache.Hierarchy.l2_miss fetch;
    itlb_miss = Cache.Hierarchy.tlb_miss fetch;
    l1d_miss = Cache.Hierarchy.l1_miss load;
    l2d_miss = Cache.Hierarchy.l2_miss load;
    dtlb_miss = Cache.Hierarchy.tlb_miss load;
    block = Uarch.Trace_feed.block c;
    branch =
      (if Uarch.Feed.is_branch f then
         Some
           {
             taken = Uarch.Feed.taken f;
             mispredict = Uarch.Feed.mispredicted f;
             redirect = Uarch.Feed.redirected f;
           }
       else None);
  }

let set t idx (i : inst) =
  let ndeps = Array.length i.deps in
  if ndeps > max_deps then invalid_arg "Trace.set: too many dependencies";
  let w = ref 0 in
  Array.iteri
    (fun j d ->
      if d < 0 || d > Profile.Sfg.dep_cap then
        invalid_arg "Trace.set: dependency distance out of range";
      w := !w lor (d lsl (dep_bits * j)))
    i.deps;
  let branch =
    match i.branch with
    | None -> 0
    | Some b ->
      Uarch.Feed.branch_bits ~taken:b.taken ~mispredict:b.mispredict
        ~redirect:b.redirect
  in
  t.code.(idx) <-
    code
      ~feed:
        (Uarch.Feed.word ~klass:(Isa.Iclass.index i.klass) ~branch
           ~producers:ndeps)
      ~fetch:
        (Cache.Hierarchy.outcome ~l1_miss:i.l1i_miss ~l2_miss:i.l2i_miss
           ~tlb_miss:i.itlb_miss)
      ~load:
        (Cache.Hierarchy.outcome ~l1_miss:i.l1d_miss ~l2_miss:i.l2d_miss
           ~tlb_miss:i.dtlb_miss)
      ~block:i.block;
  t.deps.(idx) <- !w

let of_insts ?k ?reduction ?seed insts =
  let t = create ?k ?reduction ?seed (Array.length insts) in
  Array.iteri (set t) insts;
  t

let to_insts t = Array.init (length t) (get t)

let well_formed i =
  let branch_ok = Isa.Iclass.is_branch i.klass = (i.branch <> None) in
  let dload_ok =
    Isa.Iclass.is_load i.klass
    || ((not i.l1d_miss) && (not i.l2d_miss) && not i.dtlb_miss)
  in
  let l2_ok = (not i.l2d_miss || i.l1d_miss) && (not i.l2i_miss || i.l1i_miss) in
  let deps_ok =
    Array.for_all (fun d -> d >= 0 && d <= Profile.Sfg.dep_cap) i.deps
  in
  branch_ok && dload_ok && l2_ok && deps_ok
