type profile = {
  instructions : int;
  mix : float array;
  block_size_mean : float;
  block_size_stddev : float;
  nsrcs_by_class : float array;
  deps : Stats.Histogram.t;
  taken_rate : float;
  mispredict_rate : float;
  redirect_rate : float;
  l1i_rate : float;
  l2i_rate : float;
  itlb_rate : float;
  l1d_rate : float;
  l2d_rate : float;
  dtlb_rate : float;
}

let n_blocks = 100

let rate num den = if den = 0.0 then 0.0 else num /. den

let of_stat_profile (p : Profile.Stat_profile.t) =
  let nc = Isa.Iclass.count in
  let t = Profile.Sfg.totals p.sfg in
  let class_srcs = Array.make nc 0 in
  let deps = Stats.Histogram.create () in
  let block_sizes = Stats.Histogram.create () in
  Profile.Sfg.iter_nodes p.sfg (fun n ->
      let occ = n.occurrences in
      Stats.Histogram.add_many block_sizes (Array.length n.slots) occ;
      Array.iter
        (fun (slot : Profile.Sfg.slot) ->
          let ci = Isa.Iclass.index slot.klass in
          class_srcs.(ci) <- class_srcs.(ci) + (occ * slot.nsrcs);
          Array.iter (fun h -> Stats.Histogram.merge deps h) slot.deps)
        n.slots);
  {
    instructions = p.instructions;
    mix = Array.map (fun c -> rate c t.instructions) t.by_class;
    block_size_mean = Stats.Histogram.mean block_sizes;
    block_size_stddev = Stats.Histogram.stddev block_sizes;
    nsrcs_by_class =
      Array.init nc (fun i ->
          rate (float_of_int class_srcs.(i)) t.by_class.(i));
    deps;
    taken_rate = rate t.br_taken t.br_execs;
    mispredict_rate = rate t.br_mispredict t.br_execs;
    redirect_rate = rate t.br_redirect t.br_execs;
    l1i_rate = rate t.l1i_misses t.fetches;
    l2i_rate = rate t.l2i_misses t.l1i_misses;
    itlb_rate = rate t.itlb_misses t.fetches;
    l1d_rate = rate t.l1d_misses t.loads;
    l2d_rate = rate t.l2d_misses t.l1d_misses;
    dtlb_rate = rate t.dtlb_misses t.loads;
  }

let collect cfg gen =
  of_stat_profile
    (Profile.Stat_profile.collect ~k:0
       ~branch_mode:Profile.Branch_profiler.Immediate cfg gen)

(* Generation: 100 blocks; block i has a fixed size drawn from
   N(mean, stddev) and a fixed terminating-branch class; walking picks a
   uniformly random successor, as HLS's front-end graph has no measured
   transition structure. *)

type hblock = { size : int; branch_class : Isa.Iclass.t }

let branch_classes : Isa.Iclass.t array =
  [| Int_branch; Fp_branch; Indirect_branch |]

let nonbranch_classes : Isa.Iclass.t array =
  [| Load; Store; Int_alu; Int_mult; Int_div; Fp_alu; Fp_mult; Fp_div; Fp_sqrt |]

let generate p ~target_length ~seed =
  if target_length <= 0 then invalid_arg "Hls.generate: target_length <= 0";
  let rng = Prng.create ~seed in
  let branch_weights =
    Array.map (fun c -> p.mix.(Isa.Iclass.index c)) branch_classes
  in
  let branch_weights =
    if Array.for_all (fun w -> w <= 0.0) branch_weights then [| 1.0; 0.0; 0.0 |]
    else branch_weights
  in
  let nonbranch_weights =
    Array.map (fun c -> p.mix.(Isa.Iclass.index c)) nonbranch_classes
  in
  let blocks =
    Array.init n_blocks (fun _ ->
        let raw =
          Prng.normal rng ~mean:p.block_size_mean ~stddev:p.block_size_stddev
        in
        {
          size = max 1 (int_of_float (Float.round raw));
          branch_class = branch_classes.(Prng.choose_weighted rng ~weights:branch_weights);
        })
  in
  let out = ref [] in
  let pos = ref 0 in
  let recent_has_dest = Array.make (Profile.Sfg.dep_cap + 1) true in
  let producer_has_dest delta =
    let target = !pos - delta in
    target < 0 || recent_has_dest.(target mod (Profile.Sfg.dep_cap + 1))
  in
  let sample_dep () =
    if Stats.Histogram.is_empty p.deps then 0
    else
      let rec go n =
        if n = 0 then 0
        else
          let d = Stats.Histogram.sample p.deps rng in
          if producer_has_dest d then d else go (n - 1)
      in
      go 1000
  in
  let sample_nsrcs klass =
    let mean = p.nsrcs_by_class.(Isa.Iclass.index klass) in
    let base = int_of_float mean in
    let frac = mean -. float_of_int base in
    min 3 (max 0 (base + if Prng.bernoulli rng frac then 1 else 0))
  in
  let emit klass ~branch =
    let nsrcs = sample_nsrcs klass in
    let deps = Array.init nsrcs (fun _ -> sample_dep ()) in
    let is_load = Isa.Iclass.is_load klass in
    let l1i = Prng.bernoulli rng p.l1i_rate in
    let l1d = is_load && Prng.bernoulli rng p.l1d_rate in
    let i : Synth.Trace.inst =
      {
        klass;
        deps;
        l1i_miss = l1i;
        l2i_miss = l1i && Prng.bernoulli rng p.l2i_rate;
        itlb_miss = Prng.bernoulli rng p.itlb_rate;
        l1d_miss = l1d;
        l2d_miss = l1d && Prng.bernoulli rng p.l2d_rate;
        dtlb_miss = is_load && Prng.bernoulli rng p.dtlb_rate;
        block = 0;
        branch;
      }
    in
    out := i :: !out;
    recent_has_dest.(!pos mod (Profile.Sfg.dep_cap + 1)) <-
      Isa.Iclass.has_dest klass;
    incr pos
  in
  while !pos < target_length do
    let b = blocks.(Prng.int rng n_blocks) in
    for _ = 1 to b.size - 1 do
      emit
        nonbranch_classes.(Prng.choose_weighted rng ~weights:nonbranch_weights)
        ~branch:None
    done;
    let taken = Prng.bernoulli rng p.taken_rate in
    let u = Prng.unit_float rng in
    let mispredict = u < p.mispredict_rate in
    let redirect = (not mispredict) && u < p.mispredict_rate +. p.redirect_rate in
    emit b.branch_class ~branch:(Some { Synth.Trace.taken; mispredict; redirect })
  done;
  Synth.Trace.of_insts ~seed (Array.of_list (List.rev !out))

let run cfg gen ~target_length ~seed =
  let p = collect cfg gen in
  Synth.Run.run cfg (generate p ~target_length ~seed)
