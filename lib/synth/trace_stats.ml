type t = {
  instructions : int;
  mix : float array;
  mean_block_size : float;
  mean_dep_distance : float;
  deps_per_inst : float;
  taken_rate : float;
  mispredict_rate : float;
  redirect_rate : float;
  l1i_rate : float;
  l1d_rate : float;
  l2d_rate : float;
}

let rate a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let of_trace (tr : Trace.t) =
  let n = Trace.length tr in
  let mix = Array.make Isa.Iclass.count 0 in
  let blocks = ref 0 in
  let deps = ref 0 and dep_sum = ref 0 in
  let branches = ref 0 and taken = ref 0 and mis = ref 0 and red = ref 0 in
  let l1i = ref 0 in
  let loads = ref 0 and l1d = ref 0 and l2d = ref 0 in
  let prev_block = ref (-1) in
  for i = 0 to n - 1 do
    let s = Trace.get tr i in
    mix.(Isa.Iclass.index s.klass) <- mix.(Isa.Iclass.index s.klass) + 1;
      if s.block <> !prev_block then incr blocks;
      prev_block := s.block;
      Array.iter
        (fun d ->
          if d > 0 then begin
            incr deps;
            dep_sum := !dep_sum + d
          end)
        s.deps;
      if s.l1i_miss then incr l1i;
      if Isa.Iclass.is_load s.klass then begin
        incr loads;
        if s.l1d_miss then incr l1d;
        if s.l2d_miss then incr l2d
      end;
      match s.branch with
      | None -> ()
      | Some b ->
        incr branches;
        if b.taken then incr taken;
        if b.mispredict then incr mis;
        if b.redirect then incr red
  done;
  {
    instructions = n;
    mix = Array.map (fun c -> rate c n) mix;
    mean_block_size =
      (* consecutive same-block instructions approximate block runs *)
      (if !blocks = 0 then 0.0 else float_of_int n /. float_of_int !blocks);
    mean_dep_distance = rate !dep_sum !deps;
    deps_per_inst = rate !deps n;
    taken_rate = rate !taken !branches;
    mispredict_rate = rate !mis !branches;
    redirect_rate = rate !red !branches;
    l1i_rate = rate !l1i n;
    l1d_rate = rate !l1d !loads;
    l2d_rate = rate !l2d !loads;
  }

let of_profile (p : Profile.Stat_profile.t) =
  let mix = Array.make Isa.Iclass.count 0 in
  let total = ref 0 in
  let deps = ref 0 and dep_sum = ref 0 in
  let branches = ref 0 and taken = ref 0 and mis = ref 0 and red = ref 0 in
  let fetches = ref 0 and l1i = ref 0 in
  let loads = ref 0 and l1d = ref 0 and l2d = ref 0 in
  Profile.Sfg.iter_nodes p.sfg (fun n ->
      branches := !branches + n.br_execs;
      taken := !taken + n.br_taken;
      mis := !mis + n.br_mispredict;
      red := !red + n.br_redirect;
      fetches := !fetches + n.fetches;
      l1i := !l1i + n.l1i_misses;
      loads := !loads + n.loads;
      l1d := !l1d + n.l1d_misses;
      l2d := !l2d + n.l2d_misses;
      Array.iter
        (fun (s : Profile.Sfg.slot) ->
          let i = Isa.Iclass.index s.klass in
          mix.(i) <- mix.(i) + n.occurrences;
          total := !total + n.occurrences;
          Array.iter
            (fun h ->
              deps := !deps + Stats.Histogram.total h;
              Stats.Histogram.iter h (fun v c -> dep_sum := !dep_sum + (v * c)))
            s.deps)
        n.slots);
  {
    instructions = p.instructions;
    mix = Array.map (fun c -> rate c !total) mix;
    mean_block_size = Profile.Stat_profile.mean_block_size p;
    mean_dep_distance = rate !dep_sum !deps;
    deps_per_inst = rate !deps (max 1 !total);
    taken_rate = rate !taken !branches;
    mispredict_rate = rate !mis !branches;
    redirect_rate = rate !red !branches;
    l1i_rate = rate !l1i !fetches;
    l1d_rate = rate !l1d !loads;
    l2d_rate = rate !l2d !loads;
  }

type fidelity = {
  trace : t;
  expected : t;
  worst_mix_gap : float;
  rate_gaps : (string * float) list;
}

let fidelity p tr =
  let trace = of_trace tr and expected = of_profile p in
  let worst_mix_gap = ref 0.0 in
  Array.iteri
    (fun i f ->
      worst_mix_gap := Float.max !worst_mix_gap (Float.abs (f -. expected.mix.(i))))
    trace.mix;
  let gap name f = (name, Float.abs (f trace -. f expected)) in
  {
    trace;
    expected;
    worst_mix_gap = !worst_mix_gap;
    rate_gaps =
      [
        gap "taken" (fun s -> s.taken_rate);
        gap "mispredict" (fun s -> s.mispredict_rate);
        gap "redirect" (fun s -> s.redirect_rate);
        gap "l1i" (fun s -> s.l1i_rate);
        gap "l1d" (fun s -> s.l1d_rate);
        gap "l2d" (fun s -> s.l2d_rate);
      ];
  }

let pp ppf f =
  Format.fprintf ppf "@[<v>synthetic trace fidelity:@,";
  Format.fprintf ppf "  instructions: %d (profile %d)@," f.trace.instructions
    f.expected.instructions;
  Format.fprintf ppf "  mean block size: %.2f vs %.2f@," f.trace.mean_block_size
    f.expected.mean_block_size;
  Format.fprintf ppf "  mean dep distance: %.1f vs %.1f@,"
    f.trace.mean_dep_distance f.expected.mean_dep_distance;
  Format.fprintf ppf "  worst mix gap: %.4f@," f.worst_mix_gap;
  List.iter
    (fun (name, gap) -> Format.fprintf ppf "  %s rate gap: %.4f@," name gap)
    f.rate_gaps;
  Format.fprintf ppf "@]"
