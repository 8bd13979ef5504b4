type feature = {
  f_name : string;
  expected_total : float;
  observed_total : float;
  support : int;
  kl : float;
  chi_square : float;
  max_delta : float;
}

type t = {
  label : string;
  instructions_expected : int;
  instructions_observed : int;
  features : feature list;
}

(* Smoothing mass added per key so a key present on only one side keeps
   every statistic finite. Chosen so that two *identical* count lists
   produce exactly 0 for all three statistics (the smoothed p and q
   coincide when the raw distributions do). *)
let eps = 0.5

let fold_counts pairs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, c) ->
      if c > 0.0 then
        match Hashtbl.find_opt tbl k with
        | Some r -> r := !r +. c
        | None -> Hashtbl.add tbl k (ref c))
    pairs;
  tbl

let feature_of_counts ~name ~expected ~observed =
  let e_tbl = fold_counts expected and o_tbl = fold_counts observed in
  let keys = Hashtbl.create 64 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) e_tbl;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) o_tbl;
  let support = Hashtbl.length keys in
  let get tbl k = match Hashtbl.find_opt tbl k with Some r -> !r | None -> 0.0 in
  let e_total = Hashtbl.fold (fun _ r acc -> acc +. !r) e_tbl 0.0 in
  let o_total = Hashtbl.fold (fun _ r acc -> acc +. !r) o_tbl 0.0 in
  if support = 0 || e_total = 0.0 || o_total = 0.0 then
    {
      f_name = name;
      expected_total = e_total;
      observed_total = o_total;
      support;
      kl = 0.0;
      chi_square = 0.0;
      max_delta = 0.0;
    }
  else begin
    let n = float_of_int support in
    let kl = ref 0.0 and chi = ref 0.0 and delta = ref 0.0 in
    Hashtbl.iter
      (fun k () ->
        let e = get e_tbl k and o = get o_tbl k in
        (* KL(observed ‖ expected) over the smoothed distributions *)
        let p = (o +. eps) /. (o_total +. (n *. eps)) in
        let q = (e +. eps) /. (e_total +. (n *. eps)) in
        kl := !kl +. (p *. log (p /. q));
        (* Pearson chi-square against the expected counts rescaled to
           the observed mass; zero-expected keys get the smoothing mass
           instead so they penalise rather than divide by zero *)
        let e' = (if e > 0.0 then e else eps) *. o_total /. e_total in
        let d = o -. e' in
        chi := !chi +. (d *. d /. e');
        delta := Float.max !delta (Float.abs ((o /. o_total) -. (e /. e_total))))
      keys;
    {
      f_name = name;
      expected_total = e_total;
      observed_total = o_total;
      support;
      kl = !kl;
      chi_square = !chi;
      max_delta = !delta;
    }
  end

(* --- distribution extraction --- *)

let f = float_of_int

(* two-point (event, complement) distributions for the locality rates;
   the expected side is the profile's totals *)
let bernoulli ~name ~expected:(e_yes, e_total) ~observed:(o_yes, o_total) =
  feature_of_counts ~name
    ~expected:[ ("yes", e_yes); ("no", e_total -. e_yes) ]
    ~observed:[ ("yes", f o_yes); ("no", f (o_total - o_yes)) ]

let compare ?(label = "diag") (p : Profile.Stat_profile.t) (tr : Synth.Trace.t)
    =
  (* the profile's totals, then one walk over the SFG for the
     distributions they do not hold *)
  let t = Profile.Sfg.totals p.sfg in
  let arity_e = Hashtbl.create 8 in
  let deps_e = Stats.Histogram.create () in
  let edges_e = ref [] in
  let bump tbl k n =
    match Hashtbl.find_opt tbl k with
    | Some r -> r := !r + n
    | None -> Hashtbl.add tbl k (ref n)
  in
  Profile.Sfg.iter_nodes p.sfg (fun n ->
      Hashtbl.iter
        (fun succ count ->
          (* project history-qualified edges onto block pairs; the flat
             trace cannot show same-block repeats, so drop self edges *)
          match Profile.Sfg.find p.sfg ~key:succ with
          | Some s when s.block <> n.block ->
            edges_e :=
              (Printf.sprintf "%d->%d" n.block s.block, f !count) :: !edges_e
          | _ -> ())
        n.edges;
      Array.iter
        (fun (s : Profile.Sfg.slot) ->
          (* mirror the generator: waw/war histograms, when the profile
             recorded them, contribute two extra operand slots *)
          let arity =
            Array.length s.deps
            + (if
                 Stats.Histogram.is_empty s.waw
                 && Stats.Histogram.is_empty s.war
               then 0
               else 2)
          in
          bump arity_e arity n.occurrences;
          Array.iter (fun h -> Stats.Histogram.merge deps_e h) s.deps;
          Stats.Histogram.merge deps_e s.waw;
          Stats.Histogram.merge deps_e s.war)
        n.slots);
  (* one walk over the synthetic trace gathers the observed side *)
  let n_obs = Synth.Trace.length tr in
  let mix_o = Array.make Isa.Iclass.count 0 in
  let arity_o = Hashtbl.create 8 in
  let deps_o = Stats.Histogram.create () in
  let edges_o = Hashtbl.create 256 in
  let o_branches = ref 0
  and o_taken = ref 0
  and o_mis = ref 0
  and o_red = ref 0
  and o_l1i = ref 0
  and o_l2i = ref 0
  and o_itlb = ref 0
  and o_loads = ref 0
  and o_l1d = ref 0
  and o_l2d = ref 0
  and o_dtlb = ref 0 in
  let prev_block = ref (-1) in
  for idx = 0 to Synth.Trace.length tr - 1 do
    let i = Synth.Trace.get tr idx in
    let ci = Isa.Iclass.index i.klass in
      mix_o.(ci) <- mix_o.(ci) + 1;
      bump arity_o (Array.length i.deps) 1;
      Array.iter (fun d -> if d > 0 then Stats.Histogram.add deps_o d) i.deps;
      if !prev_block >= 0 && i.block <> !prev_block then
        bump edges_o (Printf.sprintf "%d->%d" !prev_block i.block) 1;
      prev_block := i.block;
      if i.l1i_miss then incr o_l1i;
      if i.l2i_miss then incr o_l2i;
      if i.itlb_miss then incr o_itlb;
      if Isa.Iclass.is_load i.klass then begin
        incr o_loads;
        if i.l1d_miss then incr o_l1d;
        if i.l2d_miss then incr o_l2d;
        if i.dtlb_miss then incr o_dtlb
      end;
      match i.branch with
      | None -> ()
      | Some b ->
        incr o_branches;
        if b.taken then incr o_taken;
        if b.mispredict then incr o_mis;
        if b.redirect then incr o_red
  done;
  let of_array a =
    Array.to_list
      (Array.mapi
         (fun i c -> (Isa.Iclass.to_string (Isa.Iclass.of_index i), c))
         a)
  in
  let of_tbl key_of tbl =
    Hashtbl.fold (fun k r acc -> (key_of k, f !r) :: acc) tbl []
  in
  let of_hist h =
    let acc = ref [] in
    Stats.Histogram.iter h (fun v c ->
        if v > 0 then acc := (string_of_int v, f c) :: !acc);
    !acc
  in
  let features =
    [
      feature_of_counts ~name:"mix" ~expected:(of_array t.by_class)
        ~observed:(of_array (Array.map f mix_o));
      feature_of_counts ~name:"operands"
        ~expected:(of_tbl string_of_int arity_e)
        ~observed:(of_tbl string_of_int arity_o);
      feature_of_counts ~name:"dep_distance" ~expected:(of_hist deps_e)
        ~observed:(of_hist deps_o);
      feature_of_counts ~name:"sfg_edges" ~expected:!edges_e
        ~observed:(of_tbl Fun.id edges_o);
      bernoulli ~name:"taken" ~expected:(t.br_taken, t.br_execs)
        ~observed:(!o_taken, !o_branches);
      bernoulli ~name:"mispredict" ~expected:(t.br_mispredict, t.br_execs)
        ~observed:(!o_mis, !o_branches);
      bernoulli ~name:"redirect" ~expected:(t.br_redirect, t.br_execs)
        ~observed:(!o_red, !o_branches);
      bernoulli ~name:"l1i" ~expected:(t.l1i_misses, t.fetches)
        ~observed:(!o_l1i, n_obs);
      bernoulli ~name:"l2i" ~expected:(t.l2i_misses, t.fetches)
        ~observed:(!o_l2i, n_obs);
      bernoulli ~name:"itlb" ~expected:(t.itlb_misses, t.fetches)
        ~observed:(!o_itlb, n_obs);
      bernoulli ~name:"l1d" ~expected:(t.l1d_misses, t.loads)
        ~observed:(!o_l1d, !o_loads);
      bernoulli ~name:"l2d" ~expected:(t.l2d_misses, t.loads)
        ~observed:(!o_l2d, !o_loads);
      bernoulli ~name:"dtlb" ~expected:(t.dtlb_misses, t.loads)
        ~observed:(!o_dtlb, !o_loads);
    ]
  in
  {
    label;
    instructions_expected = p.instructions;
    instructions_observed = n_obs;
    features;
  }

let worst t =
  List.fold_left
    (fun acc ft ->
      match acc with
      | Some w when w.max_delta >= ft.max_delta -> acc
      | _ -> Some ft)
    None t.features

(* --- simulation-outcome comparison --- *)

type metric_delta = {
  m_name : string;
  m_eds : float;
  m_synthetic : float;
  m_delta : float;
}

let compare_metrics ~(eds : Uarch.Metrics.t) ~(synthetic : Uarch.Metrics.t) =
  let d name fe fs =
    let a = fe eds and b = fs synthetic in
    { m_name = name; m_eds = a; m_synthetic = b; m_delta = Float.abs (a -. b) }
  in
  let frac num den = if den = 0 then 0.0 else f num /. f den in
  let stall_fracs (m : Uarch.Metrics.t) =
    List.map
      (fun (name, c) -> (name, frac c m.cycles))
      (Uarch.Metrics.stall_causes m.stalls)
  in
  let base =
    [
      d "ipc" Uarch.Metrics.ipc Uarch.Metrics.ipc;
      d "mpki" Uarch.Metrics.mpki Uarch.Metrics.mpki;
      d "ruu_occupancy" Uarch.Metrics.avg_ruu_occupancy
        Uarch.Metrics.avg_ruu_occupancy;
      d "lsq_occupancy" Uarch.Metrics.avg_lsq_occupancy
        Uarch.Metrics.avg_lsq_occupancy;
      d "ifq_occupancy" Uarch.Metrics.avg_ifq_occupancy
        Uarch.Metrics.avg_ifq_occupancy;
      d "dispatch_stall_frac"
        (fun m -> frac m.dispatch_stall_cycles m.cycles)
        (fun m -> frac m.dispatch_stall_cycles m.cycles);
    ]
  in
  let stalls =
    List.map2
      (fun (name, a) (_, b) ->
        {
          m_name = "stall." ^ name;
          m_eds = a;
          m_synthetic = b;
          m_delta = Float.abs (a -. b);
        })
      (stall_fracs eds) (stall_fracs synthetic)
  in
  base @ stalls

(* --- rendering --- *)

let render_text ?metrics t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "diag %s: profile %d instructions, synthetic %d\n" t.label
    t.instructions_expected t.instructions_observed;
  Printf.bprintf buf "  %-14s %8s %10s %12s %10s\n" "feature" "support" "KL"
    "chi-square" "max|dP|";
  List.iter
    (fun ft ->
      Printf.bprintf buf "  %-14s %8d %10.5f %12.2f %10.5f\n" ft.f_name
        ft.support ft.kl ft.chi_square ft.max_delta)
    t.features;
  (match worst t with
  | Some w -> Printf.bprintf buf "  worst: %s (max|dP| = %.5f)\n" w.f_name w.max_delta
  | None -> ());
  (match metrics with
  | None -> ()
  | Some ms ->
    Printf.bprintf buf "  %-22s %12s %12s %10s\n" "metric" "EDS" "synthetic"
      "|delta|";
    List.iter
      (fun m ->
        Printf.bprintf buf "  %-22s %12.4f %12.4f %10.4f\n" m.m_name m.m_eds
          m.m_synthetic m.m_delta)
      ms);
  Buffer.contents buf

let to_json ?metrics t =
  let open Telemetry.Json in
  let feature ft =
    Obj
      [
        ("name", Str ft.f_name);
        ("support", Num (float_of_int ft.support));
        ("expected_total", Num ft.expected_total);
        ("observed_total", Num ft.observed_total);
        ("kl", Num ft.kl);
        ("chi_square", Num ft.chi_square);
        ("max_delta", Num ft.max_delta);
      ]
  in
  let fields =
    [
      ("label", Str t.label);
      ("instructions_expected", Num (float_of_int t.instructions_expected));
      ("instructions_observed", Num (float_of_int t.instructions_observed));
      ("features", Arr (List.map feature t.features));
    ]
  in
  let fields =
    match metrics with
    | None -> fields
    | Some ms ->
      fields
      @ [
          ( "metrics",
            Arr
              (List.map
                 (fun m ->
                   Obj
                     [
                       ("name", Str m.m_name);
                       ("eds", Num m.m_eds);
                       ("synthetic", Num m.m_synthetic);
                       ("delta", Num m.m_delta);
                     ])
                 ms) );
        ]
  in
  Obj [ ("diag", Obj fields) ]
