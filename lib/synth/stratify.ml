(* Variance-aware stratified replication (PR 10).

   Blind replication (Replicate.run) doubles the replica count until
   the IPC confidence interval closes — every extra replica re-samples
   the whole SFG walk, including the low-variance phases that stopped
   contributing information long ago.  This engine instead:

   1. partitions the reduced SFG into phase strata (k-means over
      per-node behavioural rates, via Simpoint.classify_nodes);
   2. runs a small deterministic pilot round in every stratum;
   3. allocates the remaining replica budget by Neyman allocation
      (n_h proportional to W_h * sigma_h, measured on the pilot) using
      a greedy highest-averages rounding that is house-monotone, so a
      grown budget only *extends* each stratum's seed prefix;
   4. subtracts an analytically-exact branch-stall control variate from
      each sample (coefficient estimated on the pilot, frozen), and
   5. combines per-stratum means into the stratified estimator with a
      Welch–Satterthwaite pooled CI (Stats.Summary.combine_strata).

   Every replica's (stratum, seed) pair is fixed before any simulation
   runs and results aggregate in (stratum, seed) order, so reports are
   byte-identical at any worker count — the PR 5 invariant.  Samples
   grow through the loop blind replication runs on (Replicate.grow and
   Replicate.adaptive); this engine keeps its own seeds, per-stratum
   reductions and CPI-domain estimator.

   The control variate X is the machine-weighted density of the
   pre-assigned locality and branch outcomes carried by the trace
   itself (cache / TLB miss flags and branch disruption flags, each
   weighted by the config's nominal cost).  X has an *exact*
   expectation: the synthetic walk visits every surviving node exactly
   occurrences/R times (trace length is deterministic) and every flag
   is one uniform 32-bit draw against the plan's fixed-point
   thresholds — so mu_X is a finite sum over plan thresholds, weighted
   by the reduced graph's exact visit counts.
   Exactness is what keeps Y - beta*(X - mu_X) unbiased. *)

let span_replica = Telemetry.span "synth.stratify.replica"
let span_prepare = Telemetry.span "synth.stratify.prepare"

(* --- Neyman allocation ------------------------------------------------ *)

(* Greedy highest-averages (D'Hondt) seat assignment over the Neyman
   shares W_h * sigma_h, starting from [pilot] pre-assigned seats per
   stratum.  The assignment sequence is a pure function of the shares,
   so allocating a larger [total] extends the smaller allocation
   componentwise (house monotonicity — no Alabama paradox), which is
   what keeps each stratum's seed table prefix-stable as an adaptive
   run grows the budget.  Exact quotient ties break toward the lower
   stratum index; with pairwise-distinct shares the result is
   permutation-stable. *)
let neyman_allocate ~weights ~sigmas ~pilot ~total =
  let h = Array.length weights in
  if h = 0 then invalid_arg "Stratify.neyman_allocate: no strata";
  if Array.length sigmas <> h then
    invalid_arg "Stratify.neyman_allocate: weights/sigmas length mismatch";
  if pilot < 2 then invalid_arg "Stratify.neyman_allocate: pilot < 2";
  if total < pilot * h then
    invalid_arg "Stratify.neyman_allocate: total < pilot * strata";
  let share =
    Array.init h (fun i ->
        let s = Float.max 0.0 weights.(i) *. Float.max 0.0 sigmas.(i) in
        if Float.is_finite s then s else 0.0)
  in
  (* degenerate pilots (all variances zero) fall back to proportional
     allocation; all-zero weights to uniform *)
  if Array.for_all (fun s -> s <= 0.0) share then
    Array.iteri (fun i w -> share.(i) <- Float.max 0.0 w) weights;
  if Array.for_all (fun s -> s <= 0.0) share then
    Array.fill share 0 h 1.0;
  let counts = Array.make h pilot in
  for _ = (pilot * h) + 1 to total do
    let best = ref 0 and best_q = ref neg_infinity in
    for i = 0 to h - 1 do
      let q = share.(i) /. float_of_int (counts.(i) + 1) in
      if q > !best_q then begin
        best := i;
        best_q := q
      end
    done;
    counts.(!best) <- counts.(!best) + 1
  done;
  counts

(* --- Stratum structure ------------------------------------------------ *)

type stratum = {
  index : int;  (** strata ordered by smallest member node key *)
  node_keys : int array;  (** member SFG node keys, ascending *)
  weight : float;
      (** unreduced (profiled) instruction share; sums to 1 over strata *)
  instructions : int;  (** one replica's synthetic trace length *)
  mu_x : float;  (** exact control-variate expectation, CPI units *)
}

(* The estimator works in the CPI domain: total CPI is the
   instruction-weighted *linear* combination of stratum CPIs
   (cycles add), whereas stratum IPCs combine harmonically — an
   arithmetic IPC average systematically under-weights slow strata.
   IPC statistics are derived from the combined CPI by the delta
   method; the relative CI is invariant under the inversion. *)
type report = {
  stratum : stratum;
  seeds : int array;  (** per-replica seeds, run order, prefix-stable *)
  cpi_samples : float array;  (** raw per-replica CPI, seed order *)
  cv_samples : float array;  (** control-variate samples, seed order *)
}

type t = {
  master_seed : int;
  reduction : int;
  pilot : int;
  control_variate : bool;
  beta : float option;
      (** pilot-estimated CV coefficient; [None] = plain stratified path
          (CV disabled or degenerate pilot covariance) *)
  analytical_ipc : float;  (** zero-simulation analytical estimate *)
  reports : report array;
  cpi : Stats.Summary.stratified;  (** the combined estimator *)
  ipc : Stats.Summary.stratified;
      (** delta-method transform of [cpi]: mean 1/m, variance v/m^4,
          half-width ci/m^2, same effective df *)
}

let total_replicas t =
  Array.fold_left (fun acc r -> acc + Array.length r.seeds) 0 t.reports

let strata t = Array.length t.reports

(* --- control variate -------------------------------------------------- *)

(* Per-outcome weights: the machine's nominal cost of each pre-assigned
   locality / branch outcome the generator draws.  beta absorbs the
   overall scale, so the weights only need to be *proportional* to the
   real cost — using the config's latencies keeps the variate aligned
   with whichever resource dominates on this machine. *)
type cv_weights = {
  w_l2 : float;  (* an L1 (I or D) miss serviced by the L2 *)
  w_mem : float;  (* an L2 miss, round trip to memory *)
  w_itlb : float;
  w_dtlb : float;
  w_mis : float;
  w_red : float;
}

let cv_weights (cfg : Config.Machine.t) =
  {
    w_l2 = float_of_int cfg.l2.hit_latency;
    w_mem = float_of_int cfg.mem_latency;
    w_itlb = float_of_int cfg.itlb.miss_penalty;
    w_dtlb = float_of_int cfg.dtlb.miss_penalty;
    w_mis = float_of_int (cfg.mispredict_restart + 6);
    w_red = float_of_int cfg.fetch_redirect_penalty;
  }

(* X is computed over the trace's own flags, not the pipeline's
   counters: the flags are the raw threshold draws, which is what makes
   mu_X exactly computable from the plan. *)
let cv_sample (cfg : Config.Machine.t) (tr : Trace.t) =
  let w = cv_weights cfg in
  let e = ref 0.0 in
  let n = Trace.length tr in
  for i = 0 to n - 1 do
    let c = tr.code.(i) in
    let f = Trace.fetch_outcome c and l = Trace.load_outcome c in
    if Cache.Hierarchy.l1_miss f then e := !e +. w.w_l2;
    if Cache.Hierarchy.l2_miss f then e := !e +. w.w_mem;
    if Cache.Hierarchy.tlb_miss f then e := !e +. w.w_itlb;
    if Cache.Hierarchy.l1_miss l then e := !e +. w.w_l2;
    if Cache.Hierarchy.l2_miss l then e := !e +. w.w_mem;
    if Cache.Hierarchy.tlb_miss l then e := !e +. w.w_dtlb;
    let fw = Trace.feed_word c in
    if Uarch.Feed.is_branch fw then
      if Uarch.Feed.mispredicted fw then e := !e +. w.w_mis
      else if Uarch.Feed.redirected fw then e := !e +. w.w_red
  done;
  !e /. float_of_int (max 1 n)

(* mu_X as a finite sum over the compiled plan: node i is visited
   exactly node_occ.(i) times; every slot draws the I-side flags, load
   slots additionally draw the D-side flags, branch slots classify
   their outcome with one draw (mispredict if u < thr_mis, else
   redirect if u < thr_misred); L2 thresholds are conditional on the
   corresponding L1 miss.  The denominator is the trace length in
   instructions — sum_i occ_i * slots_i — matching cv_sample's
   normalisation. *)
let cv_expectation (cfg : Config.Machine.t) (plan : Kernel.Plan.t) =
  let w = cv_weights cfg in
  let two32 = float_of_int Kernel.Plan.two32 in
  let pr t = Float.min two32 (Float.max 0.0 (float_of_int t)) /. two32 in
  let e = ref 0.0 in
  for i = 0 to Kernel.Plan.nnodes plan - 1 do
    let nbr = ref 0 and nload = ref 0 in
    for j = plan.node_slot_off.(i) to plan.node_slot_off.(i + 1) - 1 do
      let meta = plan.slot_meta.(j) in
      if Kernel.Plan.meta_is_branch meta then incr nbr;
      if Kernel.Plan.meta_is_load meta then incr nload
    done;
    let slots = plan.node_slot_off.(i + 1) - plan.node_slot_off.(i) in
    let p_l1i = pr plan.thr_l1i.(i) and p_itlb = pr plan.thr_itlb.(i) in
    let p_l1d = pr plan.thr_l1d.(i) and p_dtlb = pr plan.thr_dtlb.(i) in
    let per_slot =
      (p_l1i *. (w.w_l2 +. (pr plan.thr_l2i.(i) *. w.w_mem)))
      +. (p_itlb *. w.w_itlb)
    in
    let per_load =
      (p_l1d *. (w.w_l2 +. (pr plan.thr_l2d.(i) *. w.w_mem)))
      +. (p_dtlb *. w.w_dtlb)
    in
    let per_branch =
      if plan.thr_misred.(i) <= 0 then 0.0
      else begin
        let p_mis = pr plan.thr_mis.(i) in
        let p_red = Float.max 0.0 (pr plan.thr_misred.(i) -. p_mis) in
        (w.w_mis *. p_mis) +. (w.w_red *. p_red)
      end
    in
    e :=
      !e
      +. (float_of_int plan.node_occ.(i)
         *. ((float_of_int slots *. per_slot)
            +. (float_of_int !nload *. per_load)
            +. (float_of_int !nbr *. per_branch)))
  done;
  !e /. float_of_int (max 1 (Kernel.Plan.instructions plan))

(* Pooled regression over every stratum's pilot samples:
   beta = sum_h (n-1) Cov_h / sum_h (n-1) Var_h, reducing to
   Summary.cv_beta for one stratum.  Frozen after the pilot so earlier
   samples never change as the budget grows.  A pilot-fitted beta
   *always* shrinks the pilot's own variance (OLS), so the guard is a
   significance test on the pooled correlation — t^2 = r^2 df /
   (1 - r^2) >= 4, roughly two sigma — without which a noise-fitted
   beta would inflate the out-of-pilot variance it is meant to
   reduce. *)
let pooled_beta pilot_reports =
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 and df = ref 0 in
  Array.iter
    (fun r ->
      let n = Array.length r.cpi_samples in
      if n >= 2 then begin
        let y = Array.to_list r.cpi_samples in
        let x = Array.to_list r.cv_samples in
        let w = float_of_int (n - 1) in
        sxy := !sxy +. (w *. Stats.Summary.sample_covariance x y);
        sxx := !sxx +. (w *. Stats.Summary.variance x);
        syy := !syy +. (w *. Stats.Summary.variance y);
        df := !df + (n - 1)
      end)
    pilot_reports;
  let beta = !sxy /. !sxx in
  if !sxx <= 0.0 || !syy <= 0.0 || not (Float.is_finite beta) then None
  else begin
    let r2 = Float.min 1.0 (!sxy *. !sxy /. (!sxx *. !syy)) in
    if r2 *. float_of_int !df < 4.0 *. (1.0 -. r2) then None else Some beta
  end

(* --- estimator assembly ----------------------------------------------- *)

let adjusted_samples ~beta (r : report) =
  match beta with
  | None -> Array.to_list r.cpi_samples
  | Some b ->
    Array.to_list
      (Array.mapi
         (fun i y -> y -. (b *. (r.cv_samples.(i) -. r.stratum.mu_x)))
         r.cpi_samples)

let combine ~beta reports =
  Stats.Summary.combine_strata
    (Array.to_list
       (Array.map
          (fun r ->
            let samples = adjusted_samples ~beta r in
            {
              Stats.Summary.weight = r.stratum.weight;
              mean = Stats.Summary.mean samples;
              variance = Stats.Summary.variance samples;
              n = List.length samples;
            })
          reports))

(* --- preparation ------------------------------------------------------ *)

type ctx = {
  meta : stratum;
  runner : int -> Uarch.Metrics.t * float;
      (* seed -> (replica metrics, control-variate sample) *)
}

let stratum_master_seed master_seed h =
  (* golden-ratio mixing keeps per-stratum seed streams disjoint from
     each other and from the unstratified table for the same master *)
  (master_seed lxor (0x9E3779B9 * (h + 1))) land 0x3FFFFFFF

(* The partition's k-means seed for a given stratum count; without one,
   Simpoint.classify_nodes picks up to 4 strata with the same seed. *)
let strata_seed = 1

let partition ?strata ~reduction (p : Profile.Stat_profile.t) =
  let survivors = (Profile.Sfg.reduce p.sfg ~reduction).survivors in
  if survivors = [||] then
    invalid_arg "Stratify: reduction empties the graph";
  let result =
    match strata with
    | Some k ->
      if k < 1 then invalid_arg "Stratify: strata < 1";
      let points = Array.map Simpoint.node_features survivors in
      Simpoint.Kmeans.cluster (Prng.create ~seed:strata_seed) ~points ~k
    | None -> Simpoint.classify_nodes (Array.to_list survivors)
  in
  (* group members per cluster, drop empties, order groups by smallest
     member key: stratum identity is content-derived, not an accident
     of k-means label order *)
  let groups = Hashtbl.create 8 in
  Array.iteri
    (fun i (n : Profile.Sfg.node) ->
      let c = result.assignment.(i) in
      let l = try Hashtbl.find groups c with Not_found -> [] in
      Hashtbl.replace groups c (n :: l))
    survivors;
  Hashtbl.fold (fun _ l acc -> List.rev l :: acc) groups []
  |> List.sort (fun a b ->
         compare (List.hd a).Profile.Sfg.key (List.hd b).Profile.Sfg.key)

(* Each stratum compiles its own sub-plan from the restricted SFG, with
   the reduction re-derived against the stratum's *own* unreduced
   instruction mass: under ~target_length every stratum synthesizes a
   full-length homogeneous trace, rather than a W_h-sized slice whose
   per-replica CPI noise would swamp the between-strata variance the
   stratification removes.  Stratum weights are unreduced instruction
   shares, so the weighted CPI combination targets the original mix. *)
let prepare ?check ?strata ~target_length ~control_variate
    (cfg : Config.Machine.t) (p : Profile.Stat_profile.t) =
  Telemetry.time span_prepare (fun () ->
      let r =
        Kernel.Compile.derive_reduction ~target_length (max 1 p.instructions)
      in
      let members = partition ?strata ~reduction:r p in
      let subs =
        List.map
          (fun ms ->
            let keep = Hashtbl.create (2 * List.length ms) in
            List.iter
              (fun (n : Profile.Sfg.node) -> Hashtbl.replace keep n.key ())
              ms;
            let sfg =
              Profile.Sfg.restrict p.sfg ~keep:(fun n -> Hashtbl.mem keep n.key)
            in
            (ms, sfg, int_of_float (Profile.Sfg.totals sfg).instructions))
          members
      in
      let total_insts =
        float_of_int
          (max 1 (List.fold_left (fun acc (_, _, i) -> acc + i) 0 subs))
      in
      let check = Option.value check ~default:(fun () -> ()) in
      let ctxs =
        List.mapi
          (fun idx (ms, sub_sfg, insts) ->
            let plan =
              Kernel.Compile.plan ~target_length
                { p with sfg = sub_sfg; instructions = insts }
            in
            let meta =
              {
                index = idx;
                node_keys =
                  Array.of_list
                    (List.map (fun (n : Profile.Sfg.node) -> n.key) ms);
                weight = float_of_int insts /. total_insts;
                instructions = Kernel.Plan.instructions plan;
                mu_x = cv_expectation cfg plan;
              }
            in
            let runner seed =
              check ();
              Telemetry.time span_replica (fun () ->
                  let tr = Generate.generate_of_plan plan ~seed in
                  ( Run.run cfg tr,
                    if control_variate then cv_sample cfg tr else 0.0 ))
            in
            { meta; runner })
          subs
      in
      (r, Array.of_list ctxs))

(* --- execution -------------------------------------------------------- *)

(* 1/CPI statistics by the delta method: for small relative dispersion,
   Var(1/Y) ~ Var(Y)/mu^4 and the half-width maps as ci/mu^2.  The
   relative half-width ci/mean is exactly preserved, so CI-target
   convergence means the same thing in either domain. *)
let ipc_of_cpi (c : Stats.Summary.stratified) =
  let m2 = c.mean *. c.mean in
  {
    Stats.Summary.mean = 1.0 /. c.mean;
    variance = c.variance /. (m2 *. m2);
    df = c.df;
    ci95 = c.ci95 /. m2;
  }

exception Budget_too_small of string

let run ?(jobs = 1) ?check ~target_length ?strata ?(pilot = 3)
    ?(control_variate = true) ?ci_target cfg p ~analytical ~master_seed
    ~replicas =
  Option.iter
    (fun c ->
      if c <= 0.0 then invalid_arg "Stratify.run: ci_target must be positive")
    ci_target;
  let r, ctxs =
    prepare ?check ?strata ~target_length ~control_variate cfg p
  in
  let h = Array.length ctxs in
  if pilot < 2 then invalid_arg "Stratify.run: pilot < 2";
  if replicas < pilot * h then
    raise
      (Budget_too_small
         (Printf.sprintf "Stratify.run: budget %d below pilot * strata = %d"
            replicas (pilot * h)));
  (* stratum i's seeds are a prefix-stable table of its own, so growing
     [want] only extends each stratum's samples *)
  let samples = ref (Array.make h [||]) in
  let grow_to want =
    let seeds =
      Array.mapi
        (fun i n ->
          Replicate.split_seeds
            ~master_seed:(stratum_master_seed master_seed i)
            ~n)
        want
    in
    samples :=
      Replicate.grow ~jobs (fun i seed -> ctxs.(i).runner seed) ~seeds
        !samples ~want;
    Array.mapi
      (fun i (c : ctx) ->
        {
          stratum = c.meta;
          seeds = seeds.(i);
          cpi_samples =
            Array.map
              (fun ((m : Uarch.Metrics.t), _) ->
                float_of_int m.cycles /. float_of_int (max 1 m.committed))
              !samples.(i);
          cv_samples = Array.map snd !samples.(i);
        })
      ctxs
  in
  (* beta and the Neyman shares are frozen on the pilot: re-estimating
     them on later rounds would re-adjust earlier samples and re-shuffle
     the allocation sequence, breaking prefix-stability *)
  let pilot_reports = grow_to (Array.make h pilot) in
  let beta = if control_variate then pooled_beta pilot_reports else None in
  let sigmas =
    Array.map
      (fun r -> Stats.Summary.sample_stddev (adjusted_samples ~beta r))
      pilot_reports
  in
  let weights = Array.map (fun (c : ctx) -> c.meta.weight) ctxs in
  let analytical_ipc = analytical ~reduction:r in
  let result total =
    let reports = grow_to (neyman_allocate ~weights ~sigmas ~pilot ~total) in
    let cpi = combine ~beta reports in
    {
      master_seed;
      reduction = r;
      pilot;
      control_variate;
      beta;
      analytical_ipc;
      reports;
      cpi;
      ipc = ipc_of_cpi cpi;
    }
  in
  Replicate.adaptive ?ci_target ~start:(pilot * h) ~cap:replicas
    ~ci:(fun t -> (t.ipc.mean, t.ipc.ci95))
    result

(* --- rendering -------------------------------------------------------- *)

let to_json t =
  let open Telemetry.Json in
  let farr a = Arr (Array.to_list (Array.map (fun x -> Num x) a)) in
  let iarr a =
    Arr (Array.to_list (Array.map (fun x -> Num (float_of_int x)) a))
  in
  Obj
    [
      ("master_seed", Num (float_of_int t.master_seed));
      ("streamed", Bool false);
      ("reduction", Num (float_of_int t.reduction));
      ("strata", Num (float_of_int (strata t)));
      ("pilot", Num (float_of_int t.pilot));
      ("control_variate", Bool t.control_variate);
      ("beta", match t.beta with None -> Null | Some b -> Num b);
      ("analytical_ipc", Num t.analytical_ipc);
      ("total_replicas", Num (float_of_int (total_replicas t)));
      ( "per_stratum",
        Arr
          (Array.to_list
             (Array.map
                (fun r ->
                  Obj
                    [
                      ("index", Num (float_of_int r.stratum.index));
                      ( "nodes",
                        Num (float_of_int (Array.length r.stratum.node_keys))
                      );
                      ("weight", Num r.stratum.weight);
                      ( "instructions",
                        Num (float_of_int r.stratum.instructions) );
                      ("mu_x", Num r.stratum.mu_x);
                      ("replicas", Num (float_of_int (Array.length r.seeds)));
                      ("seeds", iarr r.seeds);
                      ("cpi_samples", farr r.cpi_samples);
                      ("cv_samples", farr r.cv_samples);
                    ])
                t.reports)) );
      ( "cpi",
        Obj
          [
            ("mean", Num t.cpi.mean);
            ("variance", Num t.cpi.variance);
            ("df", Num t.cpi.df);
            ("ci95_half_width", Num t.cpi.ci95);
          ] );
      ( "ipc",
        Obj
          [
            ("mean", Num t.ipc.mean);
            ("variance", Num t.ipc.variance);
            ("df", Num t.ipc.df);
            ("ci95_half_width", Num t.ipc.ci95);
          ] );
    ]

let render_text ppf t =
  Format.fprintf ppf
    "stratified replication: %d replicas over %d strata (materialized), \
     master seed %d@."
    (total_replicas t) (strata t) t.master_seed;
  (match t.beta with
  | Some b ->
    Format.fprintf ppf
      "  control variate: beta %.4f (analytical estimate IPC %.4f)@." b
      t.analytical_ipc
  | None ->
    Format.fprintf ppf
      "  control variate: off (%s); analytical estimate IPC %.4f@."
      (if t.control_variate then "degenerate pilot" else "disabled")
      t.analytical_ipc);
  Array.iter
    (fun r ->
      Format.fprintf ppf
        "  stratum %d: %4d nodes  weight %.3f  replicas %2d  mean CPI %.4f@."
        r.stratum.index
        (Array.length r.stratum.node_keys)
        r.stratum.weight (Array.length r.seeds)
        (Stats.Summary.mean (Array.to_list r.cpi_samples)))
    t.reports;
  Format.fprintf ppf "  %-16s mean %8.4f  df %6.1f  95%% CI +/-%.4f@." "CPI"
    t.cpi.mean t.cpi.df t.cpi.ci95;
  Format.fprintf ppf "  %-16s mean %8.4f  95%% CI +/-%.4f@." "IPC" t.ipc.mean
    t.ipc.ci95
