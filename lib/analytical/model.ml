(* Shared closed-form CPI arithmetic for the two analytical tiers: the
   first-order model (Analytical, occurrence-weighted) and the
   steady-state estimator (Steady_state, stationary-vector-weighted).
   Both reduce a profile to the same global rates; they differ only in
   how much mass each SFG node contributes, so the totals and the
   pressure walk take a per-node [weight] and everything downstream is
   shared. *)

type breakdown = {
  base_cpi : float;
  branch_cpi : float;
  imem_cpi : float;
  dmem_cpi : float;
  total_cpi : float;
}

(* The global rates the closed-form model needs: the profile's totals
   ({!Profile.Sfg.totals}) and the dataflow pressure, E[latency /
   distance] per instruction, the per-instruction serialization from
   RAW dependencies, whose reciprocal bounds dataflow IPC. *)
type aggregates = { totals : Profile.Sfg.totals; dep_pressure : float }

(* [weight] scales every count a node contributes; 1.0 reproduces the
   raw-count aggregation bit-for-bit (integer counts are exact in
   double precision), while pi_i /. occurrences_i turns the sums into
   stationary-visit expectations. *)
let aggregate_weighted ~weight (p : Profile.Stat_profile.t) =
  let totals = Profile.Sfg.totals ~weight p.sfg in
  if totals.instructions = 0.0 then
    invalid_arg "Analytical.predict: empty profile";
  let pressure_sum = ref 0.0 in
  Profile.Sfg.iter_nodes p.sfg (fun n ->
      let w = weight n in
      if w <> 0.0 then
        Array.iter
          (fun (slot : Profile.Sfg.slot) ->
            let lat = float_of_int (Config.Machine.op_latency slot.klass) in
            Array.iter
              (fun h ->
                (* each recorded (distance, count) contributes lat/distance *)
                Stats.Histogram.iter h (fun d c ->
                    if d > 0 then
                      pressure_sum :=
                        !pressure_sum
                        +. (w *. lat /. float_of_int d *. float_of_int c)))
              slot.deps)
          n.slots);
  { totals; dep_pressure = !pressure_sum /. totals.instructions }

let aggregate p = aggregate_weighted ~weight:(fun _ -> 1.0) p

let predict_aggregates (cfg : Config.Machine.t) (a : aggregates) =
  let t = a.totals in
  let per x = x /. t.instructions in
  (* base component: the machine sustains at most [width] per cycle and
     at least the dataflow serialization E[lat/dist] per instruction *)
  let width_cpi = 1.0 /. float_of_int cfg.issue_width in
  (* dep_pressure sums lat/dist over every operand, which double-counts
     instructions whose operands share producers and ignores that
     independent chains interleave; the damping factor is the standard
     first-order fudge *)
  let base_cpi = Float.max width_cpi (a.dep_pressure *. 0.35) in
  (* branch component: a misprediction exposes the front-end refill; a
     redirection a short bubble — both scale with pipeline occupancy *)
  let mispredict_penalty =
    float_of_int (cfg.mispredict_restart + 6)
    (* restart + refill through IFQ/dispatch *)
  in
  let branch_cpi =
    per t.br_mispredict *. mispredict_penalty
    +. (per t.br_redirect *. float_of_int cfg.fetch_redirect_penalty)
  in
  (* instruction memory: fetch stalls are architecturally exposed *)
  let l2lat = float_of_int cfg.l2.hit_latency in
  let memlat = float_of_int cfg.mem_latency in
  let imem_cpi =
    per t.l1i_misses *. l2lat
    +. (per t.l2i_misses *. memlat)
    +. (per t.itlb_misses *. float_of_int cfg.itlb.miss_penalty)
  in
  (* data memory: the window hides part of each load miss; the exposed
     fraction shrinks with window size relative to the miss latency *)
  let overlap penalty =
    let hidden = float_of_int cfg.ruu_size /. float_of_int cfg.issue_width in
    Float.max 0.15 (1.0 -. (hidden /. (penalty +. hidden)))
  in
  (* memory-level parallelism: misses that fit in the window overlap; a
     global-statistics model cannot see whether misses are dependent
     (pointer chasing) or independent (streaming), which is exactly the
     information the SFG-based synthetic trace retains — expect this
     model to err on chase-heavy workloads *)
  let mlp rate_per_inst =
    Float.min 4.0 (Float.max 1.0 (float_of_int cfg.ruu_size *. rate_per_inst))
  in
  let dmem_term misses penalty =
    let r = per misses in
    r *. penalty *. overlap penalty /. mlp r
  in
  let dmem_cpi =
    dmem_term t.l1d_misses l2lat
    +. dmem_term t.l2d_misses memlat
    +. dmem_term t.dtlb_misses (float_of_int cfg.dtlb.miss_penalty)
  in
  let total_cpi = base_cpi +. branch_cpi +. imem_cpi +. dmem_cpi in
  { base_cpi; branch_cpi; imem_cpi; dmem_cpi; total_cpi }
