type family = Window | Width | Ifq | Bpred | Cache_size

let families = [ Window; Width; Ifq; Bpred; Cache_size ]

let family_name = function
  | Window -> "window size (RUU; LSQ = RUU/2)"
  | Width -> "processor width"
  | Ifq -> "instruction fetch queue size"
  | Bpred -> "branch predictor size"
  | Cache_size -> "cache size"

let family_slug = function
  | Window -> "window"
  | Width -> "width"
  | Ifq -> "ifq"
  | Bpred -> "bpred"
  | Cache_size -> "cache"

let base = Config.Machine.baseline

let configs = function
  | Window ->
    [ 8; 16; 32; 48; 64; 96; 128 ]
    |> List.map (fun r ->
           ( string_of_int r,
             Config.Machine.with_window base ~ruu:r ~lsq:(max 4 (r / 2)) ))
  | Width ->
    [ 2; 4; 6; 8 ]
    |> List.map (fun w -> (string_of_int w, Config.Machine.with_width base w))
  | Ifq ->
    [ 4; 8; 16; 32 ]
    |> List.map (fun n -> (string_of_int n, Config.Machine.with_ifq base n))
  | Bpred ->
    [ (0.25, "b/4"); (0.5, "b/2"); (1.0, "base"); (2.0, "b*2"); (4.0, "b*4") ]
    |> List.map (fun (f, l) -> (l, Config.Machine.scale_bpred base f))
  | Cache_size ->
    [ (0.25, "b/4"); (0.5, "b/2"); (1.0, "base"); (2.0, "b*2"); (4.0, "b*4") ]
    |> List.map (fun (f, l) -> (l, Config.Machine.scale_caches base f))

type metric = {
  mname : string;
  value : Config.Machine.t -> Uarch.Metrics.t -> float;
}

let upower kind cfg (m : Uarch.Metrics.t) =
  Power.Model.unit_power (Power.Model.create cfg) m.activity kind

let m_ipc = { mname = "IPC"; value = (fun _ m -> Uarch.Metrics.ipc m) }

let m_epc =
  {
    mname = "EPC";
    value =
      (fun cfg m -> Power.Model.epc (Power.Model.create cfg) m.activity);
  }

let m_ruu_occ =
  { mname = "RUU occupancy"; value = (fun _ m -> Uarch.Metrics.avg_ruu_occupancy m) }

let m_lsq_occ =
  { mname = "LSQ occupancy"; value = (fun _ m -> Uarch.Metrics.avg_lsq_occupancy m) }

let m_ifq_occ =
  { mname = "IFQ occupancy"; value = (fun _ m -> Uarch.Metrics.avg_ifq_occupancy m) }

let m_exec_bw =
  {
    mname = "exec bandwidth";
    value =
      (fun _ (m : Uarch.Metrics.t) ->
        if m.cycles = 0 then 0.0
        else float_of_int m.activity.issued /. float_of_int m.cycles);
  }

let m_power name kind = { mname = name; value = upower kind }

let metrics = function
  | Window ->
    [
      m_ipc;
      m_ruu_occ;
      m_lsq_occ;
      m_epc;
      m_power "RUU power" Power.Model.Ruu_unit;
      m_power "LSQ power" Power.Model.Lsq_unit;
    ]
  | Width ->
    [
      m_ipc;
      m_exec_bw;
      m_epc;
      m_power "fetch power" Power.Model.Fetch_unit;
      m_power "dispatch power" Power.Model.Dispatch_unit;
      m_power "issue power" Power.Model.Issue_unit;
    ]
  | Ifq -> [ m_ipc; m_epc; m_ifq_occ ]
  | Bpred ->
    [
      m_ipc;
      m_epc;
      m_ruu_occ;
      m_power "RUU power" Power.Model.Ruu_unit;
      m_lsq_occ;
      m_power "LSQ power" Power.Model.Lsq_unit;
      m_ifq_occ;
      m_power "fetch power" Power.Model.Fetch_unit;
      m_power "bpred power" Power.Model.Bpred_unit;
    ]
  | Cache_size ->
    [
      m_ipc;
      m_epc;
      m_ruu_occ;
      m_power "RUU power" Power.Model.Ruu_unit;
      m_lsq_occ;
      m_power "LSQ power" Power.Model.Lsq_unit;
      m_ifq_occ;
      m_power "fetch power" Power.Model.Fetch_unit;
      m_power "I-cache power" Power.Model.Icache_unit;
      m_power "D-cache power" Power.Model.Dcache_unit;
      m_power "L2 power" Power.Model.L2_unit;
    ]

let metric_names f = List.map (fun m -> m.mname) (metrics f)

(* Table 4 runs 25 configurations x 10 benchmarks through both
   simulators; use half-size streams to keep the sweep tractable. *)
let t4_ref_length = max 50_000 (Exp_common.ref_length / 2)
let t4_syn_length = max 10_000 (Exp_common.syn_length / 2)

(* one job = one (sweep family, benchmark): every design point of the
   family evaluated by both simulators on that benchmark's stream *)
let jobs () =
  families
  |> List.concat_map (fun f ->
         List.map (fun spec -> (f, spec)) Exp_common.benches)
  |> Array.of_list

(* every family profiles each point at its profile configuration, so
   points that differ only in what profiling does not read (the window
   and width families, and each family's base point) share one profile
   through the cache's memo and store tiers *)
let exec cache ((family : family), (spec : Workload.Spec.t)) =
  let s = Exp_common.src ~length:t4_ref_length spec in
  List.map
    (fun (_, cfg) ->
      let eds = (Exp_common.reference cache cfg s).Statsim.metrics in
      let p =
        Exp_common.profile cache
          (Profile.Stat_profile.profile_config ~base cfg)
          s
      in
      let ss =
        (Statsim.run_profile ~target_length:t4_syn_length cfg p
           ~seed:Exp_common.seed)
          .Statsim.metrics
      in
      (cfg, eds, ss))
    (configs family)

let family_table family per_bench =
  let cfgs = configs family in
  let labels = List.map fst cfgs in
  let steps =
    let rec pairs = function
      | a :: (b :: _ as rest) -> Printf.sprintf "%s->%s" a b :: pairs rest
      | [ _ ] | [] -> []
    in
    pairs labels
  in
  let rows =
    List.map
      (fun m ->
        let n_steps = List.length steps in
        let errs =
          List.init n_steps (fun si ->
              let per_bench_err =
                List.filter_map
                  (fun results ->
                    let cfg_a, eds_a, ss_a = List.nth results si in
                    let cfg_b, eds_b, ss_b = List.nth results (si + 1) in
                    let ra = m.value cfg_a eds_a
                    and rb = m.value cfg_b eds_b
                    and pa = m.value cfg_a ss_a
                    and pb = m.value cfg_b ss_b in
                    if ra = 0.0 || pa = 0.0 || rb = 0.0 then None
                    else
                      Some
                        (Exp_common.pct
                           (Stats.Summary.relative_error ~ref_a:ra ~ref_b:rb
                              ~pred_a:pa ~pred_b:pb)))
                  per_bench
              in
              Stats.Summary.mean per_bench_err)
        in
        (m.mname, errs))
      (metrics family)
  in
  (steps, rows)

let reduce _jobs results =
  let nb = List.length Exp_common.benches in
  let open Runner.Report in
  let family_blocks fi family =
    let per_bench = List.init nb (fun bi -> results.((fi * nb) + bi)) in
    let steps, rows = family_table family per_bench in
    [
      Line (Printf.sprintf "-- sensitivity to %s --" (family_name family));
      table
        ~name:(family_slug family)
        ~label_col:"" ~label_width:18 ~columns:steps
        (List.map
           (fun (name, errs) ->
             (name, List.map (fun e -> Pct (e, 1)) errs))
           rows);
    ]
  in
  {
    id = "table4";
    blocks =
      Line
        "== Table 4: relative error (%) of statistical simulation across \
         design-point steps =="
      :: List.concat (List.mapi family_blocks families)
      @ [
          Line "(paper: relative errors generally below 3%)";
          Line "";
        ];
  }

let plan = Runner.Plan.make ~jobs ~exec ~reduce
