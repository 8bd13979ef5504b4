let ruu_sizes = [ 8; 16; 32; 48; 64; 96; 128 ]
let lsq_sizes = [ 4; 8; 16; 24; 32; 48; 64 ]
let widths = [ 2; 4; 6; 8 ]

let grid () =
  let base = Config.Machine.baseline in
  List.concat_map
    (fun ruu ->
      List.concat_map
        (fun lsq ->
          if lsq > ruu then []
          else
            List.concat_map
              (fun dw ->
                List.concat_map
                  (fun iw ->
                    List.map
                      (fun cw ->
                        {
                          (Config.Machine.with_window base ~ruu ~lsq) with
                          decode_width = dw;
                          issue_width = iw;
                          commit_width = cw;
                        })
                      widths)
                  widths)
              widths)
        lsq_sizes)
    ruu_sizes

type row = {
  bench : string;
  points : int;
  ss_best_edp : float;
  candidates : int;
  eds_best_gap : float;
}

let dse_syn_length = max 8_000 (Exp_common.syn_length / 3)
let dse_ref_length = max 50_000 (Exp_common.ref_length / 2)
let max_eds_checks = 12
let max_benches = 4

(* EDP of a result, with a machine that commits nothing ranked last *)
let edp_of (r : Statsim.result) = if r.ipc > 0.0 then r.edp else infinity

let jobs () =
  List.filteri (fun i _ -> i < max_benches) Exp_common.benches
  |> Array.of_list

let exec cache (spec : Workload.Spec.t) =
  let points = grid () in
  let s = Exp_common.src ~length:dse_ref_length spec in
  let evaluated =
    match
      Dse.Driver.evaluate ~cache ~jobs:1 ~length:dse_ref_length
        ~target_length:dse_syn_length ~bench:spec
        ~seeds:[| Exp_common.seed |] (Array.of_list points)
    with
    | Ok results ->
      List.mapi (fun i cfg -> (cfg, edp_of results.(i).(0))) points
    | Error m -> failwith m
  in
  let best_edp =
    List.fold_left (fun acc (_, e) -> Float.min acc e) infinity evaluated
  in
  let candidates =
    List.filter (fun (_, e) -> e <= best_edp *. 1.03) evaluated
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  let to_check = List.filteri (fun i _ -> i < max_eds_checks) candidates in
  let eds_edps =
    List.map
      (fun (cfg, _) -> edp_of (Exp_common.reference cache cfg s))
      to_check
  in
  let eds_at_ss_opt = List.hd eds_edps in
  let eds_best = List.fold_left Float.min infinity eds_edps in
  {
    bench = spec.Workload.Spec.name;
    points = List.length points;
    ss_best_edp = best_edp;
    candidates = List.length candidates;
    eds_best_gap =
      (if eds_best <= 0.0 then 0.0
       else 100.0 *. ((eds_at_ss_opt /. eds_best) -. 1.0));
  }

let reduce _jobs results =
  let open Runner.Report in
  {
    id = "dse";
    blocks =
      [
        Line
          "== Section 4.6: design space exploration (EDP over RUU x LSQ x \
           widths) ==";
        table ~name:"main"
          ~columns:[ "points"; "ss.edp"; "cand<3%"; "gap%" ]
          (List.map
             (fun r ->
               ( r.bench,
                 nums
                   [
                     float_of_int r.points;
                     r.ss_best_edp;
                     float_of_int r.candidates;
                     r.eds_best_gap;
                   ] ))
             (Array.to_list results));
        Line
          "(gap% = EDS-measured EDP excess of the SS-chosen optimum over the \
           best EDS candidate; paper: 0 for 7/10 benchmarks, <=1.24% \
           otherwise)";
        Line "";
      ];
  }

let plan = Runner.Plan.make ~jobs ~exec ~reduce
