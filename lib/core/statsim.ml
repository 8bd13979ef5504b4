type result = {
  ipc : float;
  epc : float;
  edp : float;
  metrics : Uarch.Metrics.t;
}

let result_of_metrics cfg (m : Uarch.Metrics.t) =
  let model = Power.Model.create cfg in
  let ipc = Uarch.Metrics.ipc m in
  let epc = Power.Model.epc model m.activity in
  let edp = if ipc > 0.0 then Power.Model.edp ~epc ~ipc else 0.0 in
  { ipc; epc; edp; metrics = m }

let profile ?k ?dep_cap ?branch_mode ?perfect_caches ?perfect_bpred cfg gen =
  Profile.Stat_profile.collect ?k ?dep_cap ?branch_mode ?perfect_caches
    ?perfect_bpred cfg gen

let compile_plan ?reduction ?target_length p =
  Kernel.Compile.plan ?reduction ?target_length p

let synthesize ?reduction ?target_length p ~seed =
  Synth.Generate.generate ?reduction ?target_length p ~seed

let simulate cfg trace = result_of_metrics cfg (Synth.Run.run cfg trace)

let run_profile ?reduction ?target_length cfg p ~seed =
  simulate cfg (synthesize ?reduction ?target_length p ~seed)

let run_plan cfg plan ~seed =
  result_of_metrics cfg (Synth.Run.run_stream_of_plan cfg plan ~seed)

let run ?k ?dep_cap ?branch_mode ?perfect_caches ?perfect_bpred ?reduction
    ?target_length cfg gen ~seed =
  let p =
    profile ?k ?dep_cap ?branch_mode ?perfect_caches ?perfect_bpred cfg gen
  in
  run_profile ?reduction ?target_length cfg p ~seed

let reference ?max_instructions ?perfect_caches ?perfect_bpred cfg gen =
  result_of_metrics cfg
    (Uarch.Eds.run ?max_instructions ?perfect_caches ?perfect_bpred cfg gen)
