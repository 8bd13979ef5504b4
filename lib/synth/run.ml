(* Stage telemetry: synthetic-trace out-of-order simulation. *)
let span_simulate = Telemetry.span "synth.simulate"
let c_instructions = Telemetry.counter "synth.simulated_instructions"

let run ?wrong_path_locality ?skip_idle cfg (trace : Trace.t) =
  Telemetry.time span_simulate (fun () ->
      let feed =
        Uarch.Trace_feed.create ?wrong_path_locality cfg ~code:trace.code
          ~deps:trace.deps
      in
      let m = Uarch.Pipeline.run ?skip_idle cfg (Uarch.Pipeline.Trace feed) in
      Telemetry.add c_instructions m.Uarch.Metrics.committed;
      m)

let mean_ipc metrics =
  let insts =
    List.fold_left (fun acc (m : Uarch.Metrics.t) -> acc + m.committed) 0 metrics
  in
  let cycles =
    List.fold_left (fun acc (m : Uarch.Metrics.t) -> acc + m.cycles) 0 metrics
  in
  if cycles = 0 then 0.0 else float_of_int insts /. float_of_int cycles
