module P = Uarch.Pipeline.Make (Synth_feed)

(* Stage telemetry: synthetic-trace out-of-order simulation. *)
let span_simulate = Telemetry.span "synth.simulate"
let c_instructions = Telemetry.counter "synth.simulated_instructions"

let run ?wrong_path_locality ?skip_idle cfg trace =
  Telemetry.time span_simulate (fun () ->
      let m =
        P.run ?skip_idle cfg (Synth_feed.of_trace ?wrong_path_locality cfg trace)
      in
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
