module P = Uarch.Pipeline.Make (Synth_feed)

(* Stage telemetry: synthetic-trace out-of-order simulation. The
   streamed variant gets its own span because its time includes the
   interleaved generation work (there is no separate generate pass). *)
let span_simulate = Telemetry.span "synth.simulate"
let span_stream = Telemetry.span "synth.simulate_stream"
let c_instructions = Telemetry.counter "synth.simulated_instructions"

let simulate span ?skip_idle cfg feed =
  Telemetry.time span (fun () ->
      let m = P.run ?skip_idle cfg feed in
      Telemetry.add c_instructions m.Uarch.Metrics.committed;
      m)

let run ?wrong_path_locality ?skip_idle cfg trace =
  simulate span_simulate ?skip_idle cfg
    (Synth_feed.of_trace ?wrong_path_locality cfg trace)

let run_stream ?wrong_path_locality ?reduction ?target_length cfg p ~seed =
  simulate span_stream cfg
    (Synth_feed.of_stream ?wrong_path_locality cfg
       (Generate.stream ?reduction ?target_length p ~seed))

let run_stream_of_plan ?wrong_path_locality cfg plan ~seed =
  simulate span_stream cfg
    (Synth_feed.of_stream ?wrong_path_locality cfg
       (Generate.stream_of_plan plan ~seed))

let mean_ipc metrics =
  let insts =
    List.fold_left (fun acc (m : Uarch.Metrics.t) -> acc + m.committed) 0 metrics
  in
  let cycles =
    List.fold_left (fun acc (m : Uarch.Metrics.t) -> acc + m.cycles) 0 metrics
  in
  if cycles = 0 then 0.0 else float_of_int insts /. float_of_int cycles
