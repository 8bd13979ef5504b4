module P = Uarch.Pipeline.Make (Synth_feed)
module P_stream = Uarch.Pipeline.Make (Stream_feed)

(* Stage telemetry: synthetic-trace out-of-order simulation. The
   streamed variant gets its own span because its time includes the
   interleaved generation work (there is no separate generate pass). *)
let span_simulate = Telemetry.span "synth.simulate"
let span_stream = Telemetry.span "synth.simulate_stream"
let c_instructions = Telemetry.counter "synth.simulated_instructions"

let run ?wrong_path_locality ?skip_idle cfg trace =
  Telemetry.time span_simulate (fun () ->
      let m =
        P.run ?skip_idle cfg
          (Synth_feed.create ?wrong_path_locality cfg trace)
      in
      Telemetry.add c_instructions m.Uarch.Metrics.committed;
      m)

let run_of_stream ?wrong_path_locality ?window cfg s =
  Telemetry.time span_stream (fun () ->
      let feed = Stream_feed.of_stream ?wrong_path_locality ?window cfg s in
      let m = P_stream.run cfg feed in
      Telemetry.add c_instructions m.Uarch.Metrics.committed;
      m)

let run_stream ?wrong_path_locality ?window ?reduction ?target_length cfg p
    ~seed =
  run_of_stream ?wrong_path_locality ?window cfg
    (Generate.stream ?reduction ?target_length p ~seed)

let run_stream_of_plan ?wrong_path_locality ?window cfg plan ~seed =
  run_of_stream ?wrong_path_locality ?window cfg
    (Generate.stream_of_plan plan ~seed)

let mean_ipc metrics =
  let insts =
    List.fold_left (fun acc (m : Uarch.Metrics.t) -> acc + m.committed) 0 metrics
  in
  let cycles =
    List.fold_left (fun acc (m : Uarch.Metrics.t) -> acc + m.cycles) 0 metrics
  in
  if cycles = 0 then 0.0 else float_of_int insts /. float_of_int cycles
