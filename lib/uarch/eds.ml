(* Stage telemetry: execution-driven (reference) simulation. *)
let span_run = Telemetry.span "uarch.eds"
let c_instructions = Telemetry.counter "uarch.eds_instructions"

let run ?max_instructions ?commit_hook ?perfect_caches ?perfect_bpred cfg gen =
  Telemetry.time span_run (fun () ->
      let feed = Eds_feed.create ?perfect_caches ?perfect_bpred cfg gen in
      let metrics =
        Pipeline.run ?max_instructions ?commit_hook cfg (Pipeline.Eds feed)
      in
      Telemetry.add c_instructions metrics.Metrics.committed;
      metrics)
