type ctx = { cache : Cache.t; jobs : int }

(* Per-plan and per-job spans: job totals accumulate across worker
   domains, so plan wall-clock < job total signals real parallelism. *)
let span_plan = Telemetry.span "runner.plan"
let span_job = Telemetry.span "runner.job"
let g_domains = Telemetry.gauge "runner.domains"

let default_cache_dir () =
  match Sys.getenv_opt "REPRO_CACHE_DIR" with
  | Some d when d <> "" -> Some d
  | Some _ | None -> None

let create_ctx ?jobs ?cache_dir () =
  let jobs = match jobs with Some j -> j | None -> Parallel.default_jobs () in
  let cache_dir =
    match cache_dir with Some _ -> cache_dir | None -> default_cache_dir ()
  in
  let store = Option.map Store.open_root cache_dir in
  { cache = Cache.create ?store (); jobs = max 1 jobs }

let run ?(label = "plan") ctx (Plan.Pack p) =
  Telemetry.set_gauge g_domains (float_of_int ctx.jobs);
  Telemetry.time span_plan (fun () ->
      let jobs = p.jobs () in
      let results =
        Parallel.map ~jobs:ctx.jobs
          (fun (i, job) ->
            Telemetry.time span_job (fun () ->
                if Telemetry.capturing () then
                  Telemetry.with_event
                    (Printf.sprintf "%s.job%d" label i)
                    (fun () -> p.exec ctx.cache job)
                else p.exec ctx.cache job))
          (Array.mapi (fun i job -> (i, job)) jobs)
      in
      p.reduce jobs results)
