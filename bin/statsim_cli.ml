(* Command-line interface to the statistical-simulation framework.

   Subcommands:
     simulate    run statistical and/or execution-driven simulation
     estimate    zero-simulation analytical IPC/mix estimate
     profile     print statistical-profile facts (SFG size, MPKI, ...)
     diag        profile-vs-synthetic-trace divergence diagnostics
     experiment  regenerate one of the paper's tables/figures
     dse         design-space sweep with a CI-aware Pareto frontier report
     serve       long-lived simulation daemon on a Unix/TCP socket
     client      send one request to a running daemon
     list        list workloads and experiments

   simulate, estimate, diag, experiment and dse execute through
   Server.Ops.dispatch — the same dispatcher the daemon runs — so a
   server reply is byte-identical to the one-shot output by
   construction. profile, dot, cache, list, serve, client and top are
   local-only. *)

open Cmdliner
module Json = Telemetry.Json

(* Print an op's result: the report on stdout (the whole result object
   as JSON with [raw], or when it carries no report), warnings and
   diag-check verdicts on stderr. False on a failed check. *)
let print_result ?(raw = false) r =
  (match Json.member "output" r with
  | Some (Json.Str s) when not raw -> print_string s
  | _ -> print_string (Json.to_string r ^ "\n"));
  List.iter (fun w -> Printf.eprintf "%s\n" w) (Server.Ops.warnings r);
  (match Json.member "check_message" r with
  | Some (Json.Str m) -> Printf.eprintf "%s\n" m
  | _ -> ());
  match Json.member "check_ok" r with
  | Some (Json.Bool false) -> false
  | _ -> true

(* One op in-process, printed as [client] prints its reply; exit 2 on a
   rejected request, 1 on a failed check. *)
let run_ops env ~op params =
  match Server.Ops.dispatch env ~op params with
  | Ok r ->
    if not (print_result r) then exit 1;
    r
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

(* The --telemetry epilogue: this process's registry after the report,
   in the report's format. *)
let print_telemetry ~format =
  if Telemetry.enabled () then begin
    let snap = Telemetry.snapshot () in
    if format = "json" then print_string (Telemetry.render_json snap)
    else Telemetry.render_text Format.std_formatter snap
  end

let bench_arg =
  let doc = "Workload name (one of the SPECint stand-ins)." in
  Arg.(value & opt string "gcc" & info [ "b"; "bench" ] ~docv:"NAME" ~doc)

let length_arg =
  let doc = "Reference dynamic instruction stream length." in
  Arg.(value & opt int 300_000 & info [ "n"; "length" ] ~docv:"N" ~doc)

let syn_arg =
  let doc = "Synthetic trace target length." in
  Arg.(value & opt int 40_000 & info [ "s"; "synthetic" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed for synthetic trace generation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let k_arg =
  let doc = "SFG order (0-3): blocks are qualified by K predecessors." in
  Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc)

let k_opt_arg =
  let doc = "SFG order (0-3): blocks are qualified by K predecessors." in
  Arg.(value & opt (some int) None & info [ "k" ] ~docv:"K" ~doc)

(* profile and dot have no Ops twin: they range-check -k here, with the
   message Ops gives *)
let check_k k =
  if k < 0 || k > Profile.Sfg.max_k then begin
    Printf.eprintf "%S must be in [0, %d] (got %d)\n" "k" Profile.Sfg.max_k k;
    exit 2
  end

let spec_of_name name =
  match Workload.Suite.find name with
  | spec -> spec
  | exception Not_found ->
    Printf.eprintf "unknown workload %S; try: %s\n" name
      (String.concat " " Workload.Suite.names);
    exit 2

let save_arg =
  let doc = "Write the collected profile to $(docv) (reloadable with simulate --profile)." in
  Arg.(value & opt (some string) None & info [ "o"; "save" ] ~docv:"FILE" ~doc)

let load_arg =
  let doc = "Reuse a saved profile instead of re-profiling." in
  Arg.(value & opt (some string) None & info [ "p"; "profile" ] ~docv:"FILE" ~doc)

let replicas_arg =
  let doc =
    "Run $(docv) independent replicas (seeds split deterministically from \
     $(b,--seed)) and report mean, stddev and the 95% confidence interval \
     for IPC and the stall-cause fractions instead of a single run."
  in
  Arg.(value & opt (some int) None & info [ "replicas" ] ~docv:"N" ~doc)

let ci_target_arg =
  let doc =
    "Adaptive replication: grow the replica count (doubling from \
     $(b,--replicas), default 4) until the IPC confidence half-width is at \
     most $(docv) percent of the mean."
  in
  Arg.(
    value & opt (some float) None & info [ "ci-target" ] ~docv:"PCT" ~doc)

let cache_dir_arg =
  let doc =
    "Persistent artifact-store directory: statistical profiles and EDS \
     references are published there and answered from disk on later runs, \
     across processes (default: $(b,REPRO_CACHE_DIR); unset = in-memory \
     only)."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

(* Optional-field helpers for building op params. *)
let jnum i = Json.Num (float_of_int i)

let jopt k f v =
  match v with None -> [] | Some v -> [ (k, f v) ]

let simulate_cmd =
  let run bench length syn seed k profile_file replicas ci_target
      stratify no_control_variate strata pilot jobs json cache_dir =
    let params =
      Json.Obj
        ([
           ("bench", Json.Str bench);
           ("length", jnum length);
           ("synthetic", jnum syn);
           ("seed", jnum seed);
           ("stratify", Json.Bool stratify);
           ("control_variate", Json.Bool (not no_control_variate));
           ("json", Json.Bool json);
         ]
        @ jopt "k" jnum k
        @ jopt "profile" (fun s -> Json.Str s) profile_file
        @ jopt "replicas" jnum replicas
        @ jopt "ci_target" (fun v -> Json.Num v) ci_target
        @ jopt "strata" jnum strata
        @ jopt "pilot" jnum pilot)
    in
    let env = Server.Ops.default_env ?jobs ?cache_dir () in
    run_ops env ~op:"simulate" params |> ignore;
    (* with REPRO_TELEMETRY=1: spans, counters and the pipeline's
       per-stage work counters *)
    print_telemetry ~format:(if json then "json" else "text")
  in
  let stratify_arg =
    let doc =
      "Variance-aware replication: partition the replica budget across SFG \
       phase strata (k-means over node behaviour), pilot each stratum, then \
       spend the rest by Neyman allocation; with $(b,--ci-target), \
       $(b,--replicas) caps the total budget (default 64)."
    in
    Arg.(value & flag & info [ "stratify" ] ~doc)
  in
  let no_cv_arg =
    let doc =
      "With $(b,--stratify): disable the analytical control variate and \
       report the plain stratified mean."
    in
    Arg.(value & flag & info [ "no-control-variate" ] ~doc)
  in
  let strata_arg =
    let doc =
      "With $(b,--stratify): force exactly $(docv) strata instead of \
       BIC-selected k-means (up to 4)."
    in
    Arg.(value & opt (some int) None & info [ "strata" ] ~docv:"K" ~doc)
  in
  let pilot_arg =
    let doc = "With $(b,--stratify): pilot replicas per stratum (default 3)." in
    Arg.(value & opt (some int) None & info [ "pilot" ] ~docv:"N" ~doc)
  in
  let jobs_arg =
    let doc = "Worker domains for replicas (never changes the result)." in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Emit the replication report as a JSON document." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let doc = "compare statistical simulation against the execution-driven reference" in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ bench_arg $ length_arg $ syn_arg $ seed_arg $ k_opt_arg
      $ load_arg $ replicas_arg $ ci_target_arg
      $ stratify_arg $ no_cv_arg $ strata_arg $ pilot_arg $ jobs_arg $ json_arg
      $ cache_dir_arg)

(* --- zero-simulation analytical estimate: statsim estimate --- *)

let estimate_cmd =
  let run bench length syn reduction k profile_file json cache_dir =
    let params =
      Json.Obj
        ([
           ("bench", Json.Str bench);
           ("length", jnum length);
           ("synthetic", jnum syn);
           ("json", Json.Bool json);
         ]
        @ jopt "reduction" jnum reduction
        @ jopt "k" jnum k
        @ jopt "profile" (fun s -> Json.Str s) profile_file)
    in
    let env = Server.Ops.default_env ?cache_dir () in
    run_ops env ~op:"estimate" params |> ignore
  in
  let reduction_arg =
    let doc =
      "Estimate at reduction factor $(docv) instead of the \
       $(b,--synthetic) target length."
    in
    Arg.(value & opt (some int) None & info [ "R"; "reduction" ] ~docv:"R" ~doc)
  in
  let json_arg =
    let doc = "Emit the estimate as a JSON document." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let doc =
    "zero-simulation IPC/mix estimate: the first-order analytical model \
     over the reduced SFG, each node weighted by its exact visit count \
     (closed-form, no trace drawn)"
  in
  Cmd.v (Cmd.info "estimate" ~doc)
    Term.(
      const run $ bench_arg $ length_arg $ syn_arg $ reduction_arg $ k_opt_arg
      $ load_arg $ json_arg $ cache_dir_arg)

let force_arg =
  let doc = "Overwrite an existing output file." in
  Arg.(value & flag & info [ "force" ] ~doc)

(* --- fidelity observatory: statsim diag --- *)

let diag_cmd =
  let run bench length syn reduction seed k profile_file json check eds
      cache_dir =
    let params =
      Json.Obj
        ([
           ("bench", Json.Str bench);
           ("length", jnum length);
           ("synthetic", jnum syn);
           ("seed", jnum seed);
           ("json", Json.Bool json);
           ("eds", Json.Bool eds);
         ]
        @ jopt "reduction" jnum reduction
        @ jopt "k" jnum k
        @ jopt "profile" (fun s -> Json.Str s) profile_file
        @ jopt "check" (fun v -> Json.Num v) check)
    in
    let env = Server.Ops.default_env ?cache_dir () in
    run_ops env ~op:"diag" params |> ignore
  in
  let reduction_arg =
    let doc =
      "Generate with reduction factor $(docv) instead of a target length \
       ($(b,-R 1) replays the whole profile; the CI self-check uses it)."
    in
    Arg.(value & opt (some int) None & info [ "R"; "reduction" ] ~docv:"R" ~doc)
  in
  let json_arg =
    let doc = "Emit the report as a JSON document instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let check_arg =
    let doc =
      "Exit non-zero unless every feature's max absolute probability delta \
       is at most $(docv) — the CI fidelity gate."
    in
    Arg.(
      value & opt (some float) None & info [ "check" ] ~docv:"EPS" ~doc)
  in
  let eds_arg =
    let doc =
      "Also run the execution-driven reference and the synthetic trace \
       through the pipeline and report IPC, occupancy and per-cause \
       dispatch-stall deltas."
    in
    Arg.(value & flag & info [ "eds" ] ~doc)
  in
  let doc =
    "compare a synthetic trace's distributions against its statistical \
     profile (KL divergence, chi-square, max probability delta per feature)"
  in
  Cmd.v (Cmd.info "diag" ~doc)
    Term.(
      const run $ bench_arg $ length_arg $ syn_arg $ reduction_arg $ seed_arg
      $ k_opt_arg $ load_arg $ json_arg $ check_arg $ eds_arg $ cache_dir_arg)

let profile_cmd =
  let run bench length k save force =
    check_k k;
    (* fail on a clobber before paying for the profiling pass *)
    (match save with
    | Some path when (not force) && Sys.file_exists path ->
      Printf.eprintf "refusing to overwrite %s (use --force)\n" path;
      exit 1
    | Some _ | None -> ());
    let cfg = Config.Machine.baseline in
    let spec = spec_of_name bench in
    let p = Statsim.profile ~k cfg (Workload.Suite.stream spec ~length) in
    Printf.printf "%s\n" (Workload.Program.stats (Workload.Suite.program spec));
    Printf.printf "profiled instructions:   %d\n" p.instructions;
    Printf.printf "SFG order k:             %d\n" p.k;
    Printf.printf "SFG nodes:               %d\n" (Profile.Sfg.node_count p.sfg);
    Printf.printf "mean basic-block size:   %.2f\n"
      (Profile.Stat_profile.mean_block_size p);
    Printf.printf "branches / mispredicts:  %d / %d (MPKI %.2f)\n" p.branches
      p.mispredicts
      (Profile.Stat_profile.mpki p);
    (* aggregate locality rates *)
    let t = Profile.Sfg.totals p.sfg in
    let pct a b = 100.0 *. a /. Float.max 1.0 b in
    Printf.printf "L1 I-miss rate:          %.2f%%\n"
      (pct t.l1i_misses t.fetches);
    Printf.printf "L1 D-miss rate:          %.2f%%\n"
      (pct t.l1d_misses t.loads);
    match save with
    | None -> ()
    | Some path ->
      Profile.Serialize.save_file p path;
      Printf.printf "profile saved to %s\n" path
  in
  let doc = "collect a statistical profile and print its headline facts" in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ bench_arg $ length_arg $ k_arg $ save_arg $ force_arg)

let format_arg =
  let doc = "Report format: $(b,text) (the paper tables), $(b,csv) or $(b,json)." in
  let formats = List.map (fun f -> (f, f)) Runner.Report.format_names in
  Arg.(
    value & opt (enum formats) "text" & info [ "f"; "format" ] ~docv:"FMT" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for experiment jobs (default: $(b,REPRO_JOBS), or 1 = \
     serial)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let telemetry_arg =
  let doc =
    "Collect pipeline telemetry (per-stage span timers, memo-cache and \
     instruction counters) and print it after the reports — as a JSON \
     document under a $(b,telemetry) key with $(b,--format=json), as a text \
     block otherwise. $(b,REPRO_TELEMETRY=1) enables the same collection \
     process-wide."
  in
  Arg.(value & flag & info [ "telemetry" ] ~doc)

let experiment_cmd =
  let run ids format jobs telemetry cache_dir trace_out diag replicas =
    if telemetry then Telemetry.set_enabled true;
    if trace_out <> None then Telemetry.set_capture true;
    let params =
      Json.Obj
        ([
           ("ids", Json.Arr (List.map (fun id -> Json.Str id) ids));
           ("format", Json.Str format);
           ("diag", Json.Bool diag);
         ]
        @ jopt "replicas" jnum replicas)
    in
    (* one env for the whole selection: references and profiles are
       computed once and shared across experiments *)
    let env = Server.Ops.default_env ?jobs ?cache_dir () in
    run_ops env ~op:"experiment" params |> ignore;
    print_telemetry ~format;
    match trace_out with
    | None -> ()
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string (Telemetry.chrome_trace ()) ^ "\n"));
      Printf.printf "Chrome trace written to %s (load in chrome://tracing)\n"
        path
  in
  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment id(s).")
  in
  let trace_out_arg =
    let doc =
      "Capture per-job runner spans and write them to $(docv) as Chrome \
       trace-event JSON (one track per worker domain; open in \
       chrome://tracing or Perfetto)."
    in
    Arg.(
      value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let diag_arg =
    let doc =
      "After the reports, print a fidelity-observatory divergence report \
       (see $(b,statsim diag)) for every selected workload."
    in
    Arg.(value & flag & info [ "diag" ] ~doc)
  in
  let exp_replicas_arg =
    let doc =
      "After the reports, run $(docv) replicas per workload (seeds \
       split from the experiments' fixed master seed) and print the IPC and \
       stall-fraction dispersion — how much of each table entry is seed \
       noise."
    in
    Arg.(value & opt (some int) None & info [ "replicas" ] ~docv:"N" ~doc)
  in
  let doc = "regenerate one of the paper's tables or figures" in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(
      const run $ ids_arg $ format_arg $ jobs_arg $ telemetry_arg
      $ cache_dir_arg $ trace_out_arg $ diag_arg $ exp_replicas_arg)

(* --- design-space exploration: statsim dse --- *)

let dse_cmd =
  let run sweep_file bench length syn seed replicas jobs format telemetry
      cache_dir max_points pareto_out =
    if telemetry then Telemetry.set_enabled true;
    let params =
      Json.Obj
        ([
           ("sweep", Json.Str sweep_file);
           ("bench", Json.Str bench);
           ("length", jnum length);
           ("synthetic", jnum syn);
           ("seed", jnum seed);
           ("replicas", jnum replicas);
           ("format", Json.Str format);
         ]
        @ jopt "max_points" jnum max_points)
    in
    (* with --cache-dir the sweep's one profile and one plan go through
       the persistent store: a warm store resumes a sweep without
       recollecting anything *)
    let env = Server.Ops.default_env ?jobs ?cache_dir () in
    let r = run_ops env ~op:"dse" params in
    (match pareto_out with
    | None -> ()
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Option.iter (output_string oc)
            (Option.bind (Json.member "pareto_csv" r) Json.to_str));
      (* stderr: --format=json must stay a clean document on stdout *)
      Printf.eprintf "pareto frontier CSV written to %s\n" path);
    print_telemetry ~format
  in
  let sweep_arg =
    let doc =
      "Sweep file (JSON): named $(b,Config.Machine) axes with value lists \
       or log2 ranges, combined with cross/zip. See examples/*.json."
    in
    Arg.(
      required
      & opt (some file) None
      & info [ "sweep" ] ~docv:"FILE" ~doc)
  in
  let dse_replicas_arg =
    let doc =
      "Replicas per design point (seeds split deterministically from \
       $(b,--seed)); the report's CI half-widths and the CI-aware Pareto \
       dominance test need at least 2."
    in
    Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"N" ~doc)
  in
  let max_points_arg =
    let doc =
      "Raise the sweep expansion guard (default: the sweep file's own \
       $(b,max_points), else 4096)."
    in
    Arg.(value & opt (some int) None & info [ "max-points" ] ~docv:"N" ~doc)
  in
  let pareto_out_arg =
    let doc = "Also write the Pareto frontier as CSV to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "pareto-out" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "design-space exploration: expand a sweep file into design points, \
     evaluate them against one profile and compiled plan per distinct \
     cache, predictor and fetch-queue configuration, and report the \
     CI-aware IPC/EDP Pareto frontier"
  in
  Cmd.v (Cmd.info "dse" ~doc)
    Term.(
      const run $ sweep_arg $ bench_arg $ length_arg $ syn_arg $ seed_arg
      $ dse_replicas_arg $ jobs_arg $ format_arg $ telemetry_arg
      $ cache_dir_arg $ max_points_arg $ pareto_out_arg)

let dot_cmd =
  let run bench length k cfg_out sfg_out =
    check_k k;
    let spec = spec_of_name bench in
    let prog = Workload.Suite.program spec in
    (match cfg_out with
    | Some path ->
      Workload.Cfg_dot.to_file prog path;
      Printf.printf "CFG written to %s\n" path
    | None -> ());
    match sfg_out with
    | Some path ->
      let p =
        Statsim.profile ~k Config.Machine.baseline
          (Workload.Suite.stream spec ~length)
      in
      Profile.Sfg_dot.to_file p path;
      Printf.printf "SFG written to %s\n" path
    | None -> ()
  in
  let cfg_arg =
    Arg.(value & opt (some string) None & info [ "cfg" ] ~docv:"FILE"
           ~doc:"Write the program's control-flow graph as Graphviz dot.")
  in
  let sfg_arg =
    Arg.(value & opt (some string) None & info [ "sfg" ] ~docv:"FILE"
           ~doc:"Profile the workload and write the SFG as Graphviz dot.")
  in
  let doc = "export control-flow / statistical-flow graphs as Graphviz dot" in
  Cmd.v (Cmd.info "dot" ~doc)
    Term.(const run $ bench_arg $ length_arg $ k_arg $ cfg_arg $ sfg_arg)

(* --- cache maintenance: statsim cache stats|gc|clear --- *)

let open_store cache_dir =
  let dir =
    match cache_dir with
    | Some d -> d
    | None -> (
      match Sys.getenv_opt "REPRO_CACHE_DIR" with
      | Some d when d <> "" -> d
      | Some _ | None ->
        prerr_endline
          "no cache directory: pass --cache-dir or set REPRO_CACHE_DIR";
        exit 2)
  in
  Store.open_root dir

let cache_cmd =
  let stats_cmd =
    let run cache_dir =
      let s = open_store cache_dir in
      let d = Store.disk_stats s in
      Printf.printf "cache directory:     %s\n" (Store.root s);
      Printf.printf "entries:             %d\n" d.Store.entries;
      Printf.printf "total bytes:         %d\n" d.Store.total_bytes;
      Printf.printf "quarantined entries: %d\n" d.Store.quarantine_entries
    in
    let doc = "print entry count and byte totals of the artifact store" in
    Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ cache_dir_arg)
  in
  let gc_cmd =
    let run cache_dir max_bytes =
      let s = open_store cache_dir in
      let evicted, freed = Store.gc s ~max_bytes in
      let d = Store.disk_stats s in
      Printf.printf "evicted %d entr%s (%d bytes); %d entr%s (%d bytes) remain\n"
        evicted
        (if evicted = 1 then "y" else "ies")
        freed d.Store.entries
        (if d.Store.entries = 1 then "y" else "ies")
        d.Store.total_bytes
    in
    let max_bytes_arg =
      let doc =
        "Byte budget: evict least-recently-used entries until the store \
         fits."
      in
      Arg.(
        required
        & opt (some int) None
        & info [ "max-bytes" ] ~docv:"BYTES" ~doc)
    in
    let doc = "shrink the artifact store to a byte budget (LRU by atime)" in
    Cmd.v (Cmd.info "gc" ~doc) Term.(const run $ cache_dir_arg $ max_bytes_arg)
  in
  let clear_cmd =
    let run cache_dir =
      let s = open_store cache_dir in
      Store.clear s;
      Printf.printf "cleared %s\n" (Store.root s)
    in
    let doc = "remove every entry from the artifact store" in
    Cmd.v (Cmd.info "clear" ~doc) Term.(const run $ cache_dir_arg)
  in
  let doc = "inspect and maintain the persistent artifact store" in
  Cmd.group (Cmd.info "cache" ~doc) [ stats_cmd; gc_cmd; clear_cmd ]

(* --- simulation service: statsim serve / statsim client --- *)

let socket_arg =
  let doc =
    "Unix-domain socket path (daemon: listen here; client: connect here)."
  in
  Arg.(
    value & opt string "./statsim.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let run socket tcp_port workers queue jobs cache_dir max_frame telemetry
      no_obs access_log log_sample =
    if telemetry then Telemetry.set_enabled true;
    let cfg =
      {
        (Server.Daemon.default_config ~socket_path:socket) with
        Server.Daemon.tcp = Option.map (fun p -> ("127.0.0.1", p)) tcp_port;
        workers;
        queue_depth = queue;
        jobs = Option.value jobs ~default:1;
        cache_dir;
        max_frame;
        obs = not no_obs;
        access_log;
        log_sample;
      }
    in
    match Server.Daemon.serve cfg with
    | () -> ()
    | exception Failure msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let tcp_port_arg =
    let doc = "Also listen on 127.0.0.1:$(docv) (TCP)." in
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)
  in
  let workers_arg =
    let doc = "Worker domains executing requests." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Admission-queue depth; further requests are shed with a structured \
       $(b,overloaded) reply."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let max_frame_arg =
    let doc = "Largest accepted request frame payload, in bytes." in
    Arg.(
      value
      & opt int Server.Frame.default_max_payload
      & info [ "max-frame" ] ~docv:"BYTES" ~doc)
  in
  let telemetry_arg =
    let doc =
      "Collect telemetry (per-request spans, server.* counters) for the \
       daemon's lifetime."
    in
    Arg.(value & flag & info [ "telemetry" ] ~doc)
  in
  let no_obs_arg =
    let doc =
      "Disable the serve observability plane (per-op rolling p50/p95/p99 \
       windows, deadline-miss and shed ratios, in-flight gauge — the \
       $(b,metrics) op). On by default; disabled, every hook is a single \
       atomic flag read."
    in
    Arg.(value & flag & info [ "no-obs" ] ~doc)
  in
  let access_log_arg =
    let doc =
      "Append one JSON line per request (id, op, outcome, queue_ns, \
       service_ns, bytes, traced) to $(docv); flushed on SIGTERM drain."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"PATH" ~doc)
  in
  let log_sample_arg =
    let doc = "Keep every $(docv)-th access-log line (1 = keep all)." in
    Arg.(value & opt int 1 & info [ "log-sample" ] ~docv:"N" ~doc)
  in
  let doc =
    "run the simulation-as-a-service daemon: all clients share one hot \
     profile/plan/EDS cache; SIGTERM/SIGINT drain gracefully"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ tcp_port_arg $ workers_arg $ queue_arg
      $ jobs_arg $ cache_dir_arg $ max_frame_arg $ telemetry_arg $ no_obs_arg
      $ access_log_arg $ log_sample_arg)

(* client / top shared: connect over the Unix socket or --tcp HOST:PORT *)
let connect_service ~socket ~tcp =
  match tcp with
  | None -> Server.Client.connect ~socket
  | Some hp -> (
    match String.rindex_opt hp ':' with
    | Some i ->
      let host = String.sub hp 0 i in
      let port =
        match
          int_of_string_opt (String.sub hp (i + 1) (String.length hp - i - 1))
        with
        | Some p -> p
        | None -> failwith ("bad --tcp " ^ hp)
      in
      Server.Client.connect_tcp ~host ~port
    | None -> failwith ("bad --tcp " ^ hp))

let tcp_arg =
  let doc = "Connect over TCP instead of the Unix socket." in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let client_cmd =
  let run socket tcp op params_str deadline_ms repeat parallel raw =
    let params =
      match Json.of_string params_str with
      | Ok j -> j
      | Error e ->
        Printf.eprintf "bad --params: %s\n" e;
        exit 2
    in
    let connect () = connect_service ~socket ~tcp in
    (* one connection per worker thread, [repeat] calls on it; replies
       are printed after all joins, in worker order, so output is
       deterministic under --parallel *)
    let one () =
      match connect () with
      | exception Unix.Unix_error (e, _, _) ->
        Error
          (Printf.sprintf "cannot connect to %s: %s" socket
             (Unix.error_message e))
      | exception Failure m -> Error m
      | c ->
        Fun.protect
          ~finally:(fun () -> Server.Client.close c)
          (fun () ->
            let rec go i acc =
              if i >= repeat then Ok (List.rev acc)
              else
                match Server.Client.call c ?deadline_ms ~op params with
                | Error e -> Error e
                | Ok r -> go (i + 1) (r :: acc)
            in
            go 0 [])
    in
    let print_reply (r : Server.Protocol.reply) =
      match r.Server.Protocol.outcome with
      | Error (code, msg) ->
        Printf.eprintf "error %s: %s\n" (Server.Protocol.code_name code) msg;
        false
      | Ok result -> print_result ~raw result
    in
    let results =
      if parallel <= 1 then [| one () |]
      else begin
        let results = Array.make parallel (Error "not run") in
        let threads =
          Array.init parallel
            (fun i -> Thread.create (fun () -> results.(i) <- one ()) ())
        in
        Array.iter Thread.join threads;
        results
      end
    in
    let ok =
      Array.fold_left
        (fun ok -> function
          | Error e ->
            Printf.eprintf "%s\n" e;
            false
          | Ok replies -> List.fold_left (fun ok r -> print_reply r && ok) ok replies)
        true results
    in
    if not ok then exit 1
  in
  let op_arg =
    let doc =
      Printf.sprintf "Request op: one of %s."
        (String.concat ", " Server.Ops.op_names)
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let params_arg =
    let doc = "Op parameters as a JSON object." in
    Arg.(value & opt string "{}" & info [ "params" ] ~docv:"JSON" ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-request deadline; an expired request answers \
       $(b,deadline_exceeded)."
    in
    Arg.(
      value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let repeat_arg =
    let doc = "Send the request $(docv) times on one connection." in
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc)
  in
  let parallel_arg =
    let doc =
      "Fire the request from $(docv) concurrent connections (each doing \
       $(b,--repeat) calls); output is printed in connection order."
    in
    Arg.(value & opt int 1 & info [ "parallel" ] ~docv:"N" ~doc)
  in
  let raw_arg =
    let doc =
      "Print the full result object as JSON instead of the $(b,output) \
       field — exposes structured members such as an opt-in request's \
       $(b,trace) span tree."
    in
    Arg.(value & flag & info [ "raw" ] ~doc)
  in
  let doc = "send one request to a running statsim serve daemon" in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ socket_arg $ tcp_arg $ op_arg $ params_arg $ deadline_arg
      $ repeat_arg $ parallel_arg $ raw_arg)

let top_cmd =
  let num j k =
    match Option.bind (Json.member k j) Json.to_num with
    | Some v -> v
    | None -> 0.0
  in
  let render m =
    let b = Buffer.create 1024 in
    Printf.bprintf b "statsim top — inflight %d, queue depth %d\n\n"
      (int_of_float (num m "inflight"))
      (int_of_float (num m "queue_depth"));
    Printf.bprintf b "%-12s %8s %8s %6s | %8s %8s %9s %9s %9s %9s %6s %6s\n"
      "OP" "REQS" "OK" "ERR" "1m REQS" "REQ/S" "P50 ms" "P95 ms" "P99 ms"
      "QP95 ms" "MISS%" "SHED%";
    (match Json.member "ops" m with
    | Some (Json.Arr ops) ->
      List.iter
        (fun o ->
          let op =
            match Option.bind (Json.member "op" o) Json.to_str with
            | Some s -> s
            | None -> "?"
          in
          let requests = num o "requests" in
          let ok =
            match Json.member "outcomes" o with
            | Some oc -> num oc "ok"
            | None -> 0.0
          in
          let w1 =
            match Json.member "windows" o with
            | Some w -> Json.member "1m" w
            | None -> None
          in
          let w1 = Option.value w1 ~default:(Json.Obj []) in
          let w1_reqs = num w1 "requests" in
          let service = Option.value (Json.member "service" w1)
              ~default:(Json.Obj []) in
          let queue = Option.value (Json.member "queue" w1)
              ~default:(Json.Obj []) in
          let ms ns = ns /. 1e6 in
          Printf.bprintf b
            "%-12s %8.0f %8.0f %6.0f | %8.0f %8.2f %9.3f %9.3f %9.3f %9.3f \
             %6.2f %6.2f\n"
            op requests ok (requests -. ok) w1_reqs (w1_reqs /. 60.0)
            (ms (num service "p50_ns"))
            (ms (num service "p95_ns"))
            (ms (num service "p99_ns"))
            (ms (num queue "p95_ns"))
            (100.0 *. num w1 "deadline_miss_ratio")
            (100.0 *. num w1 "shed_ratio"))
        ops
    | _ -> ());
    Buffer.contents b
  in
  let run socket tcp interval count =
    let once () =
      match connect_service ~socket ~tcp with
      | exception Unix.Unix_error (e, _, _) ->
        Error
          (Printf.sprintf "cannot connect to %s: %s" socket
             (Unix.error_message e))
      | exception Failure m -> Error m
      | c ->
        Fun.protect
          ~finally:(fun () -> Server.Client.close c)
          (fun () ->
            match Server.Client.call c ~op:"metrics" (Json.Obj []) with
            | Error e -> Error e
            | Ok r -> (
              match r.Server.Protocol.outcome with
              | Error (code, msg) ->
                Error
                  (Printf.sprintf "error %s: %s"
                     (Server.Protocol.code_name code) msg)
              | Ok result -> (
                match Json.member "metrics" result with
                | Some m -> Ok m
                | None -> Error "reply carries no metrics object")))
    in
    let rec loop i =
      match once () with
      | Error e ->
        Printf.eprintf "%s\n" e;
        exit 1
      | Ok m ->
        (* one-shot prints plainly; a refreshing session clears first *)
        if count <> 1 then print_string "\027[2J\027[H";
        print_string (render m);
        flush stdout;
        if count = 0 || i < count then begin
          (try Unix.sleepf interval
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop (i + 1)
        end
    in
    loop 1
  in
  let interval_arg =
    let doc = "Seconds between polls." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let count_arg =
    let doc = "Stop after $(docv) polls (0 = run until interrupted)." in
    Arg.(value & opt int 0 & info [ "count" ] ~docv:"N" ~doc)
  in
  let doc =
    "live per-op latency/throughput table for a running statsim serve \
     daemon (polls the $(b,metrics) op)"
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const run $ socket_arg $ tcp_arg $ interval_arg $ count_arg)

let list_cmd =
  let run () =
    Printf.printf "workloads:\n  %s\n\nexperiments:\n"
      (String.concat " " Workload.Suite.names);
    List.iter
      (fun (e : Experiments.Registry.entry) ->
        Printf.printf "  %-8s %s\n" e.id e.description)
      Experiments.Registry.all
  in
  let doc = "list available workloads and experiments" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let () =
  let doc = "statistical simulation for processor design studies (ISCA 2004 reproduction)" in
  let info = Cmd.info "statsim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [ simulate_cmd; estimate_cmd; profile_cmd; diag_cmd; experiment_cmd;
         dse_cmd; serve_cmd; client_cmd; top_cmd; cache_cmd; dot_cmd;
         list_cmd ]))
