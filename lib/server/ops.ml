module Json = Telemetry.Json

exception Cancelled
exception Deadline_exceeded

type env = {
  cache : Runner.Cache.t;
  jobs : int;
  check : unit -> unit;
  trace : Telemetry.Trace.t option;
}

let default_env ?jobs ?cache_dir ?(check = fun () -> ()) () =
  let ctx = Runner.Exec.create_ctx ?jobs ?cache_dir () in
  {
    cache = ctx.Runner.Exec.cache;
    jobs = ctx.Runner.Exec.jobs;
    check;
    trace = None;
  }

(* Run a stage under a named child span of the request's trace; exactly
   [f ()] for untraced requests. *)
let tspan env name f =
  match env.trace with
  | None -> f ()
  | Some tr -> Telemetry.Trace.span tr name f

let op_names =
  [
    "ping"; "cache-stats"; "simulate"; "replicate"; "estimate"; "diag";
    "experiment"; "dse"; "sleep"; "telemetry"; "metrics";
  ]

(* --- params decoding --- *)

exception Bad_param of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_param m)) fmt

let int_exn ~what = function
  | Json.Num v when Float.is_integer v && Float.abs v < 1e15 ->
    int_of_float v
  | _ -> bad "%S must be an integral number" what

let opt_field params k decode =
  match Json.member k params with
  | None | Some Json.Null -> None
  | Some j -> Some (decode ~what:k j)

let int_opt params k = opt_field params k int_exn

let int_def params k default =
  Option.value (int_opt params k) ~default

let float_opt params k =
  opt_field params k (fun ~what -> function
    | Json.Num v -> v
    | _ -> bad "%S must be a number" what)

let str_opt params k =
  opt_field params k (fun ~what -> function
    | Json.Str s -> s
    | _ -> bad "%S must be a string" what)

let str_def params k default = Option.value (str_opt params k) ~default

let bool_def params k default =
  Option.value
    (opt_field params k (fun ~what -> function
       | Json.Bool b -> b
       | _ -> bad "%S must be a boolean" what))
    ~default

(* Range checks: an out-of-range value is a client mistake, rejected as
   a bad request here instead of escaping an engine as
   [Invalid_argument]. *)
let in_range ?(hi = max_int) lo k v =
  if v < lo || v > hi then
    if hi = max_int then bad "%S must be >= %d (got %d)" k lo v
    else bad "%S must be in [%d, %d] (got %d)" k lo hi v;
  v

let int_min params k ~min default = in_range min k (int_def params k default)
let int_opt_min params k ~min = Option.map (in_range min k) (int_opt params k)

let k_opt params =
  Option.map (in_range ~hi:Profile.Sfg.max_k 0 "k") (int_opt params "k")

(* Every op's replica count: a request holds its replicas' traces at
   once, so one bound keeps any one request's memory in reach. *)
let replicas_opt params =
  Option.map
    (in_range ~hi:Synth.Replicate.max_replicas 1 "replicas")
    (int_opt params "replicas")

let str_list params k =
  match Json.member k params with
  | None | Some Json.Null -> []
  | Some (Json.Arr items) ->
    List.map
      (function Json.Str s -> s | _ -> bad "%S must be an array of strings" k)
      items
  | Some _ -> bad "%S must be an array of strings" k

let format_param params =
  let name = str_def params "format" "text" in
  match Runner.Report.format_of_string name with
  | Some f -> f
  | None ->
    bad "unknown format %S (one of: %s)" name
      (String.concat " " Runner.Report.format_names)

let ok_exn = function Ok v -> v | Error m -> raise (Bad_param m)

(* --- shared pieces --- *)

let find_spec name =
  match Workload.Suite.find name with
  | spec -> spec
  | exception Not_found ->
    bad "unknown workload %S; try: %s" name
      (String.concat " " Workload.Suite.names)

(* A profile either loaded from a file (with the CLI's -k mismatch
   warning) or collected through the shared cache. *)
let collect_profile env ~warn cfg ~bench ~length ~k ~profile_file =
  tspan env "cache.profile" @@ fun () ->
  match profile_file with
  | Some path ->
    let p =
      (* a missing, truncated or corrupt file is the client's mistake;
         the decoder fails with [Failure] only *)
      match Profile.Serialize.load_file path with
      | p -> p
      | exception (Sys_error m | Failure m) ->
        bad "%S could not be loaded: %s" "profile" m
    in
    (match k with
    | Some k when k <> p.Profile.Stat_profile.k ->
      warn
        (Printf.sprintf
           "warning: -k %d ignored: profile %s was collected with k=%d" k path
           p.Profile.Stat_profile.k)
    | Some _ | None -> ());
    p
  | None ->
    let spec = find_spec bench in
    Runner.Cache.profile env.cache ?k cfg
      ~stream_key:(Workload.Suite.stream_key bench ~length) (fun () ->
        Workload.Suite.stream spec ~length)

(* The compiled plan of a profile needed only to reach it: through the
   shared cache, a stored plan answers without the profile being
   decoded; a profile file is loaded and compiled as before. *)
let profile_plan env ~warn cfg ~bench ~length ~k ~profile_file ~target_length
    =
  match profile_file with
  | Some _ ->
    let p = collect_profile env ~warn cfg ~bench ~length ~k ~profile_file in
    ok_exn (Kernel.Compile.check_survivors ~target_length p);
    env.check ();
    tspan env "cache.plan" (fun () ->
        Runner.Cache.plan env.cache ~target_length p)
  | None ->
    let spec = find_spec bench in
    tspan env "cache.plan" (fun () ->
        ok_exn
          (Runner.Cache.profile_plan env.cache ?k cfg
             ~stream_key:(Workload.Suite.stream_key bench ~length)
             ~target_length (fun () -> Workload.Suite.stream spec ~length)))

let result_obj ?(extra = []) ~warnings buf =
  let fields = [ ("output", Json.Str (Buffer.contents buf)) ] @ extra in
  let fields =
    match List.rev warnings with
    | [] -> fields
    | ws -> fields @ [ ("warnings", Json.Arr (List.map (fun w -> Json.Str w) ws)) ]
  in
  Ok (Json.Obj fields)

(* --- simulate / replicate --- *)

(* [force_replicas] is the `replicate` op: same engine, but always the
   multi-seed dispersion report (default 4 replicas, or the stratified
   engine's own default budget with "stratify"). *)
let simulate env ~force_replicas params =
  let bench = str_def params "bench" "gcc" in
  let length = int_min params "length" ~min:1 300_000 in
  let syn = int_min params "synthetic" ~min:1 40_000 in
  let seed = int_def params "seed" 42 in
  let k = k_opt params in
  let profile_file = str_opt params "profile" in
  let stratify = bool_def params "stratify" false in
  let replicas =
    match replicas_opt params with
    | Some n -> Some n
    | None -> if force_replicas && not stratify then Some 4 else None
  in
  let ci_target =
    Option.map
      (fun v ->
        if not (v > 0.0) then bad "%S must be positive (got %g)" "ci_target" v;
        v)
      (float_opt params "ci_target")
  in
  (* blind adaptive replication doubles from [replicas] up to
     Replicate.max_replicas *)
  (match (ci_target, replicas) with
  | Some _, Some n when (not stratify) && n < 2 ->
    bad "%S starts the %S doubling and must be in [2, %d] (got %d)"
      "replicas" "ci_target" Synth.Replicate.max_replicas n
  | _ -> ());
  let control_variate = bool_def params "control_variate" true in
  let strata = int_opt_min params "strata" ~min:1 in
  let pilot = int_opt_min params "pilot" ~min:2 in
  let json = bool_def params "json" false in
  let cfg = Config.Machine.baseline in
  let warnings = ref [] in
  let warn m = warnings := m :: !warnings in
  let plan () =
    profile_plan env ~warn cfg ~bench ~length ~k ~profile_file
      ~target_length:syn
  in
  let buf = Buffer.create 512 in
  (match (replicas, ci_target) with
  | None, None when not stratify ->
    let spec = find_spec bench in
    env.check ();
    let eds =
      tspan env "cache.reference" (fun () ->
          Runner.Cache.reference env.cache cfg
            ~stream_key:(Workload.Suite.stream_key bench ~length) (fun () ->
              Workload.Suite.stream spec ~length))
    in
    env.check ();
    let ss =
      (* the cached plan samples bit-identically to a fresh
         Generate.generate, so this equals the one-shot
         Statsim.run_profile path byte-for-byte *)
      let plan = plan () in
      env.check ();
      tspan env "simulate.run" (fun () -> Statsim.run_plan cfg plan ~seed)
    in
    Printf.bprintf buf "%-22s %10s %10s %8s\n" "" "EDS" "statsim" "error";
    let line name get =
      Printf.bprintf buf "%-22s %10.3f %10.3f %7.1f%%\n" name (get eds)
        (get ss)
        (100.0
        *. Stats.Summary.absolute_error ~reference:(get eds)
             ~predicted:(get ss))
    in
    line "IPC" (fun r -> r.Statsim.ipc);
    line "EPC" (fun r -> r.Statsim.epc);
    line "EDP" (fun r -> r.Statsim.edp);
    Printf.bprintf buf "%-22s %10.2f %10.2f\n" "MPKI"
      (Uarch.Metrics.mpki eds.Statsim.metrics)
      (Uarch.Metrics.mpki ss.Statsim.metrics)
  | _ when stratify ->
    (* variance-aware replication: stratified seeds + control variate *)
    let p = collect_profile env ~warn cfg ~bench ~length ~k ~profile_file in
    ok_exn (Kernel.Compile.check_survivors ~target_length:syn p);
    env.check ();
    (* the fixed budget, or the cap an adaptive run doubles up to *)
    let default =
      if ci_target = None then 16 else Synth.Replicate.max_replicas
    in
    (* the analytical IPC the report carries is the `estimate` op's
       memo entry for this profile, machine and reduction *)
    let analytical ~reduction =
      (Runner.Cache.estimate env.cache ~reduction cfg p).ipc
    in
    let r =
      tspan env "replicate.run" (fun () ->
          Synth.Stratify.run ~jobs:env.jobs ~check:env.check
            ~target_length:syn ?strata ?pilot ~control_variate ?ci_target cfg
            p ~analytical ~master_seed:seed
            ~replicas:(Option.value replicas ~default))
    in
    tspan env "render" (fun () ->
        Buffer.add_string buf
          (if json then Json.to_string (Synth.Stratify.to_json r) ^ "\n"
           else Format.asprintf "%a" Synth.Stratify.render_text r))
  | _ ->
    (* replication mode: dispersion across seeds, no EDS reference *)
    let plan = plan () in
    env.check ();
    let r =
      tspan env "replicate.run" (fun () ->
          Synth.Replicate.run ~jobs:env.jobs ~check:env.check ?ci_target cfg
            plan ~master_seed:seed
            ~replicas:(Option.value replicas ~default:4))
    in
    tspan env "render" (fun () ->
        Buffer.add_string buf
          (if json then Json.to_string (Synth.Replicate.to_json r) ^ "\n"
           else Format.asprintf "%a" Synth.Replicate.render_text r)));
  result_obj ~warnings:!warnings buf

(* --- estimate --- *)

let estimate_json (e : Analytical.estimate) =
  Json.Obj
    [
      ("nodes", Json.Num (float_of_int e.nodes));
      ( "mix",
        Json.Obj
          (List.map
             (fun (c, share) -> (Isa.Iclass.to_string c, Json.Num share))
             e.mix) );
      ( "cpi",
        Json.Obj
          [
            ("base", Json.Num e.breakdown.base_cpi);
            ("branch", Json.Num e.breakdown.branch_cpi);
            ("imem", Json.Num e.breakdown.imem_cpi);
            ("dmem", Json.Num e.breakdown.dmem_cpi);
            ("total", Json.Num e.breakdown.total_cpi);
          ] );
      ("ipc", Json.Num e.ipc);
    ]

let render_estimate buf (e : Analytical.estimate) =
  Printf.bprintf buf "analytical estimate: %d nodes\n" e.nodes;
  Buffer.add_string buf
    (Format.asprintf "%a" Analytical.pp_breakdown e.breakdown);
  Buffer.add_char buf '\n';
  Buffer.add_string buf "  mix:";
  List.iter
    (fun (c, share) ->
      if share > 0.0005 then
        Printf.bprintf buf " %s %.1f%%" (Isa.Iclass.to_string c)
          (100.0 *. share))
    e.mix;
  Buffer.add_char buf '\n';
  Printf.bprintf buf "  estimated IPC %.4f\n" e.ipc

(* Zero-simulation instant answer: the analytical model over the
   reduced graph's visit counts. The profile comes through the shared
   cache (the only slow part), the estimate through its own memo tier.
   The span keeps its name [estimate.solve], which perfbench's traced
   run reads. *)
let estimate env params =
  let bench = str_def params "bench" "gcc" in
  let length = int_min params "length" ~min:1 300_000 in
  let syn = int_min params "synthetic" ~min:1 40_000 in
  let reduction = int_opt_min params "reduction" ~min:1 in
  let target_length = if reduction = None then Some syn else None in
  let k = k_opt params in
  let profile_file = str_opt params "profile" in
  let json = bool_def params "json" false in
  let cfg = Config.Machine.baseline in
  let warnings = ref [] in
  let warn m = warnings := m :: !warnings in
  let p = collect_profile env ~warn cfg ~bench ~length ~k ~profile_file in
  ok_exn (Kernel.Compile.check_survivors ?reduction ?target_length p);
  env.check ();
  let e =
    tspan env "estimate.solve" (fun () ->
        Runner.Cache.estimate env.cache ?reduction ?target_length cfg p)
  in
  let buf = Buffer.create 512 in
  let extra = [ ("estimate", estimate_json e) ] in
  tspan env "render" (fun () ->
      if json then Buffer.add_string buf (Json.to_string (estimate_json e) ^ "\n")
      else render_estimate buf e);
  result_obj ~extra ~warnings:!warnings buf

(* --- diag --- *)

let diag env params =
  let bench = str_def params "bench" "gcc" in
  let length = int_min params "length" ~min:1 300_000 in
  let syn = int_min params "synthetic" ~min:1 40_000 in
  let reduction = int_opt_min params "reduction" ~min:1 in
  let target_length = if reduction = None then Some syn else None in
  let seed = int_def params "seed" 42 in
  let k = k_opt params in
  let profile_file = str_opt params "profile" in
  let json = bool_def params "json" false in
  let check_eps = float_opt params "check" in
  let eds = bool_def params "eds" false in
  let cfg = Config.Machine.baseline in
  let warnings = ref [] in
  let warn m = warnings := m :: !warnings in
  let p = collect_profile env ~warn cfg ~bench ~length ~k ~profile_file in
  ok_exn (Kernel.Compile.check_survivors ?reduction ?target_length p);
  env.check ();
  let plan =
    tspan env "cache.plan" (fun () ->
        Runner.Cache.plan env.cache ?reduction ?target_length p)
  in
  env.check ();
  let tr =
    tspan env "generate" (fun () -> Synth.Generate.generate_of_plan plan ~seed)
  in
  env.check ();
  let d = tspan env "diag.compare" (fun () -> Diag.compare ~label:bench p tr) in
  let metrics =
    if not eds then None
    else begin
      let spec = find_spec bench in
      env.check ();
      let eds_res =
        tspan env "cache.reference" (fun () ->
            Runner.Cache.reference env.cache cfg
              ~stream_key:(Workload.Suite.stream_key bench ~length) (fun () ->
                Workload.Suite.stream spec ~length))
      in
      let syn_m = Synth.Run.run cfg tr in
      Some (Diag.compare_metrics ~eds:eds_res.Statsim.metrics ~synthetic:syn_m)
    end
  in
  let buf = Buffer.create 512 in
  tspan env "render" (fun () ->
      if json then
        Buffer.add_string buf (Json.to_string (Diag.to_json ?metrics d) ^ "\n")
      else Buffer.add_string buf (Diag.render_text ?metrics d));
  let extra =
    match check_eps with
    | None -> []
    | Some eps -> (
      match Diag.worst d with
      | Some w when w.Diag.max_delta > eps ->
        [
          ("check_ok", Json.Bool false);
          ( "check_message",
            Json.Str
              (Printf.sprintf "diag check FAILED: %s max|dP| = %.5f > %.5f"
                 w.Diag.f_name w.Diag.max_delta eps) );
        ]
      | Some w ->
        [
          ("check_ok", Json.Bool true);
          ( "check_message",
            Json.Str
              (Printf.sprintf
                 "diag check passed: worst %s max|dP| = %.5f <= %.5f"
                 w.Diag.f_name w.Diag.max_delta eps) );
        ]
      | None ->
        [
          ("check_ok", Json.Bool false);
          ("check_message", Json.Str "diag check FAILED: no features compared");
        ])
  in
  result_obj ~extra ~warnings:!warnings buf

(* --- experiment --- *)

(* The selected tables, then for every workload of [Exp_common.benches]
   a divergence report ("diag") and a replication report
   ("replicas"): how far the experiments' synthetic traces sit from
   their profiles, and how much of each table entry is seed noise. *)
let experiment env params =
  let module E = Experiments.Exp_common in
  let ids = str_list params "ids" in
  let format = format_param params in
  let diag = bool_def params "diag" false in
  let replicas = replicas_opt params in
  let entries =
    match ids with
    | [] -> Experiments.Registry.all
    | ids ->
      List.map
        (fun id ->
          match Experiments.Registry.find id with
          | Some e -> e
          | None -> bad "unknown experiment %S" id)
        ids
  in
  let ctx = { Runner.Exec.cache = env.cache; jobs = env.jobs } in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      env.check ();
      tspan env ("experiment:" ^ e.id) (fun () ->
          Runner.Report.render format ppf
            (Runner.Exec.run ~label:e.id ctx e.plan)))
    entries;
  let cfg = Config.Machine.baseline in
  (* each workload's baseline profile and its plan at the experiments'
     synthetic length, from the memo the experiments share *)
  let per_bench f =
    List.iter
      (fun (spec : Workload.Spec.t) ->
        env.check ();
        let p = E.profile env.cache cfg (E.src spec) in
        f spec.name p
          (Runner.Cache.plan env.cache ~target_length:E.syn_length p))
      E.benches
  in
  let json = format = Runner.Report.Json in
  if diag then
    per_bench (fun name p plan ->
        let tr = Synth.Generate.generate_of_plan plan ~seed:E.seed in
        let d = Diag.compare ~label:name p tr in
        Buffer.add_string buf
          (if json then Json.to_string (Diag.to_json d) ^ "\n"
           else Diag.render_text d));
  Option.iter
    (fun n ->
      per_bench (fun name _ plan ->
          let r =
            Synth.Replicate.run ~jobs:env.jobs ~check:env.check cfg plan
              ~master_seed:E.seed ~replicas:n
          in
          Buffer.add_string buf
            (if json then
               Json.to_string
                 (Json.Obj
                    [
                      ("bench", Json.Str name);
                      ("replication", Synth.Replicate.to_json r);
                    ])
               ^ "\n"
             else Format.asprintf "%s %a" name Synth.Replicate.render_text r)))
    replicas;
  result_obj ~warnings:[] buf

(* --- dse --- *)

let dse env params =
  let sweep =
    match Json.member "sweep" params with
    | Some (Json.Str path) -> ok_exn (Dse.Sweep.load_file path)
    | Some j -> ok_exn (Dse.Sweep.of_json j)
    | None -> bad "missing \"sweep\" (inline sweep object or file path)"
  in
  let bench = str_def params "bench" "gcc" in
  let length = int_min params "length" ~min:1 300_000 in
  let syn = int_min params "synthetic" ~min:1 40_000 in
  let seed = int_def params "seed" 42 in
  let replicas = Option.value (replicas_opt params) ~default:1 in
  let max_points = int_opt params "max_points" in
  let format = format_param params in
  let spec = find_spec bench in
  env.check ();
  match
    tspan env "dse.run" (fun () ->
        Dse.Driver.run ~cache:env.cache ~jobs:env.jobs ~check:env.check
          ~replicas ?max_points ~length ~target_length:syn ~sweep
          ~bench:spec ~seed ())
  with
  | Error m -> Error m
  | Ok r ->
    let buf = Buffer.create 1024 and csv = Buffer.create 512 in
    tspan env "render" (fun () ->
        Runner.Report.render format (Format.formatter_of_buffer buf)
          (Dse.Driver.to_report r);
        Runner.Report.to_csv (Format.formatter_of_buffer csv)
          (Dse.Driver.pareto_report r));
    result_obj
      ~extra:[ ("pareto_csv", Json.Str (Buffer.contents csv)) ]
      ~warnings:[] buf

(* --- small ops --- *)

let cache_stats env =
  Ok (Runner.Cache.stats_json (Runner.Cache.stats env.cache))

let ping () =
  Ok (Json.Obj [ ("pong", Json.Bool true); ("output", Json.Str "pong\n") ])

(* A deterministic time-sink for overload/cancellation testing: spins in
   10 ms naps, visiting the cooperative check point on every lap. *)
let sleep env params =
  let ms = min 60_000 (max 0 (int_def params "ms" 100)) in
  let t_end = Unix.gettimeofday () +. (float_of_int ms /. 1000.0) in
  let rec nap () =
    env.check ();
    let remaining = t_end -. Unix.gettimeofday () in
    if remaining > 0.0 then begin
      (try Unix.sleepf (Float.min 0.01 remaining)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      nap ()
    end
  in
  nap ();
  Ok (Json.Obj [ ("slept_ms", Json.Num (float_of_int ms)) ])

(* Live observability reads: the process registry and the serve plane.
   Both are plain ops so a remote `statsim client` (or a Prometheus
   scraper behind a tiny shim) can read a running daemon without
   restarting it; in one-shot CLI mode they report this process. *)
let telemetry_op () =
  let snap = Telemetry.snapshot () in
  Ok
    (Json.Obj
       [
         ("output", Json.Str (Telemetry.render_json snap));
         ("telemetry", Telemetry.json_of_snapshot snap);
       ])

let metrics_op params =
  match str_def params "format" "json" with
  | "json" ->
    let m = Obs.metrics_json () in
    Ok
      (Json.Obj
         [ ("output", Json.Str (Json.to_string m ^ "\n")); ("metrics", m) ])
  | "prometheus" ->
    Ok (Json.Obj [ ("output", Json.Str (Obs.prometheus ())) ])
  | f -> bad "unknown format %S (one of: json prometheus)" f

let dispatch_inner env ~op params =
  try
    match op with
    | "ping" -> ping ()
    | "cache-stats" -> cache_stats env
    | "simulate" -> simulate env ~force_replicas:false params
    | "replicate" -> simulate env ~force_replicas:true params
    | "estimate" -> estimate env params
    | "diag" -> diag env params
    | "experiment" -> experiment env params
    | "dse" -> dse env params
    | "sleep" -> sleep env params
    | "telemetry" -> telemetry_op ()
    | "metrics" -> metrics_op params
    | op ->
      Error
        (Printf.sprintf "unknown op %S (one of: %s)" op
           (String.concat " " op_names))
  with
  | Bad_param m -> Error m
  (* the one engine rejection that depends on the data: the stratum
     count is only known once the SFG is partitioned *)
  | Synth.Stratify.Budget_too_small m -> Error m

let dispatch env ~op params =
  (* Resolve the request's trace: the daemon creates one at frame decode
     (and seeds it into [env]); a one-shot caller opts in with a
     `"trace": true` param. Untraced requests take the [None] branch of
     every [tspan] — and their replies carry no extra field, keeping
     server output byte-identical to the CLI. *)
  let trace =
    match env.trace with
    | Some _ as t -> t
    | None -> (
      match Json.member "trace" params with
      | Some (Json.Bool true) -> Some (Telemetry.Trace.create ~id:op ())
      | _ -> None)
  in
  let env =
    match trace with
    | None -> env
    | Some tr ->
      let base_check = env.check in
      {
        env with
        trace;
        (* every cooperative checkpoint visit — one per replica inside
           Synth.Replicate's ?check boundary hook — ticks a mark *)
        check =
          (fun () ->
            Telemetry.Trace.mark tr "check";
            base_check ());
      }
  in
  let r = dispatch_inner env ~op params in
  match trace with
  | None -> r
  | Some tr -> (
    Telemetry.Trace.finish tr;
    match r with
    | Ok (Json.Obj fields) ->
      Ok (Json.Obj (fields @ [ ("trace", Telemetry.Trace.to_json tr) ]))
    | r -> r)

let output r =
  match Json.member "output" r with Some (Json.Str s) -> s | _ -> ""

let warnings r =
  match Json.member "warnings" r with
  | Some (Json.Arr ws) ->
    List.filter_map (function Json.Str s -> Some s | _ -> None) ws
  | _ -> []
