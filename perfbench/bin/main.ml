(* The benchmark executable: one workload, one seed, one mode.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off and
   corrects host times for drift with the probe. --trace 1 is the
   separate traced run: for every workload it runs the op list untraced,
   then traced through the benchmark's own spans, checks that both give
   the same outputs, and reports the per-layer metrics. The last line of
   stdout is the result object; the line before it holds the details
   (raw and scaled values, probe, digest). *)

open Common
module Stat = Perfbench.Stat
module Oplist = Perfbench.Oplist

let workloads = [ "cli-session"; "dse-sweep"; "serve-warm" ]

(* Every REPRO_* variable the library reads, pinned. *)
let pin_environment () =
  List.iter
    (fun (k, v) -> Unix.putenv k v)
    [
      ("REPRO_JOBS", "1");
      ("REPRO_CACHE_DIR", "");
      ("REPRO_TELEMETRY", "0");
      ("REPRO_SCALE", "1");
      ("REPRO_BENCHES", "");
    ];
  Telemetry.set_enabled false

type metric = { name : string; value : float; unit_ : string }

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let metrics_json ms =
  "{"
  ^ String.concat ","
      (List.map
         (fun m -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (json_num m.value) m.unit_)
         ms)
  ^ "}"

(* --- end-to-end run --- *)

let ms_of_ns ns = float_of_int ns /. 1e6

let e2e ctx ~workload ~seed ~seconds =
  let setup_s, phase, out, ipc_error, rss =
    match workload with
    | "cli-session" ->
      let setup_s, phase, out, err =
        Cli_session.run_untraced ctx ~setups:5 ~seed ~passes:(Oplist.cli_passes ~seconds)
      in
      (setup_s, phase, out, err, peak_rss_mb "self")
    | "dse-sweep" ->
      let setup_s, phase, out, err =
        Dse_sweep.run_untraced ctx ~setups:5 ~seed ~n:(Oplist.dse_ops ~seconds)
      in
      (setup_s, phase, out, err, peak_rss_mb "self")
    | _ ->
      let setup_s, r, rss = Serve_warm.run_untraced ctx ~setups:5 ~seed ~n:(Oplist.serve_ops ~seconds) in
      (setup_s, r.Serve_warm.phase, r.out, r.ipc_error, rss)
  in
  let probe_ms = probe_median ctx in
  let s = Stat.scale_factor ~probe_ref:probe_ref_ms ~probe_ms in
  let lat = Array.map ms_of_ns phase.latency_ns in
  let timed_s = Array.fold_left ( +. ) 0.0 lat /. 1e3 in
  let raw =
    [
      (* A/A runs showed scaling widen setup_s: setup runs first, for a
         few seconds, while the probe median describes the whole run *)
      ("setup_s", Stat.median (Array.of_list setup_s), "s", false);
      ("ops_per_s", float_of_int (Array.length lat) /. timed_s, "ops/s", true);
      ("latency_p50_ms", Stat.percentile lat 50.0, "ms", true);
      ("latency_p90_ms", Stat.reported_percentile lat 90.0, "ms", true);
      ("peak_rss_mb", rss, "MB", false);
      ("ipc_error_pct", ipc_error, "%", false);
    ]
  in
  let scaled =
    List.map
      (fun (name, v, unit_, scale) ->
        let value =
          if not scale then v
          else if name = "ops_per_s" then Stat.scale_rate ~s v
          else Stat.scale_time ~s v
        in
        { name; value; unit_ })
      raw
  in
  let detail =
    Printf.sprintf
      {|{"detail":{"workload":%S,"seed":%d,"trace":0,"digest":%S,"ops":%d,"probe_ref_ms":%s,"host.probe_ms":%s,"scale":%s,"scaled":[%s],"raw":%s,"setup_s_samples":[%s],"failures":[%s]}}|}
      workload seed out.digest (Array.length lat) (json_num probe_ref_ms) (json_num probe_ms)
      (json_num s)
      (String.concat "," (List.filter_map (fun (n, _, _, sc) -> if sc then Some (Printf.sprintf "%S" n) else None) raw))
      (metrics_json (List.map (fun (name, value, unit_, _) -> { name = "raw." ^ name; value; unit_ }) raw))
      (String.concat "," (List.map json_num setup_s))
      (String.concat "," (List.map (Printf.sprintf "%S") out.failures))
  in
  (detail, out.attempted, out.failed, out.failed = 0, scaled)

(* --- traced run --- *)

let traced ctx ~workload ~seed ~seconds =
  (* one span recorder per workload: op ids index that workload's list *)
  let recorders = List.map (fun w -> (w, Perfbench.Spans.create ())) workloads in
  let spans w = List.assoc w recorders in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let note (o : outcome) =
    attempted := !attempted + o.attempted;
    failed := !failed + o.failed;
    problems := o.failures @ !problems
  in
  let same_digest name (u : outcome) (t : outcome) =
    note u;
    note t;
    if u.digest <> t.digest then
      problems := (name ^ ": traced outputs differ from dispatched outputs") :: !problems
  in
  let ops_per_s (p : phase) =
    let total_s = float_of_int (Array.fold_left ( + ) 0 p.latency_ns) /. 1e9 in
    Stat.scale_rate
      ~s:(Stat.scale_factor ~probe_ref:probe_ref_ms ~probe_ms:p.phase_probe_ms)
      (float_of_int (Array.length p.latency_ns) /. total_s)
  in
  let overhead = ref nan in
  let pair name (pu : phase) (pt : phase) =
    if name = workload then overhead := 100.0 *. ((ops_per_s pu /. ops_per_s pt) -. 1.0)
  in
  let prefix name = List.map (fun (m, v, u) -> { name = name ^ "." ^ m; value = v; unit_ = u }) in
  (* cli-session *)
  let passes = Oplist.cli_passes ~seconds in
  let _, pu, ou, _ = Cli_session.run_untraced ctx ~setups:1 ~seed ~passes in
  let pt, ot, cli = Cli_session.run_traced ctx (spans "cli-session") ~seed ~passes in
  same_digest "cli-session" ou ot;
  pair "cli-session" pu pt;
  (* dse-sweep *)
  let n = Oplist.dse_ops ~seconds in
  let _, pu, ou, _ = Dse_sweep.run_untraced ctx ~setups:1 ~seed ~n in
  let env, eds = Dse_sweep.setup 0 in
  let pt, ot, dse = Dse_sweep.run_traced ctx (spans "dse-sweep") env ~eds ~seed ~n in
  same_digest "dse-sweep" ou ot;
  pair "dse-sweep" pu pt;
  (* serve-warm *)
  let n = Oplist.serve_ops ~seconds in
  let _, ru, _ = Serve_warm.run_untraced ctx ~setups:1 ~seed ~n in
  let rt, serve = Serve_warm.run_traced ctx (spans "serve-warm") ~seed ~n in
  same_digest "serve-warm" ru.out rt.out;
  pair "serve-warm" ru.phase rt.phase;
  let metrics =
    prefix "cli-session" cli @ prefix "dse-sweep" dse @ prefix "serve-warm" serve
    @ [
        { name = "host.probe_ms"; value = probe_median ctx; unit_ = "ms" };
        { name = "trace.overhead_pct"; value = !overhead; unit_ = "%" };
      ]
  in
  let detail =
    Printf.sprintf {|{"detail":{"workload":%S,"seed":%d,"trace":1,"failures":[%s]}}|} workload
      seed
      (String.concat "," (List.map (Printf.sprintf "%S") !problems))
  in
  (detail, !attempted, !failed, !problems = [], metrics, recorders)

(* --- entry --- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (cli-session|dse-sweep|serve-warm) --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  (workload, int "seed", seconds, trace = 1)

(* run temp roots and span files, relative to the checkout root *)
let out_dir = "_perfbench"

let run () =
  let workload, seed, seconds, trace = parse_args () in
  pin_environment ();
  (* a signal unwinds through the finalizers below, which reap the
     daemon and the probe process *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> failwith "interrupted")))
    [ Sys.sigterm; Sys.sigint ];
  let home = Sys.getcwd () in
  let out_dir = Filename.concat home out_dir in
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  let tmp = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf tmp;
  Unix.mkdir tmp 0o700;
  let probe =
    Perfbench.Probe.start ~exe:Sys.executable_name ~args:[| Sys.executable_name; "--probe" |]
  in
  let ctx = { probe; probe_ms = []; tmp } in
  let detail, attempted, failed, correct, metrics =
    Fun.protect
      ~finally:(fun () ->
        Perfbench.Probe.stop probe;
        Unix.chdir home;
        rm_rf tmp)
      (fun () ->
        (* sockets and store dirs are relative to the per-run temp root,
           which keeps socket paths short wherever the checkout lives *)
        Unix.chdir tmp;
        if trace then begin
          let detail, a, f, ok, ms, recorders = traced ctx ~workload ~seed ~seconds in
          (* spans stay in memory until the run ends *)
          List.iter
            (fun (w, spans) ->
              Perfbench.Spans.write spans
                (Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d-%s.jsonl" workload seed w)))
            recorders;
          (detail, a, f, ok, ms)
        end
        else e2e ctx ~workload ~seed ~seconds)
  in
  let correct = correct && List.for_all (fun m -> Float.is_finite m.value) metrics in
  print_endline detail;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!" correct attempted
    failed (metrics_json metrics)

let () =
  match Sys.argv with
  | [| _; "--probe" |] -> Perfbench.Probe.serve ()
  | _ -> run ()
