(* Multi-seed replication: one synthetic-trace run is a single
   Monte-Carlo sample of the SFG walk, so the engine runs N independent
   replicas (seeds split deterministically from one master seed) and
   reports dispersion — mean, sample stddev and the 95% confidence
   interval of the mean — for IPC and the six dispatch-stall-cause
   fractions. Replicas execute on the shared Domain pool; results are
   aggregated in seed order, so the report is byte-identical at any
   worker count. *)

let span_replica = Telemetry.span "synth.replica"

(* IPC dispersion across replicas, in thousandths (the telemetry
   histogram is integer-valued). *)
let h_ipc_milli = Telemetry.histogram "replicate.ipc_milli"

type stat = { mean : float; stddev : float; ci95 : float }

type t = {
  master_seed : int;
  streamed : bool;
  reduction : int option;
  target_length : int option;
  seeds : int array;
  metrics : Uarch.Metrics.t array;
  ipc : stat;
  stall_fractions : (string * stat) list;
}

let replicas t = Array.length t.seeds

let split_seeds ~master_seed ~n =
  if n < 1 then invalid_arg "Replicate.split_seeds: n must be >= 1";
  let rng = Prng.create ~seed:master_seed in
  let seen = Hashtbl.create (2 * n) in
  (* sequential draws with collision re-draws: deterministic, pairwise
     distinct, and prefix-stable — the first n seeds of a larger split
     are the n seeds of a smaller one, which run_ci relies on *)
  Array.init n (fun _ ->
      let rec fresh () =
        let s = Int32.to_int (Prng.bits32 rng) land 0x7FFFFFFF in
        if Hashtbl.mem seen s then fresh ()
        else begin
          Hashtbl.add seen s ();
          s
        end
      in
      fresh ())

let stat_of samples =
  {
    mean = Stats.Summary.mean samples;
    stddev = Stats.Summary.sample_stddev samples;
    (* ci95_half_width is nan below two samples; the replication report
       keeps the historical 0.0 sentinel so single-replica JSON stays
       stable *)
    ci95 =
      (match samples with
      | [] | [ _ ] -> 0.0
      | _ -> Stats.Summary.ci95_half_width samples);
  }

let frac num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let stall_cause_names =
  List.map fst (Uarch.Metrics.stall_causes Uarch.Metrics.no_stalls)

let aggregate ~master_seed ~streamed ~reduction ~target_length seeds metrics =
  let ipcs = Array.to_list (Array.map Uarch.Metrics.ipc metrics) in
  let stall_fractions =
    List.map
      (fun name ->
        let samples =
          Array.to_list
            (Array.map
               (fun (m : Uarch.Metrics.t) ->
                 frac
                   (List.assoc name (Uarch.Metrics.stall_causes m.stalls))
                   m.cycles)
               metrics)
        in
        (name, stat_of samples))
      stall_cause_names
  in
  {
    master_seed;
    streamed;
    reduction;
    target_length;
    seeds;
    metrics;
    ipc = stat_of ipcs;
    stall_fractions;
  }

let observe_replica m =
  Telemetry.observe h_ipc_milli
    (int_of_float (Float.round (1000.0 *. Uarch.Metrics.ipc m)));
  m

(* The per-seed replica function. The profile is lowered to a plan
   once, up front, and every replica — streamed or materialized — walks
   that shared plan: the tables are immutable, so sharing across
   Parallel's domains is safe, and the compile cost is paid once instead
   of per replica. *)
let replica_runner ?(check = fun () -> ()) ?wrong_path_locality ~stream
    ?reduction ?target_length cfg p =
  let plan = Kernel.Compile.plan ?reduction ?target_length p in
  fun seed ->
    check ();
    Telemetry.time span_replica (fun () ->
        observe_replica
          (if stream then
             Run.run_stream_of_plan ?wrong_path_locality cfg plan ~seed
           else
             Run.run ?wrong_path_locality cfg
               (Generate.generate_of_plan plan ~seed)))

let run ?(jobs = 1) ?(stream = false) ?check ?wrong_path_locality ?reduction
    ?target_length cfg p ~master_seed ~replicas =
  let seeds = split_seeds ~master_seed ~n:replicas in
  let replica =
    replica_runner ?check ?wrong_path_locality ~stream ?reduction
      ?target_length cfg p
  in
  let metrics = Parallel.map ~jobs replica seeds in
  aggregate ~master_seed ~streamed:stream ~reduction ~target_length seeds
    metrics

let converged ~ci_target r =
  (* relative half-width: the CI must close to within ci_target percent
     of the mean IPC *)
  r.ipc.ci95 <= ci_target /. 100.0 *. Float.abs r.ipc.mean

let run_ci ?(jobs = 1) ?(stream = false) ?check ?wrong_path_locality
    ?reduction ?target_length ?(min_replicas = 4) ?(max_replicas = 64) cfg p
    ~master_seed ~ci_target =
  if ci_target <= 0.0 then
    invalid_arg "Replicate.run_ci: ci_target must be positive";
  if min_replicas < 2 then
    invalid_arg "Replicate.run_ci: min_replicas must be >= 2";
  if max_replicas < min_replicas then
    invalid_arg "Replicate.run_ci: max_replicas < min_replicas";
  let all_seeds = split_seeds ~master_seed ~n:max_replicas in
  let replica =
    replica_runner ?check ?wrong_path_locality ~stream ?reduction
      ?target_length cfg p
  in
  let simulate seeds = Parallel.map ~jobs replica seeds in
  let rec grow metrics n =
    let r =
      aggregate ~master_seed ~streamed:stream ~reduction ~target_length
        (Array.sub all_seeds 0 n) metrics
    in
    if n >= max_replicas || converged ~ci_target r then r
    else begin
      let n' = min max_replicas (2 * n) in
      let fresh = simulate (Array.sub all_seeds n (n' - n)) in
      grow (Array.append metrics fresh) n'
    end
  in
  grow (simulate (Array.sub all_seeds 0 min_replicas)) min_replicas

(* --- rendering --- *)

let stat_json s =
  Telemetry.Json.Obj
    [
      ("mean", Telemetry.Json.Num s.mean);
      ("stddev", Telemetry.Json.Num s.stddev);
      ("ci95_half_width", Telemetry.Json.Num s.ci95);
    ]

let to_json t =
  let open Telemetry.Json in
  Obj
    [
      ("master_seed", Num (float_of_int t.master_seed));
      ("streamed", Bool t.streamed);
      ("replicas", Num (float_of_int (replicas t)));
      ( "seeds",
        Arr (Array.to_list (Array.map (fun s -> Num (float_of_int s)) t.seeds))
      );
      ( "ipc_samples",
        Arr
          (Array.to_list
             (Array.map (fun m -> Num (Uarch.Metrics.ipc m)) t.metrics)) );
      ("ipc", stat_json t.ipc);
      ( "stall_fractions",
        Obj (List.map (fun (name, s) -> (name, stat_json s)) t.stall_fractions)
      );
    ]

let render_text ppf t =
  Format.fprintf ppf "replication: %d replicas (%s), master seed %d@."
    (replicas t)
    (if t.streamed then "streamed" else "materialized")
    t.master_seed;
  Format.fprintf ppf "  %-16s mean %8.4f  stddev %8.4f  95%% CI +/-%.4f@."
    "IPC" t.ipc.mean t.ipc.stddev t.ipc.ci95;
  Format.fprintf ppf "  stall-cause fractions (of all cycles):@.";
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf
        "    %-14s mean %8.4f  stddev %8.4f  95%% CI +/-%.4f@." name s.mean
        s.stddev s.ci95)
    t.stall_fractions
