(* Multi-seed replication: one synthetic-trace run is a single
   Monte-Carlo sample of the SFG walk, so the engine runs N independent
   replicas (seeds split deterministically from one master seed) and
   reports dispersion — mean, sample stddev and the 95% confidence
   interval of the mean — for IPC and the six dispatch-stall-cause
   fractions. Replicas execute on the shared Domain pool; results are
   aggregated in seed order, so the report is byte-identical at any
   worker count. Every replica walks the caller's compiled plan, so
   the engine compiles nothing itself. The replication loop ([grow],
   [adaptive]) is shared with the stratified engine, Stratify, which
   keeps its own seeds and estimator. *)

let span_replica = Telemetry.span "synth.replica"

(* IPC dispersion across replicas, in thousandths (the telemetry
   histogram is integer-valued). *)
let h_ipc_milli = Telemetry.histogram "replicate.ipc_milli"

type stat = { mean : float; stddev : float; ci95 : float }

type t = {
  master_seed : int;
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
     are the n seeds of a smaller one, which growth relies on *)
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
    ci95 = Stats.Summary.ci95_or_zero samples;
  }

let frac num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let stall_cause_names =
  List.map fst (Uarch.Metrics.stall_causes Uarch.Metrics.no_stalls)

let aggregate ~master_seed seeds metrics =
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
    seeds;
    metrics;
    ipc = stat_of ipcs;
    stall_fractions;
  }

let observe_replica m =
  Telemetry.observe h_ipc_milli
    (int_of_float (Float.round (1000.0 *. Uarch.Metrics.ipc m)));
  m

(* --- the replication loop, shared with Stratify --- *)

(* Every missing sample is enumerated stratum-major in seed order before
   any simulation runs, so Parallel.map's index-ordered results make the
   outcome independent of [jobs]. *)
let grow ~jobs run ~seeds samples ~want =
  let strata = Array.length samples in
  if Array.length seeds <> strata || Array.length want <> strata then
    invalid_arg "Replicate.grow: strata count mismatch";
  let items =
    Array.concat
      (List.init strata (fun h ->
           let have = Array.length samples.(h) in
           if want.(h) < have || want.(h) > Array.length seeds.(h) then
             invalid_arg "Replicate.grow: want outside [have, seeds]";
           Array.init (want.(h) - have) (fun j ->
               (h, seeds.(h).(have + j)))))
  in
  let fresh = Parallel.map ~jobs (fun (h, seed) -> run h seed) items in
  let next = ref 0 in
  Array.mapi
    (fun h have ->
      let n = want.(h) - Array.length have in
      let grown = Array.append have (Array.sub fresh !next n) in
      next := !next + n;
      grown)
    samples

let adaptive ?ci_target ~start ~cap ~ci result =
  match ci_target with
  | None -> result cap
  | Some target ->
    if start < 1 then invalid_arg "Replicate.adaptive: start must be >= 1";
    (* relative half-width: the CI must close to within target percent
       of the mean *)
    let converged r =
      let mean, half = ci r in
      Float.is_finite half && half <= target /. 100.0 *. Float.abs mean
    in
    let rec go n =
      let r = result n in
      if n >= cap || converged r then r else go (min cap (2 * n))
    in
    go start

(* The per-seed replica function. Every replica walks the caller's
   plan: its tables are immutable, so sharing it across Parallel's
   domains is safe, and a caller that memoises plans pays no compile
   per request. *)
let replica_runner ?(check = fun () -> ()) cfg plan seed =
  check ();
  Telemetry.time span_replica (fun () ->
      observe_replica (Run.run cfg (Generate.generate_of_plan plan ~seed)))

let max_replicas = 64

let run ?(jobs = 1) ?check ?ci_target cfg plan ~master_seed ~replicas =
  let cap =
    match ci_target with
    | None -> replicas
    | Some c ->
      if c <= 0.0 then
        invalid_arg "Replicate.run: ci_target must be positive";
      if replicas < 2 then
        invalid_arg "Replicate.run: replicas must be >= 2 with ci_target";
      if max_replicas < replicas then
        invalid_arg "Replicate.run: max_replicas < replicas";
      max_replicas
  in
  let seeds = split_seeds ~master_seed ~n:cap in
  let replica = replica_runner ?check cfg plan in
  let metrics = ref [||] in
  let result n =
    metrics :=
      (grow ~jobs (fun _ seed -> replica seed) ~seeds:[| seeds |]
         [| !metrics |] ~want:[| n |]).(0);
    aggregate ~master_seed (Array.sub seeds 0 n) !metrics
  in
  adaptive ?ci_target ~start:replicas ~cap
    ~ci:(fun r -> (r.ipc.mean, r.ipc.ci95))
    result

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
      ("streamed", Bool false);
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
  Format.fprintf ppf "replication: %d replicas (materialized), master seed %d@."
    (replicas t) t.master_seed;
  Format.fprintf ppf "  %-16s mean %8.4f  stddev %8.4f  95%% CI +/-%.4f@."
    "IPC" t.ipc.mean t.ipc.stddev t.ipc.ci95;
  Format.fprintf ppf "  stall-cause fractions (of all cycles):@.";
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf
        "    %-14s mean %8.4f  stddev %8.4f  95%% CI +/-%.4f@." name s.mean
        s.stddev s.ci95)
    t.stall_fractions
