let span_sweep = Telemetry.span "dse.sweep"
let c_points = Telemetry.counter "dse.points"
let c_store_reuse = Telemetry.counter "dse.store_reuse"

type stat = { mean : float; ci95 : float }

type point_result = {
  point : Sweep.point;
  label : string;
  ipc : stat;
  epc : float;
  edp : stat;
  on_frontier : bool;
}

type t = {
  sweep_name : string;
  axes : string list;
  bench : string;
  replicas : int;
  seed : int;
  points : point_result array;
  frontier_count : int;
}

let stat_of samples =
  {
    mean = Stats.Summary.mean samples;
    ci95 = Stats.Summary.ci95_or_zero samples;
  }

(* Profiling reads the caches, predictor, fetch queue and issue order,
   so the machines share one profile and one plan per distinct
   configuration of those fields; machines that differ only in the
   window, widths or latencies have exactly one. *)
let evaluate ~cache ~jobs ?(check = fun () -> ()) ~length ~target_length
    ~(bench : Workload.Spec.t) ~seeds machines =
  let groups =
    Array.fold_left
      (fun acc cfg ->
        let pcfg = Config.Machine.profiled cfg in
        if List.mem pcfg acc then acc else acc @ [ pcfg ])
      [] machines
  in
  let stream_key = Workload.Suite.stream_key bench.name ~length in
  let ( let* ) = Result.bind in
  let rec prepare acc = function
    | [] -> Ok (List.rev acc)
    | pcfg :: rest ->
      check ();
      (* the stream is built only to collect, so a group that never
         builds it was answered by a cache tier *)
      let collected = ref false in
      let stream () =
        collected := true;
        Workload.Suite.stream bench ~length
      in
      let* plan =
        Runner.Cache.profile_plan cache pcfg ~stream_key ~target_length stream
      in
      if not !collected then Telemetry.incr c_store_reuse;
      (* replica traces are independent of the rest of the machine:
         generate once per group, share read-only across its machines
         and every worker domain *)
      let traces =
        Array.map (fun s -> Synth.Generate.generate_of_plan plan ~seed:s) seeds
      in
      prepare ((pcfg, traces) :: acc) rest
  in
  let* traces_of = prepare [] groups in
  Telemetry.add c_points (Array.length machines);
  (* a machine given twice runs once: [slot.(i)] indexes machine [i]'s
     first occurrence in [distinct], keyed by the canonical rendering *)
  let first = Hashtbl.create 16 and distinct = ref [] in
  let slot =
    Array.map
      (fun cfg ->
        let key = Config.Machine.canonical cfg in
        match Hashtbl.find_opt first key with
        | Some k -> k
        | None ->
          let k = Hashtbl.length first in
          Hashtbl.add first key k;
          distinct := cfg :: !distinct;
          k)
      machines
  in
  let results =
    Parallel.map ~jobs
      (fun cfg ->
        check ();
        Array.map
          (fun tr -> Statsim.result_of_metrics cfg (Synth.Run.run cfg tr))
          (List.assoc (Config.Machine.profiled cfg) traces_of))
      (Array.of_list (List.rev !distinct))
  in
  Ok (Array.map (fun k -> results.(k)) slot)

let run ~cache ?(jobs = 1) ?(check = fun () -> ()) ?(replicas = 1)
    ?max_points ?(length = 300_000) ?(target_length = 40_000) ~sweep
    ~(bench : Workload.Spec.t) ~seed () =
  if replicas < 1 then invalid_arg "Dse.Driver.run: replicas < 1";
  let ( let* ) = Result.bind in
  let* points = Sweep.expand ?max_points sweep in
  let base = Config.Machine.baseline in
  let rec valid = function
    | [] -> Ok ()
    | point :: rest -> (
      match Config.Machine.validate (Sweep.apply base point) with
      | Ok () -> valid rest
      | Error m ->
        Error (Printf.sprintf "design point %s: %s" (Sweep.label point) m))
  in
  let* () = valid points in
  Telemetry.time span_sweep (fun () ->
      let points = Array.of_list points in
      let seeds = Synth.Replicate.split_seeds ~master_seed:seed ~n:replicas in
      let* per_seed =
        evaluate ~cache ~jobs ~check ~length ~target_length ~bench ~seeds
          (Array.map (Sweep.apply base) points)
      in
      let evaluated =
        Array.map
          (fun results ->
            let of_field f = Array.to_list (Array.map f results) in
            ( stat_of (of_field (fun r -> r.Statsim.ipc)),
              Stats.Summary.mean (of_field (fun r -> r.Statsim.epc)),
              stat_of (of_field (fun r -> r.Statsim.edp)) ))
          per_seed
      in
      let flags =
        Pareto.frontier_flags
          (Array.map
             (fun (ipc, _, edp) ->
               {
                 Pareto.ipc = { value = ipc.mean; ci = ipc.ci95 };
                 edp = { value = edp.mean; ci = edp.ci95 };
               })
             evaluated)
      in
      let results =
        Array.mapi
          (fun i (ipc, epc, edp) ->
            let point = points.(i) in
            {
              point;
              label = Sweep.label point;
              ipc;
              epc;
              edp;
              on_frontier = flags.(i);
            })
          evaluated
      in
      Ok
        {
          sweep_name = sweep.Sweep.sweep_name;
          axes =
            List.map
              (fun a -> a.Config.Machine.axis_name)
              (Sweep.axes_of sweep.Sweep.spec);
          bench = bench.Workload.Spec.name;
          replicas;
          seed;
          points = results;
          frontier_count =
            Array.fold_left (fun n f -> if f then n + 1 else n) 0 flags;
        })

let frontier t =
  let pts =
    List.filter (fun p -> p.on_frontier) (Array.to_list t.points)
  in
  (* stable: equal IPCs keep sweep order *)
  List.stable_sort (fun a b -> compare b.ipc.mean a.ipc.mean) pts

(* --- report layer --- *)

let columns = [ "ipc"; "ipc_ci95"; "epc"; "edp"; "edp_ci95"; "pareto" ]

let row p =
  let open Runner.Report in
  ( p.label,
    [
      Fixed (p.ipc.mean, 4);
      Fixed (p.ipc.ci95, 4);
      Fixed (p.epc, 3);
      Fixed (p.edp.mean, 4);
      Fixed (p.edp.ci95, 4);
      Str (if p.on_frontier then "*" else "");
    ] )

let label_width t =
  Array.fold_left (fun w p -> max w (String.length p.label)) 12 t.points

let header t =
  Printf.sprintf
    "== DSE sweep %s: %d points over [%s] (bench %s, %d replica%s, seed %d) =="
    t.sweep_name (Array.length t.points)
    (String.concat " " t.axes)
    t.bench t.replicas
    (if t.replicas = 1 then "" else "s")
    t.seed

let frontier_table t =
  Runner.Report.table ~label_width:(label_width t) ~label_col:"point"
    ~name:"frontier" ~columns
    (List.map row (frontier t))

let to_report t =
  let open Runner.Report in
  {
    id = "dse";
    blocks =
      [
        Line (header t);
        table ~label_width:(label_width t) ~label_col:"point" ~name:"points"
          ~columns
          (List.map row (Array.to_list t.points));
        Line
          (Printf.sprintf
             "pareto frontier: %d of %d points (IPC up, EDP down; a point \
              dominates only where 95%% CIs do not overlap)"
             t.frontier_count (Array.length t.points));
        frontier_table t;
        Line "";
      ];
  }

let pareto_report t =
  { Runner.Report.id = "dse-pareto"; blocks = [ frontier_table t ] }
