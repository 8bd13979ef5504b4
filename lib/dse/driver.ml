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
    (* keep the historical 0.0 sentinel for single-replica sweeps;
       ci95_half_width itself is nan below two samples *)
    ci95 =
      (match samples with
      | [] | [ _ ] -> 0.0
      | _ -> Stats.Summary.ci95_half_width samples);
  }

let run ~cache ?(jobs = 1) ?(replicas = 1) ?max_points
    ?(base = Config.Machine.baseline) ?(length = 300_000)
    ?(target_length = 40_000) ~sweep ~(bench : Workload.Spec.t) ~seed () =
  if replicas < 1 then invalid_arg "Dse.Driver.run: replicas < 1";
  let ( let* ) = Result.bind in
  let* points = Sweep.expand ?max_points sweep in
  Telemetry.time span_sweep (fun () ->
      let before = Runner.Cache.stats cache in
      (* one profile and one plan for the whole sweep: both are
         invariant across the machine axes being swept *)
      let profile =
        Runner.Cache.profile cache base
          ~stream_key:(Workload.Suite.stream_key bench.name ~length)
          (fun () -> Workload.Suite.stream bench ~length)
      in
      let* () = Kernel.Compile.check_survivors ~target_length profile in
      let plan = Runner.Cache.plan cache ~target_length profile in
      let after = Runner.Cache.stats cache in
      if after.profile_computes - before.profile_computes > 1 then
        failwith "Dse.Driver.run: profile collected more than once";
      if after.plan_computes - before.plan_computes > 1 then
        failwith "Dse.Driver.run: plan compiled more than once";
      Telemetry.add c_store_reuse
        (after.store_hits - before.store_hits
        + (after.profile_hits - before.profile_hits)
        + (after.plan_hits - before.plan_hits));
      (* replica traces are config-independent: generate once, share
         read-only across every point and worker domain *)
      let seeds = Synth.Replicate.split_seeds ~master_seed:seed ~n:replicas in
      let traces =
        Array.map (fun s -> Synth.Generate.generate_of_plan plan ~seed:s) seeds
      in
      let points = Array.of_list points in
      Telemetry.add c_points (Array.length points);
      let evaluated =
        Parallel.map ~jobs
          (fun point ->
            let cfg = Sweep.apply base point in
            let results =
              Array.map
                (fun tr ->
                  Statsim.result_of_metrics cfg (Synth.Run.run cfg tr))
                traces
            in
            let of_field f = Array.to_list (Array.map f results) in
            ( point,
              stat_of (of_field (fun r -> r.Statsim.ipc)),
              Stats.Summary.mean (of_field (fun r -> r.Statsim.epc)),
              stat_of (of_field (fun r -> r.Statsim.edp)) ))
          points
      in
      let flags =
        Pareto.frontier_flags
          (Array.map
             (fun (_, ipc, _, edp) ->
               {
                 Pareto.ipc = { value = ipc.mean; ci = ipc.ci95 };
                 edp = { value = edp.mean; ci = edp.ci95 };
               })
             evaluated)
      in
      let results =
        Array.mapi
          (fun i (point, ipc, epc, edp) ->
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
