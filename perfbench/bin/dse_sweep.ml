(* dse-sweep: design-space exploration from a warm memo, the paper's use
   case. Setup simulates three workloads with different SFG sizes once,
   which fills the memo with their profile, plan and EDS reference; each
   timed op is then one dse request over an 8-point RUU x LSQ sweep with
   2 replicas and a new master seed. Nearly all host time goes to the
   pipeline; profile, EDS, store and server run only in setup. *)

open Common
module Oplist = Perfbench.Oplist
module Spans = Perfbench.Spans

let length = 100_000
let synthetic = 8_000
let replicas = 2
let ruu_sizes = [ 16; 32; 64; 128 ]

(* SFG sizes 38, 166 and 248 nodes *)
let benches = [ "vortex"; "gcc"; "twolf" ]

let sweep_json =
  let axis name values =
    Json.Obj [ ("axis", Json.Str name); ("values", Json.Arr (List.map num values)) ]
  in
  Json.Obj
    [
      ("name", Json.Str "ruu_lsq");
      ( "sweep",
        Json.Obj
          [ ("cross", Json.Arr [ axis "ruu" ruu_sizes; axis "lsq" [ 8; 32 ]; axis "width" [ 8 ] ]) ]
      );
    ]

let points = 8

(* The sweep's baseline-machine point, compared against EDS. *)
let baseline_label = "ruu=128 lsq=32 width=8"

let ops ~seed ~n = Oplist.dse_sweep ~benches ~seed ~ops:n

let simulate_params bench =
  Json.Obj
    [
      ("bench", Json.Str bench);
      ("length", num length);
      ("synthetic", num synthetic);
      ("seed", num 1);
    ]

let dse_params (o : Oplist.dse_op) =
  Json.Obj
    [
      ("sweep", sweep_json);
      ("bench", Json.Str o.bench);
      ("length", num length);
      ("synthetic", num synthetic);
      ("seed", num o.seed);
      ("replicas", num replicas);
    ]

(* Warm memo: one simulate per workload (profile, plan and EDS
   reference), then one discarded sweep each. Returns the env and each
   workload's EDS IPC. *)
let setup _i =
  let env = env () in
  let eds =
    List.map
      (fun bench ->
        match dispatch_output env ~op:"simulate" (simulate_params bench) with
        | Error m -> failwith ("dse-sweep setup: " ^ m)
        | Ok text -> (
          match simulate_row text "IPC" with
          | Ok (eds_ipc, _) -> (bench, eds_ipc)
          | Error m -> failwith ("dse-sweep setup: " ^ m)))
      benches
  in
  List.iter
    (fun bench ->
      ignore (dispatch_output env ~op:"dse" (dse_params { Oplist.bench; seed = 1 })))
    benches;
  (env, eds)

(* --- reply checks --- *)

(* Point count as requested, at least one frontier point; returns the
   baseline point's IPC. *)
let check text =
  let* n = Option.to_result ~none:"dse: no header" (scan_line "== DSE sweep %_s %d points" text Fun.id) in
  let* front =
    Option.to_result ~none:"dse: no frontier line" (scan_line "pareto frontier: %d of" text Fun.id)
  in
  let* ipc =
    Option.to_result ~none:"dse: no baseline point"
      (scan_line (Scanf.format_from_string (baseline_label ^ " %f") "%f") text Fun.id)
  in
  if n <> points then Error (Printf.sprintf "dse: %d points, requested %d" n points)
  else if front < 1 then Error "dse: empty frontier"
  else if not (ipc_in_range ipc) then Error "dse: baseline IPC out of range"
  else Ok ipc

let outcome_of ~eds (ops : Oplist.dse_op array) texts =
  let out = outcome () in
  let errs = ref [] in
  Array.iteri
    (fun i r ->
      match r with
      | Ok text -> (
        let c = check text in
        record out ~text (Result.map ignore c);
        match c with
        | Ok ipc ->
          let b = ops.(i).Oplist.bench in
          errs := (b, List.assoc b eds, ipc) :: !errs
        | Error _ -> ())
      | Error m -> record out ~text:("error: " ^ m) (Error m))
    texts;
  (out, pooled_ipc_error !errs)

let run_untraced ctx ~setups ~seed ~n =
  let ops = Array.of_list (ops ~seed ~n) in
  let (env, eds), setup_s = repeat_setup ctx ~n:setups ~setup ~release:ignore in
  let texts = Array.make n (Error "not run") in
  let phase =
    timed_loop ctx ~n (fun i -> texts.(i) <- dispatch_output env ~op:"dse" (dse_params ops.(i)))
  in
  let out, errs = outcome_of ~eds ops texts in
  (setup_s, phase, out, errs)

(* --- the traced composition of Dse.Driver.run --- *)

let base = cfg

let sweep =
  match Dse.Sweep.of_json sweep_json with Ok s -> s | Error m -> failwith m

let stat_of samples =
  {
    Dse.Driver.mean = Stats.Summary.mean samples;
    ci95 =
      (match samples with [] | [ _ ] -> 0.0 | _ -> Stats.Summary.ci95_half_width samples);
  }

type call = { ruu : int; cycles : int; committed : int }

(* The public calls Dse.Driver.run makes, in the same order, with a
   span around each layer; the report must equal the dispatched one. *)
let composed spans env calls (o : Oplist.dse_op) =
  let sp name f = Spans.with_span spans name f in
  let r =
    sp "dse.run" @@ fun () ->
    let pts = match Dse.Sweep.expand sweep with Ok p -> p | Error m -> failwith m in
    let spec = Workload.Suite.find o.bench in
    let profile =
      sp "runner.profile" (fun () ->
          Runner.Cache.profile env.Server.Ops.cache base
            ~stream_key:(Printf.sprintf "int:%s:o0:n%d" o.bench length)
            (fun () -> Workload.Suite.stream spec ~length))
    in
    let plan =
      sp "runner.plan" (fun () ->
          Runner.Cache.plan env.Server.Ops.cache ~target_length:synthetic profile)
    in
    let seeds = Synth.Replicate.split_seeds ~master_seed:o.seed ~n:replicas in
    let traces =
      Array.map
        (fun s -> sp "synth.generate" (fun () -> Synth.Generate.generate_of_plan plan ~seed:s))
        seeds
    in
    let evaluated =
      Array.map
        (fun point ->
          let cfg = Dse.Sweep.apply base point in
          let results =
            Array.map
              (fun tr ->
                let m = sp "uarch.pipeline" (fun () -> Synth.Run.run cfg tr) in
                calls :=
                  {
                    ruu = cfg.Config.Machine.ruu_size;
                    cycles = m.Uarch.Metrics.cycles;
                    committed = m.committed;
                  }
                  :: !calls;
                sp "power.result" (fun () -> Statsim.result_of_metrics cfg m))
              traces
          in
          let of_field f = Array.to_list (Array.map f results) in
          ( point,
            stat_of (of_field (fun r -> r.Statsim.ipc)),
            Stats.Summary.mean (of_field (fun r -> r.Statsim.epc)),
            stat_of (of_field (fun r -> r.Statsim.edp)) ))
        (Array.of_list pts)
    in
    let flags =
      sp "dse.pareto" (fun () ->
          Dse.Pareto.frontier_flags
            (Array.map
               (fun (_, (ipc : Dse.Driver.stat), _, (edp : Dse.Driver.stat)) ->
                 {
                   Dse.Pareto.ipc = { value = ipc.mean; ci = ipc.ci95 };
                   edp = { value = edp.mean; ci = edp.ci95 };
                 })
               evaluated))
    in
    {
      Dse.Driver.sweep_name = sweep.Dse.Sweep.sweep_name;
      axes =
        List.map (fun a -> a.Config.Machine.axis_name) (Dse.Sweep.axes_of sweep.Dse.Sweep.spec);
      bench = o.bench;
      replicas;
      seed = o.seed;
      points =
        Array.mapi
          (fun i (point, ipc, epc, edp) ->
            {
              Dse.Driver.point;
              label = Dse.Sweep.label point;
              ipc;
              epc;
              edp;
              on_frontier = flags.(i);
            })
          evaluated;
      frontier_count = Array.fold_left (fun n f -> if f then n + 1 else n) 0 flags;
    }
  in
  sp "runner.render" (fun () ->
      let buf = Buffer.create 2048 in
      let ppf = Format.formatter_of_buffer buf in
      Runner.Report.render Runner.Report.Text ppf (Dse.Driver.to_report r);
      Format.pp_print_flush ppf ();
      Buffer.contents buf)

let run_traced ctx spans env ~eds ~seed ~n =
  let ops = Array.of_list (ops ~seed ~n) in
  let calls = ref [] in
  let texts = Array.make n (Error "not run") in
  let phase =
    timed_loop ctx ~n (fun i ->
        Spans.set_op spans i;
        texts.(i) <- Ok (composed spans env calls ops.(i)))
  in
  Spans.set_op spans (-1);
  let out, _ = outcome_of ~eds ops texts in
  let calls = Array.of_list (List.rev !calls) in
  let named name = Spans.matching spans (String.equal name) in
  let durs name = Spans.durations (named name) in
  (* pipeline spans pair with [calls] in completion order *)
  let pipe = Array.of_list (named "uarch.pipeline") in
  let pipe_per f keep =
    Array.of_list
      (List.filter_map Fun.id
         (Array.to_list
            (Array.mapi
               (fun i s ->
                 if keep calls.(i) then Some (float_of_int (Spans.dur_ns s) /. f calls.(i)) else None)
               pipe)))
  in
  let per_inst c = float_of_int c.committed in
  let total f = float_of_int (Array.fold_left (fun a c -> a + f c) 0 calls) in
  let metrics =
    [
      ("synth.generate_ms", med ~scale:ms (durs "synth.generate"), "ms");
      ( "synth.generate_ns_per_inst",
        med ~scale:(1.0 /. float_of_int synthetic) (durs "synth.generate"),
        "ns" );
      ("uarch.pipeline_ms", med ~scale:ms (durs "uarch.pipeline"), "ms");
      ("uarch.pipeline_ns_per_inst", med (pipe_per per_inst (fun _ -> true)), "ns");
    ]
    @ List.map
        (fun ruu ->
          ( Printf.sprintf "uarch.pipeline_ns_per_inst.ruu%d" ruu,
            med (pipe_per per_inst (fun c -> c.ruu = ruu)),
            "ns" ))
        ruu_sizes
    @ [
        ( "uarch.pipeline_ns_per_cycle",
          med (pipe_per (fun c -> float_of_int c.cycles) (fun _ -> true)),
          "ns" );
        ("uarch.cycles", total (fun c -> c.cycles), "count");
        ("uarch.committed", total (fun c -> c.committed), "count");
        ("dse.run_ms", med ~scale:ms (durs "dse.run"), "ms");
        ("power.result_ms", med ~scale:ms (Spans.sum_by_op ~n (named "power.result")), "ms");
        ("dse.pareto_ms", med ~scale:ms (durs "dse.pareto"), "ms");
        ("runner.render_ms", med ~scale:ms (durs "runner.render"), "ms");
      ]
  in
  (phase, out, metrics)
