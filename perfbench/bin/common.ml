(* What every workload shares: the run context with its probe samples,
   the timed loop, reply checks, the output digest and process stats. *)

module Json = Telemetry.Json

let cfg = Config.Machine.baseline

(* Probe time of the reference host (2-vCPU x86-64 VM, OCaml 5.1.1),
   fixed so that scaled figures from different runs and commits share
   one unit. *)
let probe_ref_ms = 6.5

(* Probe samples spread evenly over one timed phase. *)
let probes_per_phase = 48

type ctx = {
  probe : Perfbench.Probe.client;
  mutable probe_ms : float list;
  tmp : string;  (** per-run temp root, removed at exit *)
}

let sample_probe ctx =
  let ms = Perfbench.Probe.request ctx.probe in
  ctx.probe_ms <- ms :: ctx.probe_ms;
  ms

let probe_median ctx = Perfbench.Stat.median (Array.of_list ctx.probe_ms)

(* Median of the finite values, in the unit given by [scale] (ns to ms
   with 1e-6); nan when there are none, which marks the run incorrect. *)
let med ?(scale = 1.0) a =
  match List.filter Float.is_finite (Array.to_list a) with
  | [] -> nan
  | l -> scale *. Perfbench.Stat.median (Array.of_list l)

let ms = 1e-6

(* --- temp dirs --- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir ctx name =
  let d = Filename.concat ctx.tmp name in
  rm_rf d;
  Unix.mkdir d 0o700;
  d

(* --- setup and the timed loop --- *)

(* Run [setup] [n] times, each bracketed by probe samples; returns the
   last setup's state and every setup's wall time in seconds. [release]
   tears down all but the last state. *)
let repeat_setup ctx ~n ~setup ~release =
  let rec go i acc =
    ignore (sample_probe ctx);
    let t0 = Perfbench.Probe.now_ns () in
    let st = setup i in
    let dt = float_of_int (Perfbench.Probe.now_ns () - t0) /. 1e9 in
    ignore (sample_probe ctx);
    if i + 1 < n then begin
      release st;
      go (i + 1) (dt :: acc)
    end
    else (st, List.rev (dt :: acc))
  in
  go 0 []

type phase = {
  latency_ns : int array;  (** per op, in op-list order *)
  phase_probe_ms : float;  (** median probe over this phase *)
}

(* Run [op i] for each index, timing each call alone. Probe samples are
   taken at op boundaries, evenly over the phase, outside op times. *)
let timed_loop ctx ~n op =
  let every = max 1 (n / probes_per_phase) in
  let probes = ref [] in
  let probe () = probes := sample_probe ctx :: !probes in
  Gc.full_major ();
  let lat = Array.make n 0 in
  for i = 0 to n - 1 do
    if i mod every = 0 then probe ();
    let t0 = Perfbench.Probe.now_ns () in
    op i;
    lat.(i) <- Perfbench.Probe.now_ns () - t0
  done;
  probe ();
  { latency_ns = lat; phase_probe_ms = Perfbench.Stat.median (Array.of_list !probes) }

(* --- reply checks --- *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few messages *)
  mutable digest : string;  (** running MD5 over every output, in order *)
}

let outcome () = { attempted = 0; failed = 0; failures = []; digest = "" }

(* Count one op: it fails when [check] returns an error. Every output
   text, failed or not, enters the digest. *)
let record o ~text check =
  o.attempted <- o.attempted + 1;
  o.digest <- Digest.to_hex (Digest.string (o.digest ^ text));
  match check with
  | Ok () -> ()
  | Error m ->
    o.failed <- o.failed + 1;
    if List.length o.failures < 5 then o.failures <- m :: o.failures

let ( let* ) = Result.bind

(* The first line of a report that matches a scanf format. *)
let scan_line fmt text f =
  List.find_map
    (fun line ->
      try Some (Scanf.sscanf line fmt f)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    (String.split_on_char '\n' text)

let ipc_in_range ipc =
  Float.is_finite ipc && ipc > 0.0 && ipc <= float_of_int cfg.Config.Machine.issue_width

(* The simulate report's (EDS, statsim) pair on one row. *)
let simulate_row text name =
  Option.to_result ~none:("simulate: no " ^ name ^ " row")
    (scan_line (Scanf.format_from_string (name ^ " %f %f") "%f %f") text (fun e s -> (e, s)))

(* simulate: IPC, EPC and EDP finite, 0 < IPC <= issue width; returns
   the (EDS, statsim) IPC pair. *)
let check_simulate text =
  let* eds, ipc = simulate_row text "IPC" in
  let* _, epc = simulate_row text "EPC" in
  let* _, edp = simulate_row text "EDP" in
  if not (Float.is_finite epc && Float.is_finite edp) then Error "simulate: non-finite EPC/EDP"
  else if not (ipc_in_range ipc) then
    Error (Printf.sprintf "simulate: IPC %g outside (0, issue width]" ipc)
  else Ok (eds, ipc)

(* The systematic IPC error of statsim against EDS, in percent: per
   workload, the error of the mean statsim IPC over that workload's
   replies, averaged over workloads. Pooling before taking the absolute
   value keeps per-seed sampling noise out of the figure.
   [samples] holds (workload, EDS IPC, statsim IPC) per reply. *)
let pooled_ipc_error samples =
  let benches = List.sort_uniq compare (List.map (fun (b, _, _) -> b) samples) in
  Stats.Summary.mean
    (List.map
       (fun b ->
         let mine = List.filter (fun (b', _, _) -> b' = b) samples in
         let eds = match mine with (_, e, _) :: _ -> e | [] -> nan in
         let ss = Stats.Summary.mean (List.map (fun (_, _, s) -> s) mine) in
         100.0 *. Stats.Summary.absolute_error ~reference:eds ~predicted:ss)
       benches)

let dispatch_output env ~op params =
  match Server.Ops.dispatch env ~op params with
  | Ok r -> Ok (Server.Ops.output r)
  | Error m -> Error m

(* A fresh, explicit in-process environment: jobs 1, no trace, nothing
   taken from REPRO_* variables. *)
let env ?store () =
  {
    Server.Ops.cache = Runner.Cache.create ?store ();
    jobs = 1;
    check = ignore;
    trace = None;
  }

(* --- process stats --- *)

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line -> (
          try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
          with Scanf.Scan_failure _ | End_of_file | Failure _ -> scan ())
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

let num i = Json.Num (float_of_int i)
