(* cli-session: a user's CLI session with a cache dir, in-process. Every
   call gets a fresh Ops.env (new memo, jobs 1) over the pass's store
   dir; each pass starts from an empty store. A cold call collects the
   profile, runs the EDS reference, compiles the plan and writes all
   three to the store (the p90 class); a warm call reads them back and
   runs a short synthetic simulation (the p50 class). *)

open Common
module Oplist = Perfbench.Oplist
module Spans = Perfbench.Spans

let length = 60_000
let synthetic = 20_000

let ops ~seed ~passes =
  Oplist.cli_session ~benches:Workload.Suite.names ~seed ~passes

let params (o : Oplist.cli_op) =
  Json.Obj
    [
      ("bench", Json.Str o.bench);
      ("length", num length);
      ("synthetic", num synthetic);
      ("seed", num o.seed);
    ]

let pass_dir p = Printf.sprintf "pass-%d" p

let dispatched ~store_dir o =
  dispatch_output (env ~store:(Store.open_root store_dir) ()) ~op:"simulate" (params o)

(* --- the traced composition of Server.Ops' simulate --- *)

(* Store keys exactly as Runner.Cache builds them, so the composed op
   fills the store with the same entries as the dispatched one. *)
let stream_key bench = Printf.sprintf "int:%s:o0:n%d" bench length

let base_key sk = Printf.sprintf "%s|%s" sk (Runner.Cache.cfg_key cfg)

let branch_mode = Profile.Branch_profiler.default_delayed cfg

let mode_key =
  match branch_mode with
  | Profile.Branch_profiler.Immediate -> "imm"
  | Profile.Branch_profiler.Delayed { fifo_size; squash_refetch } ->
    Printf.sprintf "del%d%c" fifo_size (if squash_refetch then 's' else 'm')

let reference_key sk =
  Printf.sprintf "reference/fmt%d/%s|max=-|pc=false|pb=false"
    Uarch.Metrics.wire_version (base_key sk)

let profile_key sk =
  Printf.sprintf "profile/fmt%d/%s|k=1|cap=%d|%s|pc=false|pb=false"
    Profile.Serialize.version (base_key sk) Profile.Sfg.dep_cap mode_key

let plan_key digest r = Printf.sprintf "plan/fmt%d/%s|r=%d" Kernel.Plan.version digest r

(* The report text, with the format strings Server.Ops uses. *)
let render (eds : Statsim.result) (ss : Statsim.result) =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%-22s %10s %10s %8s\n" "" "EDS" "statsim" "error";
  let line name get =
    Printf.bprintf buf "%-22s %10.3f %10.3f %7.1f%%\n" name (get eds) (get ss)
      (100.0 *. Stats.Summary.absolute_error ~reference:(get eds) ~predicted:(get ss))
  in
  line "IPC" (fun r -> r.Statsim.ipc);
  line "EPC" (fun r -> r.Statsim.epc);
  line "EDP" (fun r -> r.Statsim.edp);
  Printf.bprintf buf "%-22s %10.2f %10.2f\n" "MPKI"
    (Uarch.Metrics.mpki eds.Statsim.metrics)
    (Uarch.Metrics.mpki ss.Statsim.metrics);
  Buffer.contents buf

type tally = { mutable hits : int; mutable lookups : int; mutable bytes : int }

(* The public calls Ops.simulate makes through Runner.Cache, in the same
   order, with the store tier split into find+decode, compute and
   encode+put so each layer gets its own span. A fresh memo always
   misses, so the memo tier is skipped. *)
let composed spans tally ~store_dir (o : Oplist.cli_op) =
  let sp name f = Spans.with_span spans name f in
  let spec = Workload.Suite.find o.bench in
  sp "op.simulate" @@ fun () ->
  let store = Store.open_root store_dir in
  let lookup ~key ~encode ~decode compute =
    tally.lookups <- tally.lookups + 1;
    match sp "store.read" (fun () -> Option.map decode (Store.find store ~key)) with
    | Some v ->
      tally.hits <- tally.hits + 1;
      v
    | None ->
      let v = compute () in
      sp "store.write" (fun () -> Store.put store ~key (encode v));
      v
  in
  let sk = stream_key o.bench in
  let mk () = Workload.Suite.stream spec ~length in
  let eds =
    sp "runner.reference" (fun () ->
        lookup ~key:(reference_key sk)
          ~encode:(fun (r : Statsim.result) -> Uarch.Metrics.encode r.metrics)
          ~decode:(fun s -> Statsim.result_of_metrics cfg (Uarch.Metrics.decode s))
          (fun () -> sp "uarch.eds" (fun () -> Statsim.reference cfg (mk ()))))
  in
  let p =
    sp "runner.profile" (fun () ->
        lookup ~key:(profile_key sk) ~encode:Profile.Serialize.to_string
          ~decode:Profile.Serialize.of_string (fun () ->
            sp "profile.collect" (fun () ->
                Profile.Stat_profile.collect ~k:1 ~dep_cap:Profile.Sfg.dep_cap
                  ~branch_mode ~perfect_caches:false ~perfect_bpred:false cfg (mk ()))))
  in
  let plan =
    sp "runner.plan" (fun () ->
        let r =
          Kernel.Compile.derive_reduction ~target_length:synthetic
            (max 1 p.Profile.Stat_profile.instructions)
        in
        let digest = Digest.to_hex (Digest.string (Profile.Serialize.to_string p)) in
        lookup ~key:(plan_key digest r) ~encode:Kernel.Plan.to_string
          ~decode:Kernel.Plan.of_string (fun () ->
            sp "kernel.compile" (fun () -> Kernel.Compile.plan ~reduction:r p)))
  in
  let tr = sp "synth.generate" (fun () -> Synth.Generate.generate_of_plan plan ~seed:o.seed) in
  let m = sp "uarch.pipeline" (fun () -> Synth.Run.run cfg tr) in
  let ss = sp "power.result" (fun () -> Statsim.result_of_metrics cfg m) in
  let text = sp "render" (fun () -> render eds ss) in
  tally.bytes <- tally.bytes + (Store.stats store).Store.bytes_written;
  (text, Synth.Trace.length tr, m.Uarch.Metrics.committed)

(* --- the workload --- *)

(* Discarded warm-up of both op classes on a scratch store, for three
   workloads: a few hundred milliseconds of fixed work. *)
let setup ctx i =
  let dir = fresh_dir ctx (Printf.sprintf "setup-%d" i) in
  List.iter
    (fun bench ->
      let o = { Oplist.pass = 0; bench; cold = true; seed = 1 } in
      ignore (dispatched ~store_dir:dir o);
      ignore (dispatched ~store_dir:dir { o with cold = false; seed = 2 }))
    [ "gcc"; "twolf"; "vortex" ];
  rm_rf dir

let check text = Result.map ignore (check_simulate text)


(* Untraced: every op through Ops.dispatch. *)
let run_untraced ctx ~setups ~seed ~passes =
  let ops = Array.of_list (ops ~seed ~passes) in
  let (), setup_s = repeat_setup ctx ~n:setups ~setup:(setup ctx) ~release:ignore in
  for p = 0 to passes - 1 do
    ignore (fresh_dir ctx (pass_dir p))
  done;
  let texts = Array.make (Array.length ops) (Error "not run") in
  let phase =
    timed_loop ctx ~n:(Array.length ops) (fun i ->
        let o = ops.(i) in
        texts.(i) <- dispatched ~store_dir:(pass_dir o.pass) o)
  in
  let out = outcome () in
  let errs = ref [] in
  Array.iteri
    (fun i r ->
      match r with
      | Ok text ->
        record out ~text (check text);
        Result.iter
          (fun (eds, ss) -> errs := (ops.(i).Oplist.bench, eds, ss) :: !errs)
          (check_simulate text)
      | Error m -> record out ~text:("error: " ^ m) (Error m))
    texts;
  for p = 0 to passes - 1 do
    rm_rf (pass_dir p)
  done;
  (setup_s, phase, out, pooled_ipc_error !errs)

(* Traced: the composed op, spans around every layer call. Returns the
   outcome (whose digest must equal the untraced one) and the per-layer
   metrics. *)
let run_traced ctx spans ~seed ~passes =
  let ops = Array.of_list (ops ~seed ~passes) in
  for p = 0 to passes - 1 do
    ignore (fresh_dir ctx (pass_dir p))
  done;
  let tally = { hits = 0; lookups = 0; bytes = 0 } in
  let sizes = Array.make (Array.length ops) (0, 0) in
  let out = outcome () in
  let phase =
    timed_loop ctx ~n:(Array.length ops) (fun i ->
        let o = ops.(i) in
        Spans.set_op spans i;
        let text, trace_len, committed = composed spans tally ~store_dir:(pass_dir o.pass) o in
        sizes.(i) <- (trace_len, committed);
        record out ~text (check text))
  in
  (* the instruction stream alone, outside the timed ops *)
  Array.iteri
    (fun i (o : Oplist.cli_op) ->
      if o.cold then begin
        Spans.set_op spans i;
        Spans.with_span spans "workload.stream" (fun () ->
            let next = Workload.Suite.stream (Workload.Suite.find o.bench) ~length in
            let rec drain () = match next () with Some _ -> drain () | None -> () in
            drain ())
      end)
    ops;
  Spans.set_op spans (-1);
  for p = 0 to passes - 1 do
    rm_rf (pass_dir p)
  done;
  let n = Array.length ops in
  let named name = Spans.matching spans (String.equal name) in
  (* one value per call, divided by a per-call size *)
  let calls ?(per = fun _ -> 1.0) name =
    Array.of_list (List.map (fun s -> float_of_int (Spans.dur_ns s) /. per s) (named name))
  in
  (* per-op sums over the ops of one class *)
  let per_op ~cold name =
    Array.mapi (fun i v -> if ops.(i).cold = cold then v else nan) (Spans.sum_by_op ~n (named name))
  in
  let per_len _ = float_of_int length in
  let per_trace (s : Spans.span) = float_of_int (fst sizes.(s.op)) in
  let per_committed (s : Spans.span) = float_of_int (snd sizes.(s.op)) in
  let metrics =
    [
      ("profile.collect_ms", med ~scale:ms (calls "profile.collect"), "ms");
      ("profile.ns_per_inst", med (calls ~per:per_len "profile.collect"), "ns");
      ("workload.ns_per_inst", med (calls ~per:per_len "workload.stream"), "ns");
      ("uarch.eds_ms", med ~scale:ms (calls "uarch.eds"), "ms");
      ("uarch.eds_ns_per_inst", med (calls ~per:per_len "uarch.eds"), "ns");
      ("kernel.compile_ms", med ~scale:ms (calls "kernel.compile"), "ms");
      ("store.write_ms", med ~scale:ms (per_op ~cold:true "store.write"), "ms");
      ("store.bytes_written", float_of_int tally.bytes, "bytes");
      ("store.read_ms", med ~scale:ms (per_op ~cold:false "store.read"), "ms");
      ( "runner.store_hit_ratio",
        float_of_int tally.hits /. float_of_int (max 1 tally.lookups),
        "ratio" );
      ("synth.generate_ms", med ~scale:ms (calls "synth.generate"), "ms");
      ("synth.generate_ns_per_inst", med (calls ~per:per_trace "synth.generate"), "ns");
      ("uarch.pipeline_ms", med ~scale:ms (calls "uarch.pipeline"), "ms");
      ("uarch.pipeline_ns_per_inst", med (calls ~per:per_committed "uarch.pipeline"), "ns");
    ]
  in
  (phase, out, metrics)
