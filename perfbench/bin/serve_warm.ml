(* serve-warm: `statsim serve` with a warm memo. A child daemon (workers
   1, jobs 1, no store) holds the memo of four workloads; one client
   connection drives a closed loop with no think time over four op
   classes: estimate (a memo hit), a short warm simulate, plain
   replicate (Synth.Replicate) and stratified simulate (Synth.Stratify).
   The daemon's frame -> parse -> queue -> dispatch -> render path is
   most of an estimate; a short simulate holds the p50 and replication
   the p90. Profile, EDS, compile and store are bypassed. *)

open Common
module Oplist = Perfbench.Oplist
module Spans = Perfbench.Spans

let length = 100_000
let synthetic = 5_000
let replicate_replicas = 16

(* stratified: 2 strata x pilot 2, at most 6 replicas; with 16 plain
   replicas, replicate stays the slowest class and holds the p90 *)
let strata = 2
let pilot = 2
let stratify_max = 6
let ci_target = 5.0
let benches = [ "bzip2"; "gcc"; "twolf"; "vortex" ]
let socket = "serve.sock"

let ops ~seed ~n = Oplist.serve_warm ~benches ~seed ~ops:n

let request (o : Oplist.serve_op) =
  let common =
    [ ("bench", Json.Str o.bench); ("length", num length); ("synthetic", num synthetic) ]
  in
  let seeded = common @ [ ("seed", num o.seed) ] in
  match o.cls with
  | Oplist.Estimate -> ("estimate", Json.Obj common)
  | Oplist.Simulate -> ("simulate", Json.Obj seeded)
  | Oplist.Replicate -> ("replicate", Json.Obj (seeded @ [ ("replicas", num replicate_replicas) ]))
  | Oplist.Stratify ->
    ( "simulate",
      Json.Obj
        (seeded
        @ [
            ("stratify", Json.Bool true);
            ("strata", num strata);
            ("pilot", num pilot);
            ("ci_target", Json.Num ci_target);
            ("replicas", num stratify_max);
          ]) )

(* --- the daemon child --- *)

type daemon = { pid : int; conn : Server.Client.t }

let rec connect deadline =
  match Server.Client.connect ~socket with
  | c -> c
  | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
    Unix.sleepf 0.005;
    connect deadline

(* Fork before any domain or thread exists in this process: the child
   starts the daemon's worker domain, the parent stays single-threaded
   and runs only the client. *)
let spawn ~obs =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let log = Unix.openfile "daemon.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o600 in
    Unix.dup2 log Unix.stderr;
    Telemetry.set_enabled false;
    (* a daemon whose parent died drains and exits on its own *)
    let parent = Unix.getppid () in
    ignore
      (Thread.create
         (fun () ->
           while true do
             Unix.sleepf 0.5;
             if Unix.getppid () <> parent then Unix.kill (Unix.getpid ()) Sys.sigterm
           done)
         ());
    let config =
      {
        (Server.Daemon.default_config ~socket_path:socket) with
        Server.Daemon.workers = 1;
        jobs = 1;
        cache_dir = None;
        obs;
      }
    in
    (try Server.Daemon.serve config with _ -> Unix._exit 2);
    Unix._exit 0
  | pid -> (
    match connect (Unix.gettimeofday () +. 30.0) with
    | conn -> { pid; conn }
    | exception e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      raise e)

(* SIGTERM-drain the daemon and reap it; SIGKILL if it does not exit in
   time. Safe to call twice. *)
let stop d =
  (try Server.Client.close d.conn with _ -> ());
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | _, _ ->
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        reap ()
      | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ()

let call d ~op params =
  match Server.Client.call d.conn ~op params with
  | Error m -> Error ("transport: " ^ m)
  | Ok { Server.Protocol.outcome = Error (code, m); _ } ->
    Error (Server.Protocol.code_name code ^ ": " ^ m)
  | Ok { Server.Protocol.outcome = Ok result; _ } -> Ok result

let call_exn d ~op params =
  match call d ~op params with Ok r -> r | Error m -> failwith ("serve-warm setup: " ^ m)

(* Warm the memo of every workload (simulate fills profile, plan and
   EDS reference; estimate fills the estimate tier), then one discarded
   op of each class. *)
let warm d =
  List.iter
    (fun bench ->
      List.iter
        (fun cls ->
          let op, params = request { Oplist.cls; bench; seed = 1 } in
          ignore (call_exn d ~op params))
        [ Oplist.Simulate; Oplist.Estimate ])
    benches;
  List.iter
    (fun cls ->
      let op, params = request { Oplist.cls; bench = "gcc"; seed = 2 } in
      ignore (call_exn d ~op params))
    [ Oplist.Replicate; Oplist.Stratify ]

let setup ~obs _i =
  let d = spawn ~obs in
  match warm d with
  | () -> d
  | exception e ->
    stop d;
    raise e

(* --- reply checks --- *)

(* What a checked reply yields beyond pass/fail. *)
type checked = Nothing | Ipc of float * float  (** EDS, statsim *) | Replicas of int

let check (o : Oplist.serve_op) text =
  let need what = Option.to_result ~none:(Oplist.serve_class_name o.cls ^ ": no " ^ what) in
  let in_range ipc = if ipc_in_range ipc then Ok () else Error "IPC out of range" in
  match o.cls with
  | Oplist.Simulate -> Result.map (fun (eds, ss) -> Ipc (eds, ss)) (check_simulate text)
  | Oplist.Estimate ->
    let* ipc = need "estimated IPC" (scan_line " estimated IPC %f" text Fun.id) in
    Result.map (fun () -> Nothing) (in_range ipc)
  | Oplist.Replicate ->
    let* n = need "replica count" (scan_line "replication: %d replicas" text Fun.id) in
    let* ipc = need "IPC" (scan_line " IPC mean %f" text Fun.id) in
    if n <> replicate_replicas then Error (Printf.sprintf "replicate: %d replicas" n)
    else Result.map (fun () -> Nothing) (in_range ipc)
  | Oplist.Stratify ->
    let* n, h =
      need "replica count"
        (scan_line "stratified replication: %d replicas over %d strata" text (fun n h -> (n, h)))
    in
    let* ipc = need "IPC" (scan_line " IPC mean %f" text Fun.id) in
    if n < pilot * h then Error (Printf.sprintf "stratify: %d replicas < pilot x %d strata" n h)
    else Result.map (fun () -> Replicas n) (in_range ipc)

type phase_result = {
  phase : phase;
  out : outcome;
  ipc_error : float;
  replicas : float list;
  replies : (Json.t, string) result array;
}

let drive ctx d (ops : Oplist.serve_op array) ~traced =
  let n = Array.length ops in
  let replies = Array.make n (Error "not run") in
  let phase =
    timed_loop ctx ~n (fun i ->
        let op, params = request ops.(i) in
        let params =
          if traced then
            match params with
            | Json.Obj f -> Json.Obj (f @ [ ("trace", Json.Bool true) ])
            | p -> p
          else params
        in
        replies.(i) <- call d ~op params)
  in
  let out = outcome () in
  let errs = ref [] and reps = ref [] in
  Array.iteri
    (fun i r ->
      match r with
      | Ok result -> (
        let text = Server.Ops.output result in
        let c = check ops.(i) text in
        record out ~text (Result.map ignore c);
        match c with
        | Ok (Ipc (eds, ss)) -> errs := (ops.(i).bench, eds, ss) :: !errs
        | Ok (Replicas n) -> reps := float_of_int n :: !reps
        | Ok Nothing | Error _ -> ())
      | Error m -> record out ~text:("error: " ^ m) (Error m))
    replies;
  { phase; out; ipc_error = pooled_ipc_error !errs; replicas = List.rev !reps; replies }

(* CLI = serve: the first reply of each class, byte-compared with an
   in-process Ops.dispatch of the same params. *)
let cli_equals_serve (ops : Oplist.serve_op array) replies =
  let env = env () in
  List.filter_map
    (fun (cls, _) ->
      match List.find_opt (fun i -> ops.(i).Oplist.cls = cls) (List.init (Array.length ops) Fun.id) with
      | None -> None
      | Some i -> (
        let op, params = request ops.(i) in
        match (replies.(i), Server.Ops.dispatch env ~op params) with
        | Ok served, Ok local when Json.to_string served = Json.to_string local -> None
        | _ -> Some (Printf.sprintf "%s: serve reply differs from in-process dispatch" op)))
    Oplist.serve_classes

let cache_stats d =
  let r = call_exn d ~op:"cache-stats" (Json.Obj []) in
  fun k -> match Json.member k r with Some (Json.Num v) -> v | _ -> 0.0

let run_untraced ctx ~setups ~seed ~n =
  let ops = Array.of_list (ops ~seed ~n) in
  let d, setup_s = repeat_setup ctx ~n:setups ~setup:(setup ~obs:false) ~release:stop in
  let r, rss =
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        let r = drive ctx d ops ~traced:false in
        (r, peak_rss_mb (string_of_int d.pid)))
  in
  List.iter (fun m -> record r.out ~text:"" (Error m)) (cli_equals_serve ops r.replies);
  (setup_s, r, rss)

(* --- traced: the daemon's own request span tree --- *)

let rec walk f parent (node : Json.t) =
  let num k = match Json.member k node with Some (Json.Num v) -> int_of_float v | _ -> 0 in
  let name = match Json.member "name" node with Some (Json.Str s) -> s | _ -> "?" in
  let id = f ~name ~parent ~start_ns:(num "start_ns") ~dur_ns:(num "dur_ns") in
  match Json.member "children" node with
  | Some (Json.Arr cs) -> List.iter (walk f id) cs
  | _ -> ()

let run_traced ctx spans ~seed ~n =
  let ops = Array.of_list (ops ~seed ~n) in
  let d = setup ~obs:true 0 in
  let r, hit_ratio =
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        let before = cache_stats d in
        let r = drive ctx d ops ~traced:true in
        let after = cache_stats d in
        let delta k = after k -. before k in
        let sum ks = List.fold_left (fun a k -> a +. delta k) 0.0 ks in
        let hits = sum [ "profile_hits"; "plan_hits"; "reference_hits"; "estimate_hits" ] in
        let misses = sum [ "profile_misses"; "plan_misses"; "reference_misses"; "estimate_misses" ] in
        (r, hits /. Float.max 1.0 (hits +. misses)))
  in
  (* server spans, re-rooted under one client-side round-trip span per
     op; the daemon parses a request before its request span opens, so
     [parse] hangs off the round trip beside [request] *)
  Array.iteri
    (fun i reply ->
      Spans.set_op spans i;
      let rt =
        Spans.add spans ~name:"client.round_trip" ~parent:(-1) ~start_ns:0
          ~stop_ns:r.phase.latency_ns.(i)
      in
      match Option.bind (Result.to_option reply) (Json.member "trace") with
      | Some tr ->
        Option.iter
          (walk
             (fun ~name ~parent ~start_ns ~dur_ns ->
               let parent = if name = "parse" then rt else parent in
               Spans.add spans ~name:("server." ^ name) ~parent ~start_ns
                 ~stop_ns:(start_ns + dur_ns))
             rt)
          (Json.member "root" tr)
      | None -> ())
    r.replies;
  Spans.set_op spans (-1);
  let matching keep = Spans.matching spans keep in
  (* per-op sums, over the ops of the selected classes that have one *)
  let per_op ?(cls = fun _ -> true) keep =
    Array.mapi
      (fun i v -> if cls ops.(i).Oplist.cls then v else nan)
      (Spans.sum_by_op ~n (matching keep))
  in
  let is n = String.equal n in
  (* round trip minus the server's parse and request spans: the
     round-trip span's self time *)
  let transport =
    Array.of_list
      (List.filter_map
         (fun ((s : Spans.span), self) ->
           if s.name = "client.round_trip" then Some (float_of_int self) else None)
         (Spans.self_ns (matching (fun _ -> true))))
  in
  let metrics =
    List.map
      (fun (c, _) ->
        ( "server.round_trip_ms." ^ Oplist.serve_class_name c,
          med ~scale:ms (per_op ~cls:(( = ) c) (is "client.round_trip")),
          "ms" ))
      Oplist.serve_classes
    @ [
        ("server.parse_ms", med ~scale:ms (per_op (is "server.parse")), "ms");
        ("server.queue_wait_ms", med ~scale:ms (per_op (is "server.queue_wait")), "ms");
        ("server.render_ms", med ~scale:ms (per_op (is "server.render")), "ms");
        ( "runner.memo_lookup_ms",
          med ~scale:ms (per_op (String.starts_with ~prefix:"server.cache.")),
          "ms" );
        ("server.transport_ms", med ~scale:ms transport, "ms");
        ( "analytical.estimate_ms",
          med ~scale:ms (per_op ~cls:(( = ) Oplist.Estimate) (is "server.estimate.solve")),
          "ms" );
        ( "synth.simulate_run_ms",
          med ~scale:ms (per_op ~cls:(( = ) Oplist.Simulate) (is "server.simulate.run")),
          "ms" );
        ( "synth.replicate_ms",
          med ~scale:ms (per_op ~cls:(( = ) Oplist.Replicate) (is "server.replicate.run")),
          "ms" );
        ( "synth.stratify_ms",
          med ~scale:ms (per_op ~cls:(( = ) Oplist.Stratify) (is "server.replicate.run")),
          "ms" );
        ("synth.replicas_per_op", Stats.Summary.mean r.replicas, "count");
        ("runner.memo_hit_ratio", hit_ratio, "ratio");
      ]
  in
  (r, metrics)
