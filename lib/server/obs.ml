(* The daemon's observability plane: per-op rolling SLO windows,
   cumulative outcome counters, in-flight/queue gauges, a structured
   JSON access log, and the `metrics` op's two renders (JSON and
   Prometheus text).

   Like Telemetry, this is a process-global registry behind one atomic
   enable flag: with observability disabled every hook in the daemon's
   hot path is a single [Atomic.get] and a branch — no clock reads, no
   allocation — so the instrumentation can live in the request path
   permanently without moving the gated serve bench numbers. *)

module Json = Telemetry.Json

type outcome =
  | Ok_reply
  | Err of Protocol.error_code

let outcome_name = function
  | Ok_reply -> "ok"
  | Err c -> Protocol.code_name c

let all_outcomes =
  [
    Ok_reply;
    Err Protocol.Bad_request;
    Err Protocol.Overloaded;
    Err Protocol.Deadline_exceeded;
    Err Protocol.Cancelled;
    Err Protocol.Internal;
  ]

let n_outcomes = List.length all_outcomes

let outcome_index = function
  | Ok_reply -> 0
  | Err Protocol.Bad_request -> 1
  | Err Protocol.Overloaded -> 2
  | Err Protocol.Deadline_exceeded -> 3
  | Err Protocol.Cancelled -> 4
  | Err Protocol.Internal -> 5

(* --- enable flag --- *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* --- windows --- *)

let ns_per_s = 1_000_000_000

type win_pair = { w1m : Telemetry.Window.t; w5m : Telemetry.Window.t }

let make_pair ?sketch () =
  {
    w1m = Telemetry.Window.create ?sketch ~window_ns:(60 * ns_per_s) ~slots:6 ();
    w5m =
      Telemetry.Window.create ?sketch ~window_ns:(300 * ns_per_s) ~slots:10 ();
  }

type cell = {
  op : string;
  outcomes : int Atomic.t array;  (* cumulative, indexed by outcome_index *)
  service : win_pair;  (* service-time sketch windows *)
  queue : win_pair;  (* queue-wait sketch windows *)
  total_w : win_pair;  (* count-only: every recorded request *)
  deadline_w : win_pair;  (* count-only: deadline_exceeded outcomes *)
  shed_w : win_pair;  (* count-only: overloaded outcomes *)
}

let registry_mutex = Mutex.create ()
let cells : (string, cell) Hashtbl.t = Hashtbl.create 16
let inflight = Atomic.make 0
let queue_depth = Atomic.make 0

(* Op names are client-supplied strings: without an allowlist, a remote
   client spamming random names would mint an unbounded number of cells
   (each holding ~22k window slots) and explode metric cardinality.
   The daemon registers the dispatchable op set at startup; anything
   else folds into one "unknown" bucket. The allowlist survives
   [reset] — it describes the server, not the traffic. *)
let unknown_op = "unknown"
let known_ops : (string, unit) Hashtbl.t = Hashtbl.create 16

let set_known_ops ops =
  Mutex.lock registry_mutex;
  Hashtbl.reset known_ops;
  List.iter (fun op -> Hashtbl.replace known_ops op ()) ops;
  Mutex.unlock registry_mutex

let cell op =
  Mutex.lock registry_mutex;
  let op = if Hashtbl.mem known_ops op then op else unknown_op in
  let c =
    match Hashtbl.find_opt cells op with
    | Some c -> c
    | None ->
      let c =
        {
          op;
          outcomes = Array.init n_outcomes (fun _ -> Atomic.make 0);
          service = make_pair ();
          queue = make_pair ();
          total_w = make_pair ~sketch:false ();
          deadline_w = make_pair ~sketch:false ();
          shed_w = make_pair ~sketch:false ();
        }
      in
      Hashtbl.add cells op c;
      c
  in
  Mutex.unlock registry_mutex;
  c

let incr_inflight () = if enabled () then ignore (Atomic.fetch_and_add inflight 1)
let decr_inflight () =
  if enabled () then ignore (Atomic.fetch_and_add inflight (-1))

let set_queue_depth n = if enabled () then Atomic.set queue_depth n

let record ?now ~op ~(outcome : outcome) ~queue_ns ~service_ns () =
  if enabled () then begin
    let c = cell op in
    ignore (Atomic.fetch_and_add c.outcomes.(outcome_index outcome) 1);
    let obs w v =
      Telemetry.Window.observe ?now w.w1m v;
      Telemetry.Window.observe ?now w.w5m v
    in
    obs c.total_w 0;
    (match outcome with
    | Err Protocol.Deadline_exceeded -> obs c.deadline_w 0
    | Err Protocol.Overloaded -> obs c.shed_w 0
    | _ -> ());
    (* sheds never reach a worker: no service/queue sample for them *)
    (match outcome with
    | Err Protocol.Overloaded -> ()
    | _ ->
      obs c.queue queue_ns;
      obs c.service service_ns)
  end

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.reset cells;
  Mutex.unlock registry_mutex;
  Atomic.set inflight 0;
  Atomic.set queue_depth 0

(* --- JSON exposition --- *)

let sorted_cells () =
  Mutex.lock registry_mutex;
  let l = Hashtbl.fold (fun _ c acc -> c :: acc) cells [] in
  Mutex.unlock registry_mutex;
  List.sort (fun a b -> String.compare a.op b.op) l

let num i = Json.Num (float_of_int i)

let stat_json (s : Telemetry.Window.stat) =
  Json.Obj
    [
      ("count", num s.w_count);
      ("sum_ns", num s.w_sum);
      ("mean_ns", Json.Num s.w_mean);
      ("p50_ns", num s.w_p50);
      ("p95_ns", num s.w_p95);
      ("p99_ns", num s.w_p99);
    ]

let window_json ?now c which =
  let pick w = match which with `W1m -> w.w1m | `W5m -> w.w5m in
  let total = Telemetry.Window.count ?now (pick c.total_w) in
  let ratio n = if total = 0 then 0.0 else float_of_int n /. float_of_int total in
  Json.Obj
    [
      ("requests", num total);
      ("service", stat_json (Telemetry.Window.query ?now (pick c.service)));
      ("queue", stat_json (Telemetry.Window.query ?now (pick c.queue)));
      ( "deadline_miss_ratio",
        Json.Num (ratio (Telemetry.Window.count ?now (pick c.deadline_w))) );
      ( "shed_ratio",
        Json.Num (ratio (Telemetry.Window.count ?now (pick c.shed_w))) );
    ]

let metrics_json ?now () =
  let ops =
    List.map
      (fun c ->
        let requests =
          Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.outcomes
        in
        Json.Obj
          [
            ("op", Json.Str c.op);
            ("requests", num requests);
            ( "outcomes",
              Json.Obj
                (List.map
                   (fun o ->
                     (outcome_name o, num (Atomic.get c.outcomes.(outcome_index o))))
                   all_outcomes) );
            ( "windows",
              Json.Obj
                [
                  ("1m", window_json ?now c `W1m);
                  ("5m", window_json ?now c `W5m);
                ] );
          ])
      (sorted_cells ())
  in
  Json.Obj
    [
      ("enabled", Json.Bool (enabled ()));
      ("inflight", num (Atomic.get inflight));
      ("queue_depth", num (Atomic.get queue_depth));
      ("ops", Json.Arr ops);
    ]

(* --- Prometheus exposition --- *)

let prometheus ?now () =
  let buf = Buffer.create 4096 in
  (* registry instruments first (statsim_counter_total, statsim_span_*,
     statsim_hist_*, ...) *)
  Buffer.add_string buf (Telemetry.render_prometheus (Telemetry.snapshot ()));
  let family = Telemetry.prom_type buf and line = Telemetry.prom_sample buf in
  let cs = sorted_cells () in
  family "statsim_op_requests_total" "counter";
  List.iter
    (fun c ->
      List.iter
        (fun o ->
          line "statsim_op_requests_total"
            [ ("op", c.op); ("outcome", outcome_name o) ]
            (float_of_int (Atomic.get c.outcomes.(outcome_index o))))
        all_outcomes)
    cs;
  let windowed name typ pick =
    family name typ;
    List.iter
      (fun c ->
        List.iter
          (fun (wname, which) -> pick c wname which)
          [ ("1m", `W1m); ("5m", `W5m) ])
      cs
  in
  let quantiles name sel =
    windowed name "gauge" (fun c wname which ->
        let w = sel c in
        let w = match which with `W1m -> w.w1m | `W5m -> w.w5m in
        let s = Telemetry.Window.query ?now w in
        List.iter
          (fun (q, v) ->
            line name
              [ ("op", c.op); ("window", wname); ("quantile", q) ]
              (float_of_int v))
          [ ("0.5", s.w_p50); ("0.95", s.w_p95); ("0.99", s.w_p99) ])
  in
  quantiles "statsim_op_service_ns" (fun c -> c.service);
  quantiles "statsim_op_queue_ns" (fun c -> c.queue);
  let ratios name sel =
    windowed name "gauge" (fun c wname which ->
        let pick w = match which with `W1m -> w.w1m | `W5m -> w.w5m in
        let total = Telemetry.Window.count ?now (pick c.total_w) in
        let n = Telemetry.Window.count ?now (pick (sel c)) in
        line name
          [ ("op", c.op); ("window", wname) ]
          (if total = 0 then 0.0 else float_of_int n /. float_of_int total))
  in
  ratios "statsim_op_deadline_miss_ratio" (fun c -> c.deadline_w);
  ratios "statsim_op_shed_ratio" (fun c -> c.shed_w);
  family "statsim_inflight" "gauge";
  line "statsim_inflight" [] (float_of_int (Atomic.get inflight));
  family "statsim_queue_depth" "gauge";
  line "statsim_queue_depth" [] (float_of_int (Atomic.get queue_depth));
  Buffer.contents buf

(* --- structured access log --- *)

module Access_log = struct
  (* One JSON line per request (subject to 1-in-[sample] sampling),
     buffered on an out_channel guarded by a mutex; [flush] is called
     from the daemon's SIGTERM drain so a killed service still leaves a
     well-formed log. *)

  type t = {
    oc : out_channel;
    mutex : Mutex.t;
    sample : int;
    seq : int Atomic.t;
  }

  let open_ ~path ~sample =
    {
      oc = open_out_gen [ Open_append; Open_creat ] 0o644 path;
      mutex = Mutex.create ();
      sample = max 1 sample;
      seq = Atomic.make 0;
    }

  let record t ~id ~op ~outcome ~queue_ns ~service_ns ~bytes ~traced =
    let n = Atomic.fetch_and_add t.seq 1 in
    if n mod t.sample = 0 then begin
      (* timings are [None] when nothing was measured (obs disabled and
         the request untraced, or shed at admission): emit null rather
         than a 0 that reads as a real zero-latency measurement *)
      let opt_ns = function Some v -> num v | None -> Json.Null in
      let line =
        Json.to_string
          (Json.Obj
             [
               ("ts", Json.Num (Unix.gettimeofday ()));
               ("id", match id with Some i -> num i | None -> Json.Null);
               ("op", Json.Str op);
               ("outcome", Json.Str (outcome_name outcome));
               ("queue_ns", opt_ns queue_ns);
               ("service_ns", opt_ns service_ns);
               ("bytes", num bytes);
               ("traced", Json.Bool traced);
             ])
      in
      Mutex.lock t.mutex;
      output_string t.oc line;
      output_char t.oc '\n';
      Mutex.unlock t.mutex
    end

  let flush t =
    Mutex.lock t.mutex;
    flush t.oc;
    Mutex.unlock t.mutex

  let close t =
    Mutex.lock t.mutex;
    (try close_out t.oc with Sys_error _ -> ());
    Mutex.unlock t.mutex
end
