(* statsim serve subsystem: wire framing, protocol validation, and a
   live daemon driven over a Unix socket — shared hot cache under
   concurrent clients, deadlines, overload shedding, and survival of
   vanished or hostile clients. *)

let check = Alcotest.(check bool)

module Frame = Server.Frame
module Protocol = Server.Protocol
module Json = Telemetry.Json

(* --- framing --- *)

let prop_frame_roundtrip =
  QCheck.Test.make ~count:200 ~name:"frame encode/decode roundtrip"
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 2048) QCheck.Gen.char)
    (fun payload -> Frame.decode (Frame.encode payload) = Ok payload)

let expect_reject name s =
  match Frame.decode s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: frame accepted" name

let test_frame_rejections () =
  let payload = "hello, frame" in
  let f = Frame.encode payload in
  Alcotest.(check int) "frame length" (Frame.header_len + String.length payload)
    (String.length f);
  expect_reject "short header" (String.sub f 0 (Frame.header_len - 1));
  let corrupt i c =
    let b = Bytes.of_string f in
    Bytes.set b i c;
    Bytes.to_string b
  in
  expect_reject "bad magic" (corrupt 0 'X');
  expect_reject "bad version" (corrupt 4 '\002');
  expect_reject "flipped payload byte (digest)"
    (corrupt Frame.header_len 'Z');
  expect_reject "truncated payload" (String.sub f 0 (String.length f - 1));
  expect_reject "trailing junk" (f ^ "x");
  (match Frame.decode ~max_payload:4 f with
  | Error msg -> check "oversize names the bound" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "oversize frame accepted");
  (* the bound applies to the declaration, independent of the bytes *)
  check "exact bound accepted" true
    (Frame.decode ~max_payload:(String.length payload) f = Ok payload)

(* --- protocol --- *)

let test_request_roundtrip () =
  let req =
    {
      Protocol.id = Some 7;
      op = "simulate";
      deadline_ms = Some 250;
      params = Json.Obj [ ("bench", Json.Str "gcc") ];
    }
  in
  (match Protocol.parse_request (Protocol.request_to_string req) with
  | Ok r ->
    check "id" true (r.Protocol.id = Some 7);
    Alcotest.(check string) "op" "simulate" r.Protocol.op;
    check "deadline" true (r.Protocol.deadline_ms = Some 250);
    check "params" true
      (Json.member "bench" r.Protocol.params = Some (Json.Str "gcc"))
  | Error e -> Alcotest.failf "roundtrip rejected: %s" e);
  (* optional fields default *)
  match Protocol.parse_request {|{"op":"ping"}|} with
  | Ok r ->
    check "no id" true (r.Protocol.id = None);
    check "no deadline" true (r.Protocol.deadline_ms = None);
    check "empty params" true (r.Protocol.params = Json.Obj [])
  | Error e -> Alcotest.failf "minimal request rejected: %s" e

let test_request_validation () =
  List.iter
    (fun s ->
      match Protocol.parse_request s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" s)
    [
      "[]" (* top level must be an object *);
      "{}" (* op required *);
      {|{"op":1}|};
      {|{"op":"x","id":1.5}|};
      {|{"op":"x","deadline_ms":-1}|};
      "not json at all";
    ]

let test_reply_parsing () =
  (match
     Protocol.parse_reply
       (Protocol.ok_reply ~id:(Some 3) (Json.Obj [ ("pong", Json.Bool true) ]))
   with
  | Ok r ->
    check "id echoed" true (r.Protocol.reply_id = Some 3);
    (match r.Protocol.outcome with
    | Ok result -> check "result" true
        (Json.member "pong" result = Some (Json.Bool true))
    | Error _ -> Alcotest.fail "ok reply parsed as error")
  | Error e -> Alcotest.failf "ok reply rejected: %s" e);
  (match
     Protocol.parse_reply (Protocol.error_reply ~id:None Protocol.Overloaded "busy")
   with
  | Ok { Protocol.outcome = Error (Protocol.Overloaded, "busy"); _ } -> ()
  | _ -> Alcotest.fail "error reply did not parse back");
  (* unknown error codes degrade to Internal, not a parse failure *)
  match
    Protocol.parse_reply
      {|{"id":null,"status":"error","error":{"code":"from_the_future","message":"m"}}|}
  with
  | Ok { Protocol.outcome = Error (Protocol.Internal, "m"); _ } -> ()
  | _ -> Alcotest.fail "unknown code should map to internal"

(* --- live daemon --- *)

let counter = ref 0

(* each server gets its own socket and its own empty store root, so
   cache counters are exact whatever the ambient REPRO_CACHE_DIR is *)
let with_server ?(workers = 2) ?(queue_depth = 64) ?(obs = false) ?access_log
    f =
  incr counter;
  let stamp = Printf.sprintf "statsim-test-%d-%d" (Unix.getpid ()) !counter in
  let sock = Filename.concat (Filename.get_temp_dir_name ()) (stamp ^ ".sock") in
  let root = Filename.temp_file stamp "" in
  Sys.remove root;
  let cfg =
    {
      (Server.Daemon.default_config ~socket_path:sock) with
      Server.Daemon.workers;
      queue_depth;
      cache_dir = Some root;
      obs;
      access_log;
    }
  in
  (* the obs plane is process-global, like the telemetry registry *)
  if obs then Server.Obs.reset ();
  let t = Server.Daemon.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.Daemon.stop t;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () -> f sock t)

let result_of name = function
  | Ok { Protocol.outcome = Ok result; _ } -> result
  | Ok { Protocol.outcome = Error (code, msg); _ } ->
    Alcotest.failf "%s: error reply %s: %s" name (Protocol.code_name code) msg
  | Error e -> Alcotest.failf "%s: transport error: %s" name e

let stat_field result name =
  match Json.member name result with
  | Some (Json.Num v) -> int_of_float v
  | _ -> Alcotest.failf "cache-stats missing %s" name

let test_ping_and_cache_stats () =
  with_server (fun sock _t ->
      let r = result_of "ping" (Server.Client.oneshot ~socket:sock ~op:"ping" (Json.Obj [])) in
      check "pong" true (Json.member "pong" r = Some (Json.Bool true));
      Alcotest.(check string) "ping output" "pong\n" (Server.Ops.output r);
      let s =
        result_of "cache-stats"
          (Server.Client.oneshot ~socket:sock ~op:"cache-stats" (Json.Obj []))
      in
      Alcotest.(check int) "cold cache" 0 (stat_field s "profile_computes"))

let sim_params =
  Json.Obj
    [
      ("bench", Json.Str "gcc");
      ("length", Json.Num 4000.0);
      ("synthetic", Json.Num 600.0);
    ]

(* acceptance: N parallel simulate requests against one cold server
   produce byte-identical outputs to an in-process dispatch, and the
   shared single-flight cache collects the profile / compiles the plan /
   simulates the EDS reference exactly once *)
let test_concurrent_simulate_shared_cache () =
  let expected =
    let env =
      { Server.Ops.cache = Runner.Cache.create (); jobs = 1;
        check = (fun () -> ()); trace = None }
    in
    match Server.Ops.dispatch env ~op:"simulate" sim_params with
    | Ok r -> Server.Ops.output r
    | Error e -> Alcotest.failf "reference dispatch failed: %s" e
  in
  check "reference output nonempty" true (String.length expected > 0);
  with_server ~workers:4 (fun sock _t ->
      let n = 6 in
      let outputs = Array.make n "" in
      let threads =
        Array.init n (fun i ->
            Thread.create
              (fun () ->
                let r =
                  result_of "simulate"
                    (Server.Client.oneshot ~socket:sock ~op:"simulate" sim_params)
                in
                outputs.(i) <- Server.Ops.output r)
              ())
      in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i out ->
          Alcotest.(check string)
            (Printf.sprintf "client %d byte-identical" i)
            expected out)
        outputs;
      let s =
        result_of "cache-stats"
          (Server.Client.oneshot ~socket:sock ~op:"cache-stats" (Json.Obj []))
      in
      Alcotest.(check int) "profile_computes" 1 (stat_field s "profile_computes");
      Alcotest.(check int) "plan_computes" 1 (stat_field s "plan_computes");
      Alcotest.(check int) "reference_computes" 1
        (stat_field s "reference_computes"))

let test_deadline_exceeded () =
  with_server (fun sock _t ->
      match
        Server.Client.oneshot ~socket:sock ~deadline_ms:0 ~op:"simulate"
          sim_params
      with
      | Ok { Protocol.outcome = Error (Protocol.Deadline_exceeded, _); _ } -> ()
      | Ok _ -> Alcotest.fail "expected deadline_exceeded"
      | Error e -> Alcotest.failf "transport error: %s" e)

(* one worker, queue depth one: pipelining three slow requests must shed
   at least one with a structured overloaded reply, never hang *)
let test_overload_shedding () =
  with_server ~workers:1 ~queue_depth:1 (fun sock t ->
      let c = Server.Client.connect ~socket:sock in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let sleep_params = Json.Obj [ ("ms", Json.Num 400.0) ] in
          for i = 1 to 3 do
            match Server.Client.send c ~id:i ~op:"sleep" sleep_params with
            | Ok () -> ()
            | Error e -> Alcotest.failf "send %d failed: %s" i e
          done;
          let outcomes =
            List.init 3 (fun _ ->
                match Server.Client.recv c with
                | Ok r -> r.Protocol.outcome
                | Error e -> Alcotest.failf "recv failed: %s" e)
          in
          let shed =
            List.length
              (List.filter
                 (function Error (Protocol.Overloaded, _) -> true | _ -> false)
                 outcomes)
          in
          let ok = List.length (List.filter Result.is_ok outcomes) in
          check "at least one shed" true (shed >= 1);
          check "at least one served" true (ok >= 1);
          Alcotest.(check int) "every request answered" 3 (shed + ok);
          check "daemon counted the shed" true
            ((Server.Daemon.stats t).Server.Daemon.shed >= 1);
          (* the daemon is still healthy afterwards *)
          let r = result_of "ping after overload"
              (Server.Client.call c ~op:"ping" (Json.Obj [])) in
          check "pong after overload" true
            (Json.member "pong" r = Some (Json.Bool true))))

(* a client that vanishes mid-request: its job is cancelled at the next
   cooperative point instead of holding a worker for the full sleep *)
let test_disconnect_cancels_inflight () =
  let t0 = Unix.gettimeofday () in
  with_server ~workers:1 (fun sock t ->
      let c = Server.Client.connect ~socket:sock in
      (match Server.Client.send c ~op:"sleep" (Json.Obj [ ("ms", Json.Num 8000.0) ]) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send failed: %s" e);
      (* give the worker time to start the sleep, then vanish *)
      Unix.sleepf 0.1;
      Server.Client.close c;
      (* the lone worker frees up long before 8s *)
      let r = result_of "ping after disconnect"
          (Server.Client.oneshot ~socket:sock ~op:"ping" (Json.Obj [])) in
      check "pong after disconnect" true
        (Json.member "pong" r = Some (Json.Bool true));
      ignore t);
  check "cancellation kept it fast" true (Unix.gettimeofday () -. t0 < 6.0)

(* a client that sends a request and closes without reading the reply:
   the worker's write hits EPIPE/ECONNRESET and the daemon keeps serving *)
let test_client_killed_mid_response () =
  with_server (fun sock _t ->
      for _ = 1 to 3 do
        let c = Server.Client.connect ~socket:sock in
        (match Server.Client.send c ~op:"ping" (Json.Obj []) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "send failed: %s" e);
        Server.Client.close c
      done;
      Unix.sleepf 0.2;
      let r = result_of "ping after dead clients"
          (Server.Client.oneshot ~socket:sock ~op:"ping" (Json.Obj [])) in
      check "still serving" true (Json.member "pong" r = Some (Json.Bool true)))

(* hostile bytes: a non-frame greeting gets a bad_request reply and a
   hang-up; malformed JSON in a well-formed frame gets a bad_request
   and the connection stays usable; the daemon never dies *)
let test_malformed_input () =
  with_server (fun sock t ->
      let raw () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        fd
      in
      (* desynced stream *)
      let fd = raw () in
      let junk = "GET / HTTP/1.1\r\n\r\n padding padding" in
      ignore (Unix.write_substring fd junk 0 (String.length junk));
      (match Frame.read fd with
      | Ok payload -> (
        match Protocol.parse_reply payload with
        | Ok { Protocol.outcome = Error (Protocol.Bad_request, _); _ } -> ()
        | _ -> Alcotest.fail "junk should answer bad_request")
      | Error _ -> Alcotest.fail "no reply to junk");
      (* and then the server hangs up *)
      check "desynced conn closed" true (Frame.read fd = Error Frame.Closed);
      Unix.close fd;
      (* sound frame, broken JSON: answered, connection kept *)
      let fd = raw () in
      (match Frame.write fd (Frame.encode "{ not json") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "frame write failed: %s" e);
      (match Frame.read fd with
      | Ok payload -> (
        match Protocol.parse_reply payload with
        | Ok { Protocol.outcome = Error (Protocol.Bad_request, _); _ } -> ()
        | _ -> Alcotest.fail "bad JSON should answer bad_request")
      | Error _ -> Alcotest.fail "no reply to bad JSON");
      (match
         Frame.write fd
           (Frame.encode
              (Protocol.request_to_string
                 { Protocol.id = None; op = "ping"; deadline_ms = None;
                   params = Json.Obj [] }))
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "ping after bad JSON failed: %s" e);
      (match Frame.read fd with
      | Ok payload -> (
        match Protocol.parse_reply payload with
        | Ok { Protocol.outcome = Ok _; _ } -> ()
        | _ -> Alcotest.fail "conn unusable after bad JSON")
      | Error _ -> Alcotest.fail "no pong after bad JSON");
      Unix.close fd;
      check "malformed counted" true
        ((Server.Daemon.stats t).Server.Daemon.malformed >= 2))

let test_unknown_op () =
  with_server (fun sock _t ->
      match Server.Client.oneshot ~socket:sock ~op:"frobnicate" (Json.Obj []) with
      | Ok { Protocol.outcome = Error (Protocol.Bad_request, msg); _ } ->
        check "names the op" true
          (String.length msg > 0
          && String.sub msg 0 10 = "unknown op")
      | _ -> Alcotest.fail "unknown op should answer bad_request")

(* --- observability plane --- *)

let member_exn where j k =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing %S" where k

let num_exn where j k =
  match member_exn where j k with
  | Json.Num v -> int_of_float v
  | _ -> Alcotest.failf "%s: %S not a number" where k

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_obs_metrics_and_trace () =
  with_server ~obs:true (fun sock _t ->
      let oneshot op params = Server.Client.oneshot ~socket:sock ~op params in
      (* untraced replies stay bare — byte-identity with the CLI path *)
      let r = result_of "ping" (oneshot "ping" (Json.Obj [])) in
      check "no uninvited trace field" true (Json.member "trace" r = None);
      for _ = 1 to 3 do
        ignore (result_of "ping" (oneshot "ping" (Json.Obj [])))
      done;
      (* a bad request is accounted under its outcome code *)
      (match oneshot "metrics" (Json.Obj [ ("format", Json.Str "surprise") ]) with
      | Ok { Protocol.outcome = Error (Protocol.Bad_request, _); _ } -> ()
      | _ -> Alcotest.fail "unknown format should answer bad_request");
      (* client-invented op names (here one that would also corrupt the
         Prometheus exposition unescaped) fold into one "unknown" cell
         instead of minting per-name metric cells *)
      let evil_op = "no\"such{op}\nname" in
      (match oneshot evil_op (Json.Obj []) with
      | Ok { Protocol.outcome = Error (Protocol.Bad_request, _); _ } -> ()
      | _ -> Alcotest.fail "invented op should answer bad_request");
      (* opt-in trace: the reply carries the request's span tree *)
      let traced =
        result_of "traced ping"
          (oneshot "ping" (Json.Obj [ ("trace", Json.Bool true) ]))
      in
      Alcotest.(check string) "traced output unchanged" "pong\n"
        (Server.Ops.output traced);
      let tr = member_exn "traced reply" traced "trace" in
      let root = member_exn "trace" tr "root" in
      check "root span is request" true
        (Json.member "name" root = Some (Json.Str "request"));
      let child_names =
        match Json.member "children" root with
        | Some (Json.Arr cs) ->
          List.filter_map
            (fun c -> Option.bind (Json.member "name" c) Json.to_str)
            cs
        | _ -> []
      in
      List.iter
        (fun stage ->
          check (stage ^ " span present") true (List.mem stage child_names))
        [ "parse"; "queue_wait" ];
      (* the metrics op reports what just happened, per op *)
      let m =
        member_exn "metrics reply"
          (result_of "metrics" (oneshot "metrics" (Json.Obj [])))
          "metrics"
      in
      check "obs enabled" true
        (Json.member "enabled" m = Some (Json.Bool true));
      let find_op name =
        match member_exn "metrics" m "ops" with
        | Json.Arr ops -> (
          match
            List.find_opt
              (fun o -> Json.member "op" o = Some (Json.Str name))
              ops
          with
          | Some o -> o
          | None -> Alcotest.failf "metrics: no entry for op %S" name)
        | _ -> Alcotest.fail "metrics: ops not an array"
      in
      let ping = find_op "ping" in
      Alcotest.(check int) "ping requests" 5 (num_exn "ping" ping "requests");
      Alcotest.(check int) "ping all ok" 5
        (num_exn "ping ok" (member_exn "ping" ping "outcomes") "ok");
      let w1m =
        member_exn "ping windows" (member_exn "ping" ping "windows") "1m"
      in
      Alcotest.(check int) "1m service samples" 5
        (num_exn "1m service" (member_exn "1m" w1m "service") "count");
      check "bad_request accounted" true
        (num_exn "metrics op"
           (member_exn "metrics op" (find_op "metrics") "outcomes")
           "bad_request"
        >= 1);
      (* the invented op landed in "unknown", not a cell of its own *)
      Alcotest.(check int) "unknown bucket counts invented op" 1
        (num_exn "unknown" (find_op "unknown") "requests");
      (match member_exn "metrics" m "ops" with
      | Json.Arr ops ->
        check "no per-name cell for invented op" true
          (not
             (List.exists
                (fun o -> Json.member "op" o = Some (Json.Str evil_op))
                ops))
      | _ -> Alcotest.fail "metrics: ops not an array");
      (* prometheus exposition renders through the same op *)
      let prom =
        Server.Ops.output
          (result_of "prometheus"
             (oneshot "metrics" (Json.Obj [ ("format", Json.Str "prometheus") ])))
      in
      List.iter
        (fun frag ->
          check ("prometheus has " ^ frag) true (contains prom frag))
        [ "# TYPE statsim_op_requests_total counter";
          {|statsim_op_requests_total{op="ping",outcome="ok"} 5|};
          {|statsim_op_requests_total{op="unknown",outcome="bad_request"} 1|};
          "statsim_inflight" ];
      check "invented op never reaches a label value" false
        (contains prom "such{op}");
      (* the telemetry op returns the registry snapshot *)
      let t =
        result_of "telemetry" (oneshot "telemetry" (Json.Obj []))
      in
      check "registry snapshot present" true
        (Json.member "telemetry" t <> None))

let test_obs_access_log () =
  let log = Filename.temp_file "statsim-test-alog" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      with_server ~obs:true ~access_log:log (fun sock _t ->
          let oneshot op params =
            Server.Client.oneshot ~socket:sock ~op params
          in
          ignore (result_of "ping" (oneshot "ping" (Json.Obj [])));
          ignore
            (result_of "traced ping"
               (oneshot "ping" (Json.Obj [ ("trace", Json.Bool true) ])));
          match oneshot "frobnicate" (Json.Obj []) with
          | Ok { Protocol.outcome = Error (Protocol.Bad_request, _); _ } -> ()
          | _ -> Alcotest.fail "unknown op should answer bad_request");
      (* with_server ran [stop]: the drain flushed and closed the log *)
      let lines =
        let ic = open_in log in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let rec go acc =
              match input_line ic with
              | l -> go (l :: acc)
              | exception End_of_file -> List.rev acc
            in
            go [])
      in
      Alcotest.(check int) "one line per request" 3 (List.length lines);
      let docs =
        List.map
          (fun l ->
            match Json.of_string l with
            | Ok d -> d
            | Error e -> Alcotest.failf "access-log line not JSON (%s): %s" e l)
          lines
      in
      List.iter
        (fun d ->
          List.iter
            (fun k -> ignore (member_exn "access-log line" d k))
            [ "ts"; "id"; "op"; "outcome"; "queue_ns"; "service_ns";
              "bytes"; "traced" ])
        docs;
      let outcome_of d =
        Option.bind (Json.member "outcome" d) Json.to_str
      in
      Alcotest.(check int) "two ok lines" 2
        (List.length
           (List.filter (fun d -> outcome_of d = Some "ok") docs));
      Alcotest.(check int) "one bad_request line" 1
        (List.length
           (List.filter (fun d -> outcome_of d = Some "bad_request") docs));
      Alcotest.(check int) "one traced line" 1
        (List.length
           (List.filter
              (fun d -> Json.member "traced" d = Some (Json.Bool true))
              docs)))

(* with the obs plane off nothing is timed: the access log must report
   null timings, not zeroes that read as real measurements *)
let test_access_log_untimed_nulls () =
  let log = Filename.temp_file "statsim-test-alog-off" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      with_server ~obs:false ~access_log:log (fun sock _t ->
          ignore
            (result_of "ping"
               (Server.Client.oneshot ~socket:sock ~op:"ping" (Json.Obj []))));
      let ic = open_in log in
      let line =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
      in
      match Json.of_string line with
      | Error e -> Alcotest.failf "access-log line not JSON (%s): %s" e line
      | Ok d ->
        List.iter
          (fun k ->
            check (k ^ " is null when untimed") true
              (Json.member k d = Some Json.Null))
          [ "queue_ns"; "service_ns" ])

(* --- pinned op outputs --- *)

let fresh_env () =
  { Server.Ops.cache = Runner.Cache.create (); jobs = 1;
    check = (fun () -> ()); trace = None }

(* `statsim dse --sweep examples/sweep_smoke.json -b gcc -n 20000 -s 2000
   --replicas 2`, with the sweep file's contents inline because the
   tests do not run from the repository root. *)
let dse_smoke =
  let n v = Json.Num (float_of_int v) in
  let axis name values =
    Json.Obj
      [ ("axis", Json.Str name); ("values", Json.Arr (List.map n values)) ]
  in
  [
    ( "sweep",
      Json.Obj
        [
          ("name", Json.Str "smoke");
          ("max_points", n 16);
          ( "sweep",
            Json.Obj
              [
                ( "cross",
                  Json.Arr
                    [
                      axis "ruu" [ 16; 32; 64 ];
                      axis "lsq" [ 8; 16 ];
                      axis "width" [ 2; 4 ];
                    ] );
              ] );
        ] );
    ("bench", Json.Str "gcc");
    ("length", n 20000);
    ("synthetic", n 2000);
    ("replicas", n 2);
  ]

(* Byte-identity pins for the simulate/diag/estimate/dse report surface:
   the MD5 of each op's "output" for a fixed request, which is also the
   one-shot CLI's stdout for the same flags (e.g. the first row is
   `statsim simulate -b gcc -n 20000 -s 2000 --seed 42`). A refactor of
   the synthesis, replication or rendering path must leave every digest
   unchanged. *)
let pinned_outputs =
  let base bench syn =
    [
      ("bench", Json.Str bench);
      ("length", Json.Num 20000.0);
      ("synthetic", Json.Num (float_of_int syn));
      ("seed", Json.Num 42.0);
    ]
  in
  let t = Json.Bool true in
  [
    ("simulate", base "gcc" 2000, "b9ed0880adfef5b32b806ab59e2f5f9d");
    ( "simulate",
      base "twolf" 2000 @ [ ("replicas", Json.Num 4.0); ("json", t) ],
      "dd5a95904669a5ad6cfed005382bfc8d" );
    ( "simulate",
      base "twolf" 2000 @ [ ("replicas", Json.Num 4.0) ],
      "87c99d0762664af67d9e7805bebfe785" );
    ( "simulate",
      base "gcc" 800 @ [ ("ci_target", Json.Num 25.0) ],
      "40dc59a4df1664a81f818e12e9dbc916" );
    ( "simulate",
      base "gcc" 2000 @ [ ("stratify", t); ("replicas", Json.Num 16.0) ],
      "b4ccaeb94247036984a271f9f0f55838" );
    ( "simulate",
      base "vortex" 2000
      @ [
          ("stratify", t);
          ("ci_target", Json.Num 5.0);
          ("replicas", Json.Num 12.0);
          ("json", t);
        ],
      "e6734f90b30c1a3a89cbc0dc43a7dcc8" );
    (* the default budgets: the stratified cap of 64 and the blind first
       round of 4 *)
    ( "simulate",
      base "gcc" 2000 @ [ ("stratify", t); ("ci_target", Json.Num 5.0) ],
      "8df0b226b54d264a5bc240d01a3cbf07" );
    ( "simulate",
      base "gcc" 2000 @ [ ("ci_target", Json.Num 10.0) ],
      "7e95e2f93f06746990470d94a379b300" );
    ( "diag",
      base "gcc" 40000
      @ [ ("reduction", Json.Num 1.0); ("json", t); ("check", Json.Num 0.05) ],
      "5a17edb46e567d4b822867da97775eef" );
    ( "diag",
      base "twolf" 2000 @ [ ("eds", t) ],
      "7eb4f6e30e03a3a660925a2200311269" );
    ( "estimate",
      [ ("bench", Json.Str "gcc"); ("length", Json.Num 20000.0); ("json", t) ],
      "d8fc218217ab7901d57fe2dc923b4d96" );
    ( "dse",
      dse_smoke @ [ ("format", Json.Str "csv") ],
      "a34b0e3f4356e9578d93be6adc94722b" );
    ("dse", dse_smoke, "9dd54965785f3964da7c58b201862162");
    ( "dse",
      dse_smoke @ [ ("format", Json.Str "json") ],
      "ad3187ab1a4c39c91017b08127970b7c" );
  ]

let test_pinned_outputs () =
  let env = fresh_env () in
  List.iteri
    (fun i (op, fields, digest) ->
      match Server.Ops.dispatch env ~op (Json.Obj fields) with
      | Ok r ->
        Alcotest.(check string)
          (Printf.sprintf "row %d (%s) output digest" i op)
          digest
          (Digest.to_hex (Digest.string (Server.Ops.output r)))
      | Error e -> Alcotest.failf "row %d (%s) rejected: %s" i op e)
    pinned_outputs;
  (* the --pareto-out file of the json row's CLI twin *)
  match
    Server.Ops.dispatch env ~op:"dse"
      (Json.Obj (dse_smoke @ [ ("format", Json.Str "json") ]))
  with
  | Ok r -> (
    match Json.member "pareto_csv" r with
    | Some (Json.Str csv) ->
      Alcotest.(check string)
        "pareto_csv digest" "9194066f7a37749264aa275654fbff18"
        (Digest.to_hex (Digest.string csv))
    | _ -> Alcotest.fail "dse result carries no pareto_csv string")
  | Error e -> Alcotest.failf "dse rejected: %s" e

(* The dse op checks its deadline inside the sweep as well as before
   it: a check that first fires on its second call (the op's own check
   is the first) must stop the request. *)
let test_dse_deadline () =
  let calls = ref 0 in
  let env =
    {
      (fresh_env ()) with
      Server.Ops.check =
        (fun () ->
          incr calls;
          if !calls >= 2 then raise Server.Ops.Deadline_exceeded);
    }
  in
  match Server.Ops.dispatch env ~op:"dse" (Json.Obj dse_smoke) with
  | exception Server.Ops.Deadline_exceeded -> ()
  | Ok _ -> Alcotest.fail "dse answered past its deadline"
  | Error e -> Alcotest.failf "dse rejected: %s" e

(* --- out-of-range params --- *)

(* [fields] over a small gcc request, later keys replacing earlier *)
let small_request fields =
  let base =
    [
      ("bench", Json.Str "gcc");
      ("length", Json.Num 6000.0);
      ("synthetic", Json.Num 800.0);
    ]
  in
  Json.Obj
    (List.filter (fun (k, _) -> not (List.mem_assoc k fields)) base @ fields)

(* Every row is a client mistake, so [dispatch] must answer [Error]
   (a bad_request reply) rather than raise. The last rows of each op
   depend on the data: an empty reduced graph, and a stratified budget
   below pilot x the BIC-selected strata (3 for this profile). The
   experiment row must be rejected before table1 runs. *)
let out_of_range =
  let n v = Json.Num (float_of_int v) and t = Json.Bool true in
  let sweep =
    ( "sweep",
      Json.Obj
        [
          ("name", Json.Str "t");
          ( "sweep",
            Json.Obj
              [ ("axis", Json.Str "ruu"); ("values", Json.Arr [ n 16; n 32 ]) ]
          );
        ] )
  in
  [
    ("simulate", [ ("replicas", n 0) ]);
    ("simulate", [ ("ci_target", n 0) ]);
    ("simulate", [ ("ci_target", n 5); ("replicas", n 1) ]);
    ("simulate", [ ("ci_target", n 5); ("replicas", n 65) ]);
    ("simulate", [ ("replicas", n 65) ]);
    ("simulate", [ ("stratify", t); ("replicas", n 65) ]);
    ("replicate", [ ("replicas", n 65) ]);
    ("simulate", [ ("stratify", t); ("pilot", n 0) ]);
    ("simulate", [ ("stratify", t); ("strata", n 0) ]);
    ("simulate", [ ("synthetic", n 0) ]);
    ("simulate", [ ("length", n 0) ]);
    ("simulate", [ ("k", n 4) ]);
    ("replicate", [ ("replicas", n 0) ]);
    ("simulate", [ ("synthetic", n 1) ]);
    ("simulate", [ ("stratify", t); ("synthetic", n 1) ]);
    ("simulate", [ ("stratify", t); ("replicas", n 4) ]);
    ("simulate", [ ("stratify", t); ("ci_target", n 5); ("replicas", n 4) ]);
    ("diag", [ ("reduction", n 0) ]);
    ("diag", [ ("k", n (-1)) ]);
    ("diag", [ ("reduction", n 100_000_000) ]);
    ("estimate", [ ("reduction", n 0) ]);
    ("estimate", [ ("synthetic", n 0) ]);
    ("estimate", [ ("synthetic", n 1) ]);
    ( "experiment",
      [ ("ids", Json.Arr [ Json.Str "table1" ]); ("replicas", n 0) ] );
    ( "experiment",
      [ ("ids", Json.Arr [ Json.Str "table1" ]); ("replicas", n 65) ] );
    ("dse", [ sweep; ("replicas", n 0) ]);
    ("dse", [ sweep; ("replicas", n 65) ]);
    ("dse", [ sweep; ("length", n 0) ]);
    ("dse", [ sweep; ("length", n 20000); ("synthetic", n 1) ]);
  ]

(* Profile files that fail to load, for the ops that read one: a
   missing file, a corrupt header token, an instruction class out of
   range and a negative operand count. The corrupt ones are a valid
   profile with one field changed. *)
let bad_profiles () =
  let lines =
    String.split_on_char '\n'
      (Profile.Serialize.to_string
         (Statsim.profile Config.Machine.baseline
            (Workload.Suite.stream (Workload.Suite.find "gcc") ~length:2000)))
  in
  let write lines =
    let path = Filename.temp_file "statsim-test-profile" ".prof" in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (String.concat "\n" lines));
    path
  in
  (* the first slot record's fields: class index, operand count, ... *)
  let first_slot edit =
    let seen = ref false in
    List.map
      (fun l ->
        match String.split_on_char ' ' l with
        | "slot" :: fields when not !seen ->
          seen := true;
          String.concat " " ("slot" :: edit fields)
        | _ -> l)
      lines
  in
  let missing = write [] in
  Sys.remove missing;
  [
    missing;
    write ("statsim-profile 77x!onfig" :: List.tl lines);
    write (first_slot (function _ :: rest -> "99" :: rest | [] -> []));
    write (first_slot (function c :: _ :: rest -> c :: "-1" :: rest | l -> l));
  ]

(* A warm replication request pays only for its replicas: replicate
   walks the memoised plan (one plan hit, no compile), and a stratified
   simulate takes its steady-state IPC from the estimate memo, which the
   second of two such requests hits. *)
let test_replication_reuses_memo () =
  let env = fresh_env () in
  let run op extra =
    let params =
      Json.Obj
        ([
           ("bench", Json.Str "gcc");
           ("length", Json.Num 4000.0);
           ("synthetic", Json.Num 600.0);
         ]
        @ extra)
    in
    match Server.Ops.dispatch env ~op params with
    | Ok _ -> Runner.Cache.stats env.cache
    | Error e -> Alcotest.failf "%s rejected: %s" op e
  in
  let warm = run "simulate" [] in
  let rep = run "replicate" [ ("replicas", Json.Num 2.0) ] in
  Alcotest.(check int) "replicate: one plan hit" (warm.plan_hits + 1)
    rep.plan_hits;
  Alcotest.(check int) "replicate: no plan compute" warm.plan_computes
    rep.plan_computes;
  let stratified seed =
    run "simulate"
      [
        ("stratify", Json.Bool true);
        ("strata", Json.Num 2.0);
        ("pilot", Json.Num 2.0);
        ("replicas", Json.Num 4.0);
        ("seed", Json.Num seed);
      ]
  in
  let first = stratified 1.0 in
  let second = stratified 2.0 in
  Alcotest.(check int) "second stratified: one estimate hit"
    (first.estimate_hits + 1) second.estimate_hits;
  Alcotest.(check int) "second stratified: no estimate miss"
    first.estimate_misses second.estimate_misses

let test_out_of_range_params () =
  let env = fresh_env () in
  let profiles = bad_profiles () in
  let profile_rows =
    List.concat_map
      (fun path ->
        List.map
          (fun op -> (op, [ ("profile", Json.Str path) ]))
          [ "simulate"; "estimate" ])
      profiles
  in
  List.iter
    (fun (op, fields) ->
      let req = small_request fields in
      match Server.Ops.dispatch env ~op req with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s %s accepted" op (Json.to_string req)
      | exception e ->
        Alcotest.failf "%s %s raised %s" op (Json.to_string req)
          (Printexc.to_string e))
    (out_of_range @ profile_rows);
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) profiles;
  (* the stratified replicate default budget seats the pilot round *)
  match
    Server.Ops.dispatch env ~op:"replicate"
      (small_request [ ("stratify", Json.Bool true) ])
  with
  | Ok r -> check "stratified replicate report" true (Server.Ops.output r <> "")
  | Error e -> Alcotest.failf "stratified replicate rejected: %s" e

let test_out_of_range_bad_request () =
  with_server (fun sock _t ->
      match
        Server.Client.oneshot ~socket:sock ~op:"simulate"
          (small_request [ ("replicas", Json.Num 0.0) ])
      with
      | Ok { Protocol.outcome = Error (Protocol.Bad_request, msg); _ } ->
        check "names the param" true (contains msg "replicas")
      | Ok { Protocol.outcome = Error (code, msg); _ } ->
        Alcotest.failf "expected bad_request, got %s: %s"
          (Protocol.code_name code) msg
      | Ok _ -> Alcotest.fail "replicas 0 accepted"
      | Error e -> Alcotest.failf "transport error: %s" e)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_frame_roundtrip;
    Alcotest.test_case "frame rejections" `Quick test_frame_rejections;
    Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "request validation" `Quick test_request_validation;
    Alcotest.test_case "reply parsing" `Quick test_reply_parsing;
    Alcotest.test_case "ping and cache-stats" `Quick test_ping_and_cache_stats;
    Alcotest.test_case "concurrent simulate, shared cache" `Quick
      test_concurrent_simulate_shared_cache;
    Alcotest.test_case "deadline exceeded" `Quick test_deadline_exceeded;
    Alcotest.test_case "overload shedding" `Quick test_overload_shedding;
    Alcotest.test_case "disconnect cancels in-flight work" `Quick
      test_disconnect_cancels_inflight;
    Alcotest.test_case "client killed mid-response" `Quick
      test_client_killed_mid_response;
    Alcotest.test_case "malformed input" `Quick test_malformed_input;
    Alcotest.test_case "obs metrics and request trace" `Quick
      test_obs_metrics_and_trace;
    Alcotest.test_case "obs access log flushed on drain" `Quick
      test_obs_access_log;
    Alcotest.test_case "access log nulls untimed fields" `Quick
      test_access_log_untimed_nulls;
    Alcotest.test_case "unknown op" `Quick test_unknown_op;
    Alcotest.test_case "pinned op output digests" `Quick test_pinned_outputs;
    Alcotest.test_case "dse honours its deadline" `Quick test_dse_deadline;
    Alcotest.test_case "out-of-range params rejected" `Quick
      test_out_of_range_params;
    Alcotest.test_case "out-of-range param answers bad_request" `Quick
      test_out_of_range_bad_request;
    Alcotest.test_case "replication reuses the warm memo" `Quick
      test_replication_reuses_memo;
  ]
