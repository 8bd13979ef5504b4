(* Telemetry layer: disabled-mode no-ops, span nesting/monotonicity,
   counter correctness under parallel domains, JSON render goldens and
   the JSON reader the perf gate uses. *)

let with_enabled b f =
  let prev = Telemetry.enabled () in
  Telemetry.set_enabled b;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled prev) f

let test_disabled_noop () =
  with_enabled false (fun () ->
      let c = Telemetry.counter "test.disabled.counter" in
      let g = Telemetry.gauge "test.disabled.gauge" in
      let s = Telemetry.span "test.disabled.span" in
      Telemetry.incr c;
      Telemetry.add c 41;
      Telemetry.set_gauge g 3.5;
      Alcotest.(check int)
        "time passes the value through" 7
        (Telemetry.time s (fun () -> 7));
      (* a timer started while disabled records nothing, even if
         collection is enabled before it is stopped *)
      let t = Telemetry.start () in
      Telemetry.set_enabled true;
      Telemetry.stop s t;
      Telemetry.set_enabled false;
      let snap = Telemetry.snapshot () in
      Alcotest.(check int)
        "counter untouched" 0
        (Telemetry.counter_total snap "test.disabled.counter");
      let st = Option.get (Telemetry.span_stat snap "test.disabled.span") in
      Alcotest.(check int) "span calls 0" 0 st.Telemetry.calls;
      Alcotest.(check int) "span total 0" 0 st.Telemetry.total_ns;
      Alcotest.(check (float 0.0))
        "gauge untouched" 0.0
        (List.assoc "test.disabled.gauge" snap.Telemetry.gauges))

let busy () =
  let x = ref 0 in
  for i = 1 to 200_000 do
    x := !x + i
  done;
  ignore (Sys.opaque_identity !x)

let test_nested_spans () =
  with_enabled true (fun () ->
      let outer = Telemetry.span "test.nest.outer" in
      let inner = Telemetry.span "test.nest.inner" in
      let v =
        Telemetry.time outer (fun () ->
            Telemetry.time inner (fun () ->
                busy ();
                41)
            + 1)
      in
      Alcotest.(check int) "result" 42 v;
      let snap = Telemetry.snapshot () in
      let o = Option.get (Telemetry.span_stat snap "test.nest.outer") in
      let i = Option.get (Telemetry.span_stat snap "test.nest.inner") in
      Alcotest.(check int) "outer calls" 1 o.Telemetry.calls;
      Alcotest.(check int) "inner calls" 1 i.Telemetry.calls;
      Alcotest.(check bool) "outer total > 0" true (o.Telemetry.total_ns > 0);
      Alcotest.(check bool)
        "nested time is monotonic: inner <= outer" true
        (i.Telemetry.total_ns <= o.Telemetry.total_ns);
      Alcotest.(check bool)
        "max <= total (single call)" true
        (o.Telemetry.max_ns <= o.Telemetry.total_ns))

let test_span_accumulates () =
  with_enabled true (fun () ->
      let s = Telemetry.span "test.accum.span" in
      let total_of () =
        let snap = Telemetry.snapshot () in
        let st = Option.get (Telemetry.span_stat snap "test.accum.span") in
        (st.Telemetry.calls, st.Telemetry.total_ns, st.Telemetry.max_ns)
      in
      let c0, t0, _ = total_of () in
      Telemetry.time s busy;
      let _, t1, _ = total_of () in
      Telemetry.time s busy;
      let c2, t2, m2 = total_of () in
      Alcotest.(check int) "calls +2" (c0 + 2) c2;
      Alcotest.(check bool) "total grows" true (t1 > t0 && t2 > t1);
      Alcotest.(check bool) "max <= accumulated total" true (m2 <= t2))

let test_span_records_on_exception () =
  with_enabled true (fun () ->
      let s = Telemetry.span "test.exn.span" in
      (try Telemetry.time s (fun () -> failwith "boom")
       with Failure _ -> ());
      let snap = Telemetry.snapshot () in
      let st = Option.get (Telemetry.span_stat snap "test.exn.span") in
      Alcotest.(check int) "raised call recorded" 1 st.Telemetry.calls)

let test_interning () =
  let a = Telemetry.counter "test.intern.counter" in
  let b = Telemetry.counter "test.intern.counter" in
  with_enabled true (fun () ->
      let before = Telemetry.counter_value a in
      Telemetry.incr b;
      Alcotest.(check int)
        "same cell through either handle" (before + 1)
        (Telemetry.counter_value a))

(* the property the Domain pool relies on: lock-free increments from
   parallel domains are not lost *)
let prop_counter_domains =
  QCheck.Test.make ~count:20 ~name:"counter exact under 4 domains"
    QCheck.(int_range 1 2_000)
    (fun n ->
      with_enabled true (fun () ->
          let c = Telemetry.counter "test.domains.counter" in
          let before = Telemetry.counter_value c in
          let domains =
            Array.init 4 (fun _ ->
                Domain.spawn (fun () ->
                    for _ = 1 to n do
                      Telemetry.incr c
                    done))
          in
          Array.iter Domain.join domains;
          Telemetry.counter_value c - before = 4 * n))

(* same property for the histogram instrument: bucket increments from
   parallel domains are exact *)
let prop_histogram_domains =
  QCheck.Test.make ~count:10 ~name:"histogram exact under 4 domains"
    QCheck.(int_range 1 2_000)
    (fun n ->
      with_enabled true (fun () ->
          let h = Telemetry.histogram "test.domains.hist" in
          let before = Telemetry.histogram_count h in
          let domains =
            Array.init 4 (fun d ->
                Domain.spawn (fun () ->
                    for i = 1 to n do
                      Telemetry.observe h ((d * 37) + i)
                    done))
          in
          Array.iter Domain.join domains;
          Telemetry.histogram_count h - before = 4 * n))

let test_histogram_buckets () =
  with_enabled true (fun () ->
      let h = Telemetry.histogram "test.buckets.hist" in
      let stat0 =
        List.find_opt
          (fun (s : Telemetry.histogram_stat) -> s.hist_name = "test.buckets.hist")
          (Telemetry.snapshot ()).Telemetry.histograms
      in
      let count0 = match stat0 with Some s -> s.count | None -> 0 in
      List.iter (Telemetry.observe h) [ 0; 1; 2; 3; 4; 8; -5; max_int ];
      let stat =
        List.find
          (fun (s : Telemetry.histogram_stat) -> s.hist_name = "test.buckets.hist")
          (Telemetry.snapshot ()).Telemetry.histograms
      in
      Alcotest.(check int) "count" (count0 + 8) stat.Telemetry.count;
      Alcotest.(check int)
        "count = bucket sum" stat.Telemetry.count
        (List.fold_left (fun a (_, c) -> a + c) 0 stat.Telemetry.buckets);
      let lo_of v =
        (* bucket bounds the observation fell into *)
        List.filter (fun (lo, _) -> lo <= v) stat.Telemetry.buckets
        |> List.fold_left (fun _ (lo, _) -> lo) 0
      in
      Alcotest.(check int) "0 in bucket 0" 0 (lo_of 0);
      Alcotest.(check int) "3 in [2,3]" 2 (lo_of 3);
      Alcotest.(check int) "8 in [8,15]" 8 (lo_of 8))

let test_event_capture_chrome () =
  with_enabled true (fun () ->
      Fun.protect
        ~finally:(fun () -> Telemetry.set_capture false)
        (fun () ->
          Telemetry.set_capture true;
          Alcotest.(check bool) "capturing" true (Telemetry.capturing ());
          Alcotest.(check int)
            "result passes through" 9
            (Telemetry.with_event "test.ev.dynamic" (fun () ->
                 busy ();
                 9));
          let s = Telemetry.span "test.ev.span" in
          Telemetry.time s busy;
          let evs = Telemetry.events () in
          let names = List.map (fun (e : Telemetry.event) -> e.ev_name) evs in
          Alcotest.(check bool)
            "dynamic event captured" true
            (List.mem "test.ev.dynamic" names);
          Alcotest.(check bool)
            "span section captured" true
            (List.mem "test.ev.span" names);
          List.iter
            (fun (e : Telemetry.event) ->
              Alcotest.(check bool) "duration >= 0" true (e.ev_dur_ns >= 0))
            evs;
          match Telemetry.chrome_trace () with
          | Telemetry.Json.Obj fields ->
            (match List.assoc_opt "traceEvents" fields with
            | Some (Telemetry.Json.Arr items) ->
              Alcotest.(check bool)
                "trace has metadata + events" true
                (List.length items >= List.length evs)
            | _ -> Alcotest.fail "traceEvents missing")
          | _ -> Alcotest.fail "chrome_trace is not an object"))

let test_memo_telemetry_counters () =
  with_enabled true (fun () ->
      let snap0 = Telemetry.snapshot () in
      let m = Runner.Memo.create ~name:"test.memo" () in
      Alcotest.(check int) "miss computes" 1
        (Runner.Memo.get m ~key:"k" (fun () -> 1));
      Alcotest.(check int) "hit cached" 1
        (Runner.Memo.get m ~key:"k" (fun () -> 2));
      let snap = Telemetry.snapshot () in
      let delta name =
        Telemetry.counter_total snap name - Telemetry.counter_total snap0 name
      in
      Alcotest.(check int) "one miss counted" 1 (delta "test.memo.misses");
      Alcotest.(check int) "one hit counted" 1 (delta "test.memo.hits"))

let test_pipeline_stage_spans () =
  with_enabled true (fun () ->
      let snap0 = Telemetry.snapshot () in
      let cfg = Config.Machine.baseline in
      let spec = Workload.Suite.find "gcc" in
      ignore
        (Statsim.run cfg
           (Workload.Suite.stream spec ~length:4_000)
           ~target_length:1_000 ~seed:3);
      let snap = Telemetry.snapshot () in
      let calls s name =
        match Telemetry.span_stat s name with
        | Some st -> st.Telemetry.calls
        | None -> 0
      in
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (name ^ " fired") true
            (calls snap name > calls snap0 name))
        [ "profile.collect"; "synth.compile"; "synth.generate";
          "synth.simulate" ])

(* --- rolling windows --- *)

(* deterministic rotation with explicit ~now: a 4 ms window of 4 x 1 ms
   slots expires observations exactly as now advances past them *)
let test_window_rotation () =
  let w = Telemetry.Window.create ~window_ns:4_000 ~slots:4 () in
  List.iteri
    (fun i v -> Telemetry.Window.observe ~now:(i * 1_000) w v)
    [ 10; 20; 30; 40 ];
  Alcotest.(check int) "all four live" 4
    (Telemetry.Window.count ~now:3_999 w);
  let st = Telemetry.Window.query ~now:3_999 w in
  Alcotest.(check int) "sum" 100 st.Telemetry.Window.w_sum;
  Alcotest.(check (float 1e-9)) "mean" 25.0 st.Telemetry.Window.w_mean;
  (* now = 5_500: slots for epochs 0 and 1 (values 10, 20) have aged out *)
  Alcotest.(check int) "two expired" 2 (Telemetry.Window.count ~now:5_500 w);
  Alcotest.(check int) "sum after expiry" 70
    (Telemetry.Window.query ~now:5_500 w).Telemetry.Window.w_sum;
  (* writing at epoch 5 reuses (and zeroes) the ring slot of epoch 1 *)
  Telemetry.Window.observe ~now:5_500 w 50;
  Alcotest.(check int) "rotated slot rejoined" 3
    (Telemetry.Window.count ~now:5_500 w);
  Alcotest.(check int) "sum after rotation" 120
    (Telemetry.Window.query ~now:5_500 w).Telemetry.Window.w_sum;
  (* far future: everything expired, stat is empty *)
  Alcotest.(check int) "all expired" 0
    (Telemetry.Window.count ~now:1_000_000 w);
  Alcotest.(check bool) "empty stat" true
    (Telemetry.Window.query ~now:1_000_000 w = Telemetry.Window.empty_stat)

(* the slot stamp only advances: a delayed observer holding a stale now
   must not recycle a live slot back to an older epoch (zeroing current
   counts); its observation is dropped instead *)
let test_window_stale_observer_dropped () =
  let w = Telemetry.Window.create ~window_ns:4_000 ~slots:4 () in
  (* epoch 4 maps to ring index 0, same slot as epoch 0 *)
  Telemetry.Window.observe ~now:4_500 w 50;
  Alcotest.(check int) "live count" 1 (Telemetry.Window.count ~now:4_500 w);
  (* a delayed observer from epoch 0 targets the same slot *)
  Telemetry.Window.observe ~now:100 w 999;
  Alcotest.(check int) "stale observe dropped, live count kept" 1
    (Telemetry.Window.count ~now:4_500 w);
  Alcotest.(check int) "live sum kept" 50
    (Telemetry.Window.query ~now:4_500 w).Telemetry.Window.w_sum

let test_window_quantiles () =
  let w = Telemetry.Window.create ~window_ns:60_000_000_000 ~slots:6 () in
  for v = 1 to 100 do
    Telemetry.Window.observe ~now:0 w v
  done;
  let st = Telemetry.Window.query ~now:0 w in
  let within name exact est =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d <= %d <= bound" name exact est)
      true
      (exact <= est
      && est - exact
         <= int_of_float
              (float_of_int exact *. Stats.Qsketch.relative_error)
            + 1)
  in
  Alcotest.(check int) "count" 100 st.Telemetry.Window.w_count;
  within "p50" 50 st.Telemetry.Window.w_p50;
  within "p95" 95 st.Telemetry.Window.w_p95;
  within "p99" 99 st.Telemetry.Window.w_p99

(* count-only windows (ratio numerators) drop the sketch but keep the
   count/sum exact *)
let test_window_count_only () =
  let w = Telemetry.Window.create ~sketch:false ~window_ns:4_000 ~slots:4 () in
  Telemetry.Window.observe ~now:0 w 7;
  Telemetry.Window.observe ~now:0 w 9;
  let st = Telemetry.Window.query ~now:0 w in
  Alcotest.(check int) "count" 2 st.Telemetry.Window.w_count;
  Alcotest.(check int) "sum" 16 st.Telemetry.Window.w_sum;
  Alcotest.(check int) "no quantiles" 0 st.Telemetry.Window.w_p99

(* the property the per-op SLO instruments rely on: concurrent observes
   from parallel domains at a fixed now are all accounted, exactly *)
let prop_window_domains =
  QCheck.Test.make ~count:10 ~name:"window exact under 4 domains"
    QCheck.(int_range 1 2_000)
    (fun n ->
      let w =
        Telemetry.Window.create ~window_ns:60_000_000_000 ~slots:6 ()
      in
      let domains =
        Array.init 4 (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to n do
                  Telemetry.Window.observe ~now:0 w ((d * 37) + i)
                done))
      in
      Array.iter Domain.join domains;
      let st = Telemetry.Window.query ~now:0 w in
      st.Telemetry.Window.w_count = 4 * n
      && st.Telemetry.Window.w_sum
         = 4 * (n * (n + 1) / 2) + (n * (0 + 37 + 74 + 111)))

(* rotation under contention: domains racing across slot boundaries
   drop observations whose slot has already turned over to a newer
   epoch, but the window never over-counts or crashes *)
let prop_window_rotation_hammer =
  QCheck.Test.make ~count:5 ~name:"window sane under racing rotation"
    QCheck.(int_range 100 1_000)
    (fun n ->
      let w = Telemetry.Window.create ~window_ns:4_000 ~slots:4 () in
      let last = 7 * 1_000 in
      let domains =
        Array.init 4 (fun _ ->
            Domain.spawn (fun () ->
                for i = 0 to n - 1 do
                  (* walk epochs 0..7 over a 4-slot ring: every slot is
                     rotated concurrently with writers *)
                  Telemetry.Window.observe ~now:(i * 8 / n * 1_000) w 1
                done))
      in
      Array.iter Domain.join domains;
      let c = Telemetry.Window.count ~now:last w in
      c >= 0 && c <= 4 * n)

(* --- request traces --- *)

let test_trace_tree () =
  let tr = Telemetry.Trace.create ~id:"req-7" () in
  Alcotest.(check string) "id" "req-7" (Telemetry.Trace.id tr);
  let v =
    Telemetry.Trace.span tr "parse" (fun () ->
        Telemetry.Trace.span tr "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "span passes value through" 42 v;
  (try Telemetry.Trace.span tr "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  Telemetry.Trace.add tr "queue_wait" ~start_ns:0 ~dur_ns:123;
  Telemetry.Trace.mark tr "check";
  Telemetry.Trace.mark ~n:3 tr "check";
  Telemetry.Trace.finish tr;
  let open Telemetry.Json in
  let doc = Telemetry.Trace.to_json tr in
  Alcotest.(check (option string)) "json id" (Some "req-7")
    (Option.bind (member "id" doc) to_str);
  let root = Option.get (member "root" doc) in
  Alcotest.(check (option string)) "root is request" (Some "request")
    (Option.bind (member "name" root) to_str);
  let child_names =
    match member "children" root with
    | Some (Arr cs) ->
      List.filter_map (fun c -> Option.bind (member "name" c) to_str) cs
    | _ -> []
  in
  Alcotest.(check (list string)) "children in recording order"
    [ "parse"; "boom"; "queue_wait" ] child_names;
  Alcotest.(check (option string)) "parse has nested child" (Some "inner")
    (match Option.bind (member "children" root) (function
       | Arr (p :: _) -> member "children" p
       | _ -> None)
     with
    | Some (Arr (i :: _)) -> Option.bind (member "name" i) to_str
    | _ -> None);
  Alcotest.(check (option (float 0.0))) "marks accumulate" (Some 4.0)
    (Option.bind (member "marks" doc) (member "check")
    |> Fun.flip Option.bind to_num)

(* --- JSON renders --- *)

let golden_snapshot : Telemetry.snapshot =
  {
    Telemetry.spans =
      [
        {
          Telemetry.span_name = "profile.collect";
          calls = 2;
          total_ns = 1_500_000_000;
          max_ns = 1_000_000_000;
        };
      ];
    counters = [ ("cache.profile.hits", 3) ];
    gauges = [ ("runner.domains", 2.0) ];
    histograms = [];
  }

let test_render_json_golden () =
  Alcotest.(check string)
    "exact metrics document"
    ("{\"telemetry\":{\"spans\":[{\"name\":\"profile.collect\",\"calls\":2,\
      \"total_ns\":1500000000,\"max_ns\":1000000000,\"total_seconds\":1.5,\
      \"max_seconds\":1}],\"counters\":[{\"name\":\"cache.profile.hits\",\
      \"value\":3}],\"gauges\":[{\"name\":\"runner.domains\",\"value\":2}],\
      \"histograms\":[]}}"
    ^ "\n")
    (Telemetry.render_json golden_snapshot)

let test_json_to_string_golden () =
  let open Telemetry.Json in
  Alcotest.(check string)
    "values and escapes"
    "{\"a\":[1,2.5,null,true],\"s\":\"q\\\"\\\\\\n\\u0001z\",\"o\":{}}"
    (to_string
       (Obj
          [
            ("a", Arr [ Num 1.0; Num 2.5; Null; Bool true ]);
            ("s", Str "q\"\\\n\001z");
            ("o", Obj []);
          ]))

let test_json_parse_document () =
  let open Telemetry.Json in
  match
    of_string
      "{\"stages\":{\"profile\":{\"seconds\":0.25,\"ips\":1e6}},\
       \"ok\":true,\"ids\":[\"a\",\"b\"]}"
  with
  | Error msg -> Alcotest.fail msg
  | Ok doc ->
    let seconds =
      Option.bind (member "stages" doc) (member "profile")
      |> Fun.flip Option.bind (member "seconds")
      |> Fun.flip Option.bind to_num
    in
    Alcotest.(check (option (float 0.0))) "nested num" (Some 0.25) seconds;
    Alcotest.(check (option string))
      "first id" (Some "a")
      (match member "ids" doc with
      | Some (Arr (x :: _)) -> to_str x
      | _ -> None)

let test_json_parse_errors () =
  let open Telemetry.Json in
  let is_error s =
    match of_string s with Error _ -> true | Ok _ -> false
  in
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) true (is_error s))
    [ "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "12 34"; "nul" ]

(* adversarial input: resource bombs are rejected with a clear error
   instead of exhausting the stack or the heap *)
let test_json_adversarial () =
  let open Telemetry.Json in
  let err ?max_depth ?max_string name s =
    match of_string ?max_depth ?max_string s with
    | Error msg ->
      Alcotest.(check bool) (name ^ " has a message") true
        (String.length msg > 0)
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  let nest n = String.concat "" [ String.make n '['; "1"; String.make n ']' ] in
  err ~max_depth:16 "nesting bomb" (nest 64);
  err ~max_depth:16 "object nesting bomb"
    (String.concat "" (List.init 32 (fun _ -> {|{"a":|}) @ [ "1" ]
    @ List.init 32 (fun _ -> "}")));
  Alcotest.(check bool) "within depth bound parses" true
    (match of_string ~max_depth:16 (nest 8) with Ok _ -> true | _ -> false);
  err ~max_string:32 "string bomb"
    (Printf.sprintf "%S" (String.make 4096 'x'));
  Alcotest.(check bool) "short string under tight bound parses" true
    (of_string ~max_string:32 {|"ok"|} = Ok (Str "ok"));
  err "number bomb" ("1" ^ String.make 600 '0');
  err "truncated object" {|{"a":|};
  err "truncated array" "[1,2,";
  (* defaults still accept ordinary nested documents *)
  Alcotest.(check bool) "defaults unchanged" true
    (match of_string {|{"a":[1,{"b":"c"}]}|} with Ok _ -> true | _ -> false)

let prop_json_string_roundtrip =
  QCheck.Test.make ~count:200 ~name:"json string roundtrip"
    QCheck.(string_of_size (QCheck.Gen.int_range 0 64))
    (fun s ->
      match Telemetry.Json.(of_string (to_string (Str s))) with
      | Ok (Telemetry.Json.Str s') -> s' = s
      | _ -> false)

let suite =
  [
    Alcotest.test_case "disabled instruments are no-ops" `Quick
      test_disabled_noop;
    Alcotest.test_case "nested spans are monotonic" `Quick test_nested_spans;
    Alcotest.test_case "spans accumulate across calls" `Quick
      test_span_accumulates;
    Alcotest.test_case "raising section still recorded" `Quick
      test_span_records_on_exception;
    Alcotest.test_case "creation interns by name" `Quick test_interning;
    QCheck_alcotest.to_alcotest prop_counter_domains;
    QCheck_alcotest.to_alcotest prop_histogram_domains;
    Alcotest.test_case "histogram bucket placement" `Quick
      test_histogram_buckets;
    Alcotest.test_case "event capture and Chrome trace" `Quick
      test_event_capture_chrome;
    Alcotest.test_case "memo hit/miss folded into registry" `Quick
      test_memo_telemetry_counters;
    Alcotest.test_case "full pipeline fires stage spans" `Quick
      test_pipeline_stage_spans;
    Alcotest.test_case "window rotation is deterministic" `Quick
      test_window_rotation;
    Alcotest.test_case "window drops stale observers" `Quick
      test_window_stale_observer_dropped;
    Alcotest.test_case "window quantiles bounded" `Quick
      test_window_quantiles;
    Alcotest.test_case "count-only window" `Quick test_window_count_only;
    QCheck_alcotest.to_alcotest prop_window_domains;
    QCheck_alcotest.to_alcotest prop_window_rotation_hammer;
    Alcotest.test_case "request trace span tree" `Quick test_trace_tree;
    Alcotest.test_case "metrics JSON golden render" `Quick
      test_render_json_golden;
    Alcotest.test_case "Json.to_string golden" `Quick
      test_json_to_string_golden;
    Alcotest.test_case "Json.of_string reads a summary-style doc" `Quick
      test_json_parse_document;
    Alcotest.test_case "Json.of_string rejects malformed input" `Quick
      test_json_parse_errors;
    Alcotest.test_case "Json.of_string resists adversarial input" `Quick
      test_json_adversarial;
    QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
  ]
