(* Perf-gate verdicts: relative threshold, absolute slack, directionality,
   missing metrics, and the whole-section guard. *)

module J = Telemetry.Json

let check = Alcotest.(check bool)

let timing = { Gate.label = "t"; path = [ "a"; "b" ]; both_directions = false; abs_slack = 0.05 }
let count = { timing with Gate.label = "c"; both_directions = true }

let doc v = J.Obj [ ("a", J.Obj [ ("b", J.Num v) ]) ]

let verdict ?(threshold = 1.0) ~check ~b ~c () =
  let _, _, _, v = Gate.evaluate ~threshold ~baseline:(doc b) ~current:(doc c) check in
  v

let test_timing_verdicts () =
  check "within threshold" true
    (verdict ~check:timing ~b:1.0 ~c:1.9 () = Gate.Pass);
  check "over threshold" true
    (verdict ~check:timing ~b:1.0 ~c:2.5 () = Gate.Regressed);
  check "timings never regress by getting faster" true
    (verdict ~check:timing ~b:1.0 ~c:0.01 () = Gate.Pass);
  check "tighter threshold" true
    (verdict ~threshold:0.1 ~check:timing ~b:1.0 ~c:1.2 () = Gate.Regressed)

let test_count_verdicts () =
  check "counts fail on drift down too" true
    (verdict ~threshold:0.5 ~check:count ~b:10.0 ~c:2.0 () = Gate.Regressed);
  check "counts fail on drift up" true
    (verdict ~threshold:0.5 ~check:count ~b:10.0 ~c:20.1 () = Gate.Regressed);
  check "steady counts pass" true
    (verdict ~threshold:0.5 ~check:count ~b:10.0 ~c:10.0 () = Gate.Pass)

let test_abs_slack () =
  (* a huge relative delta on a near-zero timing is noise, not a
     regression, until it also clears the absolute slack *)
  check "tiny absolute delta passes" true
    (verdict ~check:timing ~b:0.001 ~c:0.01 () = Gate.Pass);
  check "but a real absolute delta fails" true
    (verdict ~check:timing ~b:0.001 ~c:0.2 () = Gate.Regressed);
  (* zero baseline: the relative test alone could never fire *)
  check "growth from zero fails" true
    (verdict ~check:timing ~b:0.0 ~c:0.2 () = Gate.Regressed)

let test_missing_and_new () =
  let empty = J.Obj [] in
  let _, _, _, v =
    Gate.evaluate ~threshold:1.0 ~baseline:(doc 1.0) ~current:empty timing
  in
  check "metric vanished from current: Missing" true (v = Gate.Missing);
  check "Missing fails the gate" true (Gate.failed v);
  let _, _, _, v =
    Gate.evaluate ~threshold:1.0 ~baseline:empty ~current:(doc 1.0) timing
  in
  check "metric the baseline predates: New" true (v = Gate.New);
  check "New is informational" false (Gate.failed v);
  check "Pass is not a failure" false (Gate.failed Gate.Pass);
  check "Regressed is a failure" true (Gate.failed Gate.Regressed)

let obj kvs = J.Obj kvs
let sec kvs = obj [ ("s", obj kvs) ]

let test_missing_sections () =
  let full = sec [ ("x", J.Num 1.0) ] in
  Alcotest.(check (list string))
    "present section passes" []
    (Gate.missing_sections ~baseline:full ~current:full);
  Alcotest.(check (list string))
    "section emitted as {} is a named failure" [ "s" ]
    (Gate.missing_sections ~baseline:full ~current:(sec []));
  Alcotest.(check (list string))
    "section absent entirely is a named failure" [ "s" ]
    (Gate.missing_sections ~baseline:full ~current:(obj []));
  Alcotest.(check (list string))
    "section replaced by a scalar is a named failure" [ "s" ]
    (Gate.missing_sections ~baseline:full ~current:(obj [ ("s", J.Num 0.0) ]));
  (* a section that is empty in the baseline gates nothing — new
     sections land before the baseline is regenerated *)
  Alcotest.(check (list string))
    "empty baseline section gates nothing" []
    (Gate.missing_sections ~baseline:(sec []) ~current:(obj []));
  (* scalar baseline keys (jobs, total_seconds) are not sections *)
  Alcotest.(check (list string))
    "scalar baseline keys ignored" []
    (Gate.missing_sections
       ~baseline:(obj [ ("jobs", J.Num 1.0) ])
       ~current:(obj []));
  (* names come back in baseline document order *)
  Alcotest.(check (list string))
    "baseline document order" [ "a"; "b" ]
    (Gate.missing_sections
       ~baseline:
         (obj
            [
              ("a", obj [ ("x", J.Num 1.0) ]);
              ("jobs", J.Num 1.0);
              ("b", obj [ ("y", J.Num 2.0) ]);
            ])
       ~current:(obj [ ("jobs", J.Num 1.0) ]))

let test_default_checks_cover_dse () =
  let has l = List.exists (fun c -> c.Gate.label = l) Gate.default_checks in
  check "dse.seconds gated" true (has "dse.seconds");
  check "dse.profile_collections gated" true (has "dse.profile_collections");
  check "dse.plan_compilations gated" true (has "dse.plan_compilations")

let test_default_checks_cover_replication () =
  let find l =
    List.find_opt (fun c -> c.Gate.label = l) Gate.default_checks
  in
  (* the replicas-to-target-CI counts are deterministic, so they must be
     gated against drift in either direction *)
  List.iter
    (fun kind ->
      match find ("replication." ^ kind ^ ".replicas") with
      | Some c -> check (kind ^ " both directions") true c.Gate.both_directions
      | None -> Alcotest.failf "replication.%s.replicas not gated" kind)
    [ "blind"; "stratified"; "stratified_cv" ];
  match find "replication.blind.seconds" with
  | Some c -> check "timing one-directional" false c.Gate.both_directions
  | None -> Alcotest.fail "replication.blind.seconds not gated"

(* words per instruction are exact: a few words of regression must
   fail under CI's threshold of 1.0 even from a near-zero baseline *)
let test_default_checks_cover_words () =
  List.iter
    (fun layer ->
      let label = "kernel." ^ layer ^ ".words_per_inst" in
      match List.find_opt (fun c -> c.Gate.label = label) Gate.default_checks with
      | None -> Alcotest.failf "%s not gated" label
      | Some c ->
        check (label ^ " one-directional") false c.Gate.both_directions;
        let at w = List.fold_right (fun k v -> J.Obj [ (k, v) ]) c.Gate.path (J.Num w) in
        let verdict b w =
          let _, _, _, v =
            Gate.evaluate ~threshold:1.0 ~baseline:(at b) ~current:(at w) c
          in
          v
        in
        check (label ^ ": a record per instruction fails") true
          (verdict 0.2 4.2 = Gate.Regressed);
        check (label ^ ": noise passes") true (verdict 0.2 0.3 = Gate.Pass))
    [ "generate.compiled"; "pipeline.dense"; "pipeline.event_driven" ]

(* profiling's words per instruction include its stream's: 19.4 on the
   kernel section's 8k gcc stream, of which draining the stream is 14.6.
   The profiler that allocated closures, options and a FIFO record per
   instruction read 48.0 there and must fail; drift must pass *)
let test_default_checks_cover_profile_words () =
  let label = "kernel.profile.words_per_inst" in
  match List.find_opt (fun c -> c.Gate.label = label) Gate.default_checks with
  | None -> Alcotest.failf "%s not gated" label
  | Some c ->
    check (label ^ " one-directional") false c.Gate.both_directions;
    let at w = List.fold_right (fun k v -> J.Obj [ (k, v) ]) c.Gate.path (J.Num w) in
    let verdict w =
      let _, _, _, v =
        Gate.evaluate ~threshold:1.0 ~baseline:(at 19.4) ~current:(at w) c
      in
      v
    in
    check (label ^ ": the old profiler fails") true (verdict 48.0 = Gate.Regressed);
    check (label ^ ": drift passes") true (verdict 20.4 = Gate.Pass)

(* the codec's words per byte at today's figures, against the costs of
   what it replaced: a Printf per field (14.0 for profiles, 4.8 for
   plans) and a token list per line (8.1 and 3.6) must fail, a few
   percent of drift must pass *)
let test_default_checks_cover_codec () =
  List.iter
    (fun (call, now, before) ->
      let label = "kernel.codec." ^ call ^ ".words_per_byte" in
      match List.find_opt (fun c -> c.Gate.label = label) Gate.default_checks with
      | None -> Alcotest.failf "%s not gated" label
      | Some c ->
        check (label ^ " one-directional") false c.Gate.both_directions;
        let at w = List.fold_right (fun k v -> J.Obj [ (k, v) ]) c.Gate.path (J.Num w) in
        let verdict w =
          let _, _, _, v =
            Gate.evaluate ~threshold:1.0 ~baseline:(at now) ~current:(at w) c
          in
          v
        in
        check (label ^ ": the old codec fails") true (verdict before = Gate.Regressed);
        check (label ^ ": drift passes") true (verdict (now *. 1.05) = Gate.Pass))
    [
      ("profile_encode", 1.2, 14.0);
      ("profile_decode", 3.4, 8.1);
      ("plan_encode", 0.4, 4.8);
      ("plan_decode", 0.33, 3.6);
    ]

let suite =
  [
    Alcotest.test_case "timing verdicts" `Quick test_timing_verdicts;
    Alcotest.test_case "count verdicts" `Quick test_count_verdicts;
    Alcotest.test_case "absolute slack" `Quick test_abs_slack;
    Alcotest.test_case "missing and new" `Quick test_missing_and_new;
    Alcotest.test_case "missing sections" `Quick test_missing_sections;
    Alcotest.test_case "dse checks present" `Quick test_default_checks_cover_dse;
    Alcotest.test_case "replication checks present" `Quick
      test_default_checks_cover_replication;
    Alcotest.test_case "words checks present" `Quick
      test_default_checks_cover_words;
    Alcotest.test_case "codec words checks present" `Quick
      test_default_checks_cover_codec;
    Alcotest.test_case "profile words check present" `Quick
      test_default_checks_cover_profile_words;
  ]
