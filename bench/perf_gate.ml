(* CI perf-regression gate: compare a fresh BENCH_summary.json against
   the checked-in bench/baseline.json.

   Usage:
     dune exec bench/perf_gate.exe -- \
       [--baseline bench/baseline.json] [--current BENCH_summary.json] \
       [--threshold 1.0]

   The verdict logic lives in lib/gate (unit-tested); this executable
   parses arguments, reads the two documents and prints the table.

   Gated metrics:
     - per-stage seconds (profile / generate / simulate stages / DSE
       sweep): fail when the current run is slower than
       baseline * (1 + threshold), with a small absolute slack so
       near-zero timings at tiny REPRO_SCALE cannot trip the relative
       test;
     - memo-cache hit/miss counts and the DSE driver's profile/plan
       compute counts: deterministic for a fixed experiment selection,
       so a drift beyond the threshold in either direction signals a
       behavioral change and fails the gate;
     - whole summary sections: a section the baseline has numbers for
       but the fresh summary leaves empty is a named failure (the
       bench selection stopped running it), never a silent skip.

   Timings are compared at a generous threshold (default +100%) because
   CI machines vary; the gate exists to catch order-of-magnitude
   hot-path regressions, not 10% noise. Exit status: 0 pass, 1 regression,
   2 usage/parse error. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_json path =
  let contents =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error msg -> die "perf_gate: cannot read %s: %s" path msg
  in
  match Telemetry.Json.of_string contents with
  | Ok v -> v
  | Error msg -> die "perf_gate: %s: %s" path msg

let () =
  let baseline_file = ref "bench/baseline.json" in
  let current_file = ref "BENCH_summary.json" in
  let threshold = ref 1.0 in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: v :: rest ->
      baseline_file := v;
      parse rest
    | "--current" :: v :: rest ->
      current_file := v;
      parse rest
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t >= 0.0 -> threshold := t
      | Some _ | None -> die "perf_gate: invalid --threshold %s" v);
      parse rest
    | arg :: _ -> die "perf_gate: unknown argument %s" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline = read_json !baseline_file in
  let current = read_json !current_file in
  let results =
    List.map
      (Gate.evaluate ~threshold:!threshold ~baseline ~current)
      Gate.default_checks
  in
  Printf.printf "perf gate: %s vs baseline %s (threshold +%.0f%%)\n"
    !current_file !baseline_file (100.0 *. !threshold);
  Printf.printf "  %-34s %12s %12s %9s  %s\n" "metric" "baseline" "current"
    "delta" "status";
  let failures = ref 0 in
  List.iter
    (fun (check, b, c, verdict) ->
      let fmt v =
        if Float.is_nan v then "-"
        else if Float.is_integer v then Printf.sprintf "%.0f" v
        else Printf.sprintf "%.3f" v
      in
      let delta =
        if Float.is_nan b || Float.is_nan c then "-"
        else if Float.abs b > 0.0 then
          Printf.sprintf "%+.0f%%" (100.0 *. (c -. b) /. Float.abs b)
        else Printf.sprintf "%+.3f" (c -. b)
      in
      if Gate.failed verdict then incr failures;
      let status =
        match verdict with
        | Gate.Pass -> "ok"
        | Gate.Regressed -> "REGRESSED"
        | Gate.Missing -> "MISSING"
        | Gate.New -> "new (no baseline)"
      in
      Printf.printf "  %-34s %12s %12s %9s  %s\n" check.Gate.label (fmt b)
        (fmt c) delta status)
    results;
  (* sections the baseline gates but the fresh summary left empty: a
     bench selection that silently stopped running a whole benchmark
     must fail by name, not pass by omission *)
  let empty_sections = Gate.missing_sections ~baseline ~current in
  List.iter
    (fun name ->
      incr failures;
      Printf.printf "  %-34s %12s %12s %9s  %s\n" ("section." ^ name)
        "(object)" "-" "-" "MISSING")
    empty_sections;
  (match
     (Gate.num_field baseline [ "total_seconds" ],
      Gate.num_field current [ "total_seconds" ])
   with
  | Some b, Some c ->
    Printf.printf "  (total_seconds %.3f -> %.3f, informational)\n" b c
  | _ -> ());
  (* informational: the event-driven-over-dense pipeline ratio from the
     current run — a ratio on a shared CI machine is too noisy to gate
     on *)
  (match Gate.num_field current [ "kernel"; "pipeline"; "speedup" ] with
  | Some s ->
    Printf.printf
      "  (kernel pipeline speedup %.2fx event-driven/dense, informational)\n" s
  | None -> ());
  (* informational until a baseline with a dse section lands *)
  (match Gate.num_field current [ "dse"; "points_per_sec" ] with
  | Some s ->
    Printf.printf "  (dse sweep throughput %.1f points/sec, informational)\n" s
  | None -> ());
  if !failures > 0 then begin
    Printf.printf "FAIL: %d metric(s) regressed or missing\n" !failures;
    exit 1
  end
  else print_endline "PASS"
