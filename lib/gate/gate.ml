module J = Telemetry.Json

type check = {
  label : string;
  path : string list;
  both_directions : bool;
  abs_slack : float;
}

type verdict = Pass | Regressed | Missing | New

let failed = function
  | Regressed | Missing -> true
  | Pass | New -> false

let num_field json path =
  let rec go json = function
    | [] -> J.to_num json
    | k :: rest -> (
      match J.member k json with Some v -> go v rest | None -> None)
  in
  go json path

let stage_names =
  [ "profile"; "generate"; "simulate_synthetic"; "simulate_eds" ]

let default_checks =
  List.map
    (fun stage ->
      {
        label = "stage." ^ stage ^ ".seconds";
        path = [ "stages"; stage; "seconds" ];
        both_directions = false;
        abs_slack = 0.05;
      })
    stage_names
  @ List.map
      (fun field ->
        {
          label = "cache." ^ field;
          path = [ "cache"; field ];
          both_directions = true;
          abs_slack = 1.0;
        })
      [
        "profile_hits";
        "profile_misses";
        "reference_hits";
        "reference_misses";
        "plan_hits";
        "plan_misses";
      ]
  (* the CI bench run has no REPRO_CACHE_DIR, so these must stay 0 —
     a nonzero value means the gate run accidentally used a store *)
  @ List.map
      (fun field ->
        {
          label = "store." ^ field;
          path = [ "store"; field ];
          both_directions = true;
          abs_slack = 0.5;
        })
      [ "hits"; "misses"; "bytes_written"; "quarantined" ]
  (* streamed-vs-materialized bench: gate the timings like any stage
     (informational until the baseline is regenerated with them) *)
  @ List.map
      (fun path_kind ->
        {
          label = "streaming." ^ path_kind ^ ".seconds";
          path = [ "streaming"; path_kind; "seconds" ];
          both_directions = false;
          abs_slack = 0.05;
        })
      [ "streamed"; "materialized" ]
  (* compiled-kernel bench: plan compilation, generation and both
     pipeline schedulers' wall times, gated one-directionally like every
     timing *)
  @ List.map
      (fun (label, path) ->
        { label; path; both_directions = false; abs_slack = 0.05 })
      [
        ("kernel.compile_seconds", [ "kernel"; "compile_seconds" ]);
        ( "kernel.generate.compiled.seconds",
          [ "kernel"; "generate"; "compiled"; "seconds" ] );
        ( "kernel.pipeline.dense.seconds",
          [ "kernel"; "pipeline"; "dense"; "seconds" ] );
        ( "kernel.pipeline.event_driven.seconds",
          [ "kernel"; "pipeline"; "event_driven"; "seconds" ] );
      ]
  (* design-space exploration driver: sweep wall time is gated like a
     stage; the profile/plan compute counts are the driver's whole
     contract (one each per sweep) so any drift fails *)
  @ [
      {
        label = "dse.seconds";
        path = [ "dse"; "seconds" ];
        both_directions = false;
        abs_slack = 0.05;
      };
      {
        label = "dse.profile_collections";
        path = [ "dse"; "profile_collections" ];
        both_directions = true;
        abs_slack = 0.5;
      };
      {
        label = "dse.plan_compilations";
        path = [ "dse"; "plan_compilations" ];
        both_directions = true;
        abs_slack = 0.5;
      };
    ]
  (* the serve daemon: time-to-first-response cold (profile + plan +
     reference all computed) and warm (pure cache hits), plus the warm
     round-trip batch — regressions only, timings are scale-noisy *)
  @ [
      {
        label = "serve.cold_first_response_seconds";
        path = [ "serve"; "cold_first_response_seconds" ];
        both_directions = false;
        abs_slack = 0.25;
      };
      {
        label = "serve.warm_first_response_seconds";
        path = [ "serve"; "warm_first_response_seconds" ];
        both_directions = false;
        abs_slack = 0.05;
      };
      {
        label = "serve.warm_seconds";
        path = [ "serve"; "warm_seconds" ];
        both_directions = false;
        abs_slack = 0.1;
      };
    ]
  (* variance-aware replication: the replicas-to-target-CI counts are
     fully deterministic (fixed sizes, fixed master seed, jobs-invariant
     estimator), so any drift is a behavioral change in the stratified
     engine and fails in either direction; the wall times are gated like
     any other timing *)
  @ List.map
      (fun kind ->
        {
          label = "replication." ^ kind ^ ".replicas";
          path = [ "replication"; kind; "replicas" ];
          both_directions = true;
          abs_slack = 0.5;
        })
      [ "blind"; "stratified"; "stratified_cv" ]
  @ List.map
      (fun kind ->
        {
          label = "replication." ^ kind ^ ".seconds";
          path = [ "replication"; kind; "seconds" ];
          both_directions = false;
          abs_slack = 0.5;
        })
      [ "blind"; "stratified_cv" ]

let evaluate ~threshold ~baseline ~current check =
  match (num_field baseline check.path, num_field current check.path) with
  (* a metric the baseline predates (new summary sections land before
     the baseline is regenerated) is informational, not a failure; a
     metric missing from the *current* run still fails — the harness
     stopped producing it *)
  | None, _ -> (check, nan, nan, New)
  | Some b, None -> (check, b, nan, Missing)
  | Some b, Some c ->
    let delta = c -. b in
    let over_rel =
      if check.both_directions then Float.abs delta > threshold *. Float.abs b
      else delta > threshold *. Float.abs b
    in
    let over_abs = Float.abs delta > check.abs_slack in
    (check, b, c, if over_rel && over_abs then Regressed else Pass)

(* A baseline section with numbers that the fresh summary emits as {}
   (or not at all) would previously pass any per-metric check whose
   path the static list did not know about — e.g. the dynamically-keyed
   "histograms" section. Guard the sections themselves. *)
let missing_sections ~baseline ~current =
  match baseline with
  | J.Obj kvs ->
    List.filter_map
      (fun (name, v) ->
        match v with
        | J.Obj (_ :: _) -> (
          match J.member name current with
          | Some (J.Obj (_ :: _)) -> None
          | Some (J.Obj []) | None -> Some name
          | Some _ -> Some name)
        | _ -> None)
      kvs
  | _ -> []
