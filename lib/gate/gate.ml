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

let check ?(both_directions = false) ~abs_slack label path =
  { label; path; both_directions; abs_slack }

let default_checks =
  List.map
    (fun stage ->
      check ~abs_slack:0.05
        ("stage." ^ stage ^ ".seconds")
        [ "stages"; stage; "seconds" ])
    stage_names
  @ List.map
      (fun field ->
        check ~both_directions:true ~abs_slack:1.0 ("cache." ^ field)
          [ "cache"; field ])
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
        check ~both_directions:true ~abs_slack:0.5 ("store." ^ field)
          [ "store"; field ])
      [ "hits"; "misses"; "bytes_written"; "quarantined" ]
  (* compiled-kernel bench: plan compilation, generation and both
     pipeline schedulers' wall times, gated one-directionally like every
     timing *)
  @ List.map
      (fun path -> check ~abs_slack:0.05 (String.concat "." path) path)
      [
        [ "kernel"; "compile_seconds" ];
        [ "kernel"; "generate"; "compiled"; "seconds" ];
        [ "kernel"; "pipeline"; "dense"; "seconds" ];
        [ "kernel"; "pipeline"; "event_driven"; "seconds" ];
      ]
  (* the same layers' minor words per instruction, and profiling's:
     exact, so a reintroduced per-instruction record (a few words) fails
     even when its time hides in host noise *)
  @ List.map
      (fun layer ->
        let path = ("kernel" :: layer) @ [ "words_per_inst" ] in
        check ~abs_slack:1.0 (String.concat "." path) path)
      [
        [ "profile" ];
        [ "generate"; "compiled" ];
        [ "pipeline"; "dense" ];
        [ "pipeline"; "event_driven" ];
      ]
  (* the store codec's minor words per byte of text, exact too: a
     reintroduced Printf per field or token list per line at least
     doubles them *)
  @ List.map
      (fun call ->
        let path = [ "kernel"; "codec"; call; "words_per_byte" ] in
        check ~abs_slack:0.1 (String.concat "." path) path)
      [ "profile_encode"; "profile_decode"; "plan_encode"; "plan_decode" ]
  (* design-space exploration driver: sweep wall time is gated like a
     stage; the profile/plan compute counts are the driver's whole
     contract (one each per sweep) so any drift fails *)
  @ [
      check ~abs_slack:0.05 "dse.seconds" [ "dse"; "seconds" ];
      check ~both_directions:true ~abs_slack:0.5 "dse.profile_collections"
        [ "dse"; "profile_collections" ];
      check ~both_directions:true ~abs_slack:0.5 "dse.plan_compilations"
        [ "dse"; "plan_compilations" ];
    ]
  (* the serve daemon: time-to-first-response cold (profile + plan +
     reference all computed) and warm (pure cache hits), plus the warm
     round-trip batch — regressions only, timings are scale-noisy *)
  @ [
      check ~abs_slack:0.25 "serve.cold_first_response_seconds"
        [ "serve"; "cold_first_response_seconds" ];
      check ~abs_slack:0.05 "serve.warm_first_response_seconds"
        [ "serve"; "warm_first_response_seconds" ];
      check ~abs_slack:0.1 "serve.warm_seconds" [ "serve"; "warm_seconds" ];
    ]
  (* variance-aware replication: the replicas-to-target-CI counts are
     fully deterministic (fixed sizes, fixed master seed, jobs-invariant
     estimator), so any drift is a behavioral change in the stratified
     engine and fails in either direction; the wall times are gated like
     any other timing *)
  @ List.map
      (fun kind ->
        check ~both_directions:true ~abs_slack:0.5
          ("replication." ^ kind ^ ".replicas")
          [ "replication"; kind; "replicas" ])
      [ "blind"; "stratified"; "stratified_cv" ]
  @ List.map
      (fun kind ->
        check ~abs_slack:0.5
          ("replication." ^ kind ^ ".seconds")
          [ "replication"; kind; "seconds" ])
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
