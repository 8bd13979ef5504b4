(* First-order analytical model tests. *)

let check = Alcotest.(check bool)

let cfg = Config.Machine.baseline

let profile_of name =
  Statsim.profile cfg
    (Workload.Suite.stream (Workload.Suite.find name) ~length:40_000)

let test_breakdown_consistent () =
  let b = Analytical.predict cfg (profile_of "gcc") in
  Alcotest.(check (float 1e-9)) "components sum"
    (b.base_cpi +. b.branch_cpi +. b.imem_cpi +. b.dmem_cpi)
    b.total_cpi;
  check "all non-negative" true
    (b.base_cpi >= 0.0 && b.branch_cpi >= 0.0 && b.imem_cpi >= 0.0
   && b.dmem_cpi >= 0.0);
  check "base at least width bound" true
    (b.base_cpi >= 1.0 /. float_of_int cfg.issue_width)

let test_ipc_plausible () =
  List.iter
    (fun name ->
      let ipc = Analytical.ipc cfg (profile_of name) in
      check (name ^ " plausible") true (ipc > 0.02 && ipc <= 8.0))
    [ "gzip"; "twolf"; "vortex" ]

let test_monotone_in_width () =
  (* predictions must not get slower when the machine widens *)
  let p = profile_of "gzip" in
  let narrow = Analytical.ipc (Config.Machine.with_width cfg 2) p in
  let wide = Analytical.ipc (Config.Machine.with_width cfg 8) p in
  check "wider >= narrower" true (wide >= narrow)

let test_memory_profile_hurts () =
  (* a memory-bound profile must predict lower IPC than a clean one *)
  let clean =
    Statsim.profile ~perfect_caches:true cfg
      (Workload.Suite.stream (Workload.Suite.find "twolf") ~length:40_000)
  in
  let real = profile_of "twolf" in
  check "misses cost" true (Analytical.ipc cfg real < Analytical.ipc cfg clean)

let test_empty_profile_rejected () =
  let empty =
    Statsim.profile cfg (fun () -> None)
  in
  check "raises" true
    (try
       ignore (Analytical.ipc cfg empty);
       false
     with Invalid_argument _ -> true)

let test_cruder_than_statistical_simulation () =
  (* the point of the baseline: on a chase-heavy workload, the global
     analytical model errs much more than the SFG-based flow *)
  let spec = Workload.Suite.find "vpr" in
  let stream () = Workload.Suite.stream spec ~length:60_000 in
  let eds = Statsim.reference cfg (stream ()) in
  let p = Statsim.profile cfg (stream ()) in
  let err v =
    Stats.Summary.absolute_error ~reference:eds.Statsim.ipc ~predicted:v
  in
  let analytical_err = err (Analytical.ipc cfg p) in
  let sfg_err =
    err (Statsim.run_profile ~target_length:15_000 cfg p ~seed:4).Statsim.ipc
  in
  check "SFG beats analytical here" true (sfg_err < analytical_err)

(* --- steady-state stationary solver (PR 10) --- *)

(* satellite (d): on random strictly-positive row-stochastic matrices
   (irreducible by construction, so the stationary vector is unique)
   the direct elimination and the power iteration agree to 1e-9, and
   both genuinely solve pi P = pi with sum pi = 1 *)
let prop_stationary_solvers_agree =
  QCheck.Test.make ~name:"solve_direct = power_iteration on stochastic P"
    ~count:100
    QCheck.(pair int (int_range 2 12))
    (fun (seed, n) ->
      let rng = Prng.create ~seed in
      let dense =
        Array.init n (fun _ ->
            let row =
              (* entries in [0.1, 1.1]: bounded away from zero keeps the
                 chain irreducible and aperiodic *)
              Array.init n (fun _ ->
                  0.1 +. (float_of_int (Prng.bits rng) /. 1073741824.0))
            in
            let t = Array.fold_left ( +. ) 0.0 row in
            Array.map (fun x -> x /. t) row)
      in
      let rows = Analytical.Steady_state.rows_of_dense dense in
      let direct =
        match Analytical.Steady_state.solve_direct rows with
        | Some pi -> pi
        | None -> QCheck.Test.fail_report "direct solve refused a dense chain"
      in
      let power, _, _ =
        Analytical.Steady_state.power_iteration ~tol:1e-14 rows
      in
      let sum = Array.fold_left ( +. ) 0.0 direct in
      if Float.abs (sum -. 1.0) > 1e-9 then
        QCheck.Test.fail_report "direct pi does not sum to 1";
      Array.iteri
        (fun i d ->
          if Float.abs (d -. power.(i)) > 1e-9 then
            QCheck.Test.fail_report "direct and power disagree")
        direct;
      (* residual of the fixed point itself *)
      let residual =
        Array.fold_left max 0.0
          (Array.mapi
             (fun j _ ->
               let pj =
                 Array.fold_left
                   (fun acc i ->
                     acc
                     +. Array.fold_left
                          (fun a (k, p) ->
                            if k = j then a +. (direct.(i) *. p) else a)
                          0.0 rows.(i))
                   0.0
                   (Array.init n Fun.id)
               in
               Float.abs (pj -. direct.(j)))
             direct)
      in
      if residual > 1e-9 then QCheck.Test.fail_report "pi P <> pi";
      true)

(* reducibility regression: a two-clique chain has no unique stationary
   vector — elimination must refuse it — and the epsilon-restart
   mixture (the of_sfg default) restores a unique strictly-positive one *)
let test_reducible_chain_regression () =
  let block =
    [|
      [| 0.5; 0.5; 0.0; 0.0 |];
      [| 0.5; 0.5; 0.0; 0.0 |];
      [| 0.0; 0.0; 0.5; 0.5 |];
      [| 0.0; 0.0; 0.5; 0.5 |];
    |]
  in
  check "singular system refused" true
    (Analytical.Steady_state.solve_direct
       (Analytical.Steady_state.rows_of_dense block)
    = None);
  let eps = 0.01 in
  let mixed =
    Array.map
      (Array.map (fun p -> ((1.0 -. eps) *. p) +. (eps /. 4.0)))
      block
  in
  let s = Analytical.Steady_state.stationary_dense mixed in
  Alcotest.(check (float 1e-9)) "mixed pi sums to 1" 1.0
    (Array.fold_left ( +. ) 0.0 s.pi);
  Array.iter
    (fun p -> check "every state reachable" true (p > 0.0))
    s.pi

let test_of_sfg_irreducible () =
  let p = profile_of "gcc" in
  let g = Analytical.Steady_state.of_sfg ~reduction:8 p.sfg in
  (* every row is a probability distribution *)
  Array.iter
    (fun row ->
      let t = Array.fold_left (fun a (_, pr) -> a +. pr) 0.0 row in
      if Float.abs (t -. 1.0) > 1e-9 then
        Alcotest.failf "row sums to %f" t)
    g.rows;
  (* the restart mixture makes the reduced chain irreducible: no
     surviving node is starved even when dropped edges strand whole
     cliques (the bug the mixture exists to fix) *)
  let s = Analytical.Steady_state.solve g in
  Alcotest.(check (float 1e-9)) "pi sums to 1" 1.0
    (Array.fold_left ( +. ) 0.0 s.pi);
  Array.iteri
    (fun i pi ->
      if pi <= 0.0 then Alcotest.failf "node %d starved (pi = %f)" i pi)
    s.pi;
  check "residual tiny" true (s.residual < 1e-8)

let test_estimate_sane () =
  let p = profile_of "gcc" in
  let e = Analytical.Steady_state.estimate ~reduction:8 cfg p in
  check "ipc plausible" true (e.ipc > 0.02 && e.ipc <= 8.0);
  Alcotest.(check (float 1e-9)) "mix sums to 1" 1.0
    (List.fold_left (fun a (_, s) -> a +. s) 0.0 e.mix);
  List.iter (fun (_, s) -> check "mix share in range" true (s >= 0.0)) e.mix;
  let b = e.breakdown in
  Alcotest.(check (float 1e-9)) "breakdown sums"
    (b.base_cpi +. b.branch_cpi +. b.imem_cpi +. b.dmem_cpi)
    b.total_cpi;
  Alcotest.(check (float 1e-9)) "ipc inverts total" (1.0 /. b.total_cpi) e.ipc;
  (* at reduction 1 nothing is dropped: the stationary mix must sit
     close to the profiled occupancy mix, so the steady-state estimate
     stays in the same neighborhood as the plain first-order model *)
  let full = Analytical.Steady_state.estimate ~reduction:1 cfg p in
  let plain = Analytical.ipc cfg p in
  check "same neighborhood as plain model" true
    (Float.abs (full.ipc -. plain) /. plain < 0.5)

let suite =
  [
    Alcotest.test_case "breakdown consistent" `Quick test_breakdown_consistent;
    Alcotest.test_case "ipc plausible" `Quick test_ipc_plausible;
    Alcotest.test_case "monotone in width" `Quick test_monotone_in_width;
    Alcotest.test_case "memory hurts" `Quick test_memory_profile_hurts;
    Alcotest.test_case "empty profile rejected" `Quick test_empty_profile_rejected;
    Alcotest.test_case "cruder than statsim" `Quick
      test_cruder_than_statistical_simulation;
    QCheck_alcotest.to_alcotest prop_stationary_solvers_agree;
    Alcotest.test_case "reducible chain regression" `Quick
      test_reducible_chain_regression;
    Alcotest.test_case "of_sfg irreducible" `Quick test_of_sfg_irreducible;
    Alcotest.test_case "steady-state estimate sane" `Quick test_estimate_sane;
  ]
