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

(* --- the estimate over the reduced graph --- *)

let test_estimate_sane () =
  let p = profile_of "gcc" in
  let e = Analytical.estimate ~reduction:8 cfg p in
  check "ipc plausible" true (e.ipc > 0.02 && e.ipc <= 8.0);
  Alcotest.(check (float 1e-9)) "mix sums to 1" 1.0
    (List.fold_left (fun a (_, s) -> a +. s) 0.0 e.mix);
  List.iter (fun (_, s) -> check "mix share in range" true (s >= 0.0)) e.mix;
  let b = e.breakdown in
  Alcotest.(check (float 1e-9)) "breakdown sums"
    (b.base_cpi +. b.branch_cpi +. b.imem_cpi +. b.dmem_cpi)
    b.total_cpi;
  Alcotest.(check (float 1e-9)) "ipc inverts total" (1.0 /. b.total_cpi) e.ipc;
  (* at reduction 1 nothing is dropped: the estimate is the plain
     first-order model *)
  let full = Analytical.estimate ~reduction:1 cfg p in
  Alcotest.(check int64) "R = 1 is the plain model"
    (Int64.bits_of_float (Analytical.ipc cfg p))
    (Int64.bits_of_float full.ipc)

(* The reduced walk visits each survivor exactly [node_occ] times, so
   the estimate's mix is the compiled plan's slot-class mix at every R,
   and at R = 1 the estimate is [predict] bit for bit. *)
let test_estimate_is_the_plan () =
  List.iter
    (fun bench ->
      let p =
        Statsim.profile cfg
          (Workload.Suite.stream (Workload.Suite.find bench) ~length:20_000)
      in
      List.iter
        (fun r ->
          let label what = Printf.sprintf "%s, R = %d: %s" bench r what in
          let e = Analytical.estimate ~reduction:r cfg p in
          let plan = Kernel.Compile.plan ~reduction:r p in
          let counts = Array.make Isa.Iclass.count 0.0 in
          for i = 0 to Kernel.Plan.nnodes plan - 1 do
            for j = plan.node_slot_off.(i) to plan.node_slot_off.(i + 1) - 1 do
              let c = Kernel.Plan.meta_class plan.slot_meta.(j) in
              counts.(c) <- counts.(c) +. float_of_int plan.node_occ.(i)
            done
          done;
          let n = float_of_int (Kernel.Plan.instructions plan) in
          let l1 =
            List.fold_left
              (fun acc (k, share) ->
                acc +. Float.abs (share -. (counts.(Isa.Iclass.index k) /. n)))
              0.0 e.mix
          in
          if l1 > 1e-12 then Alcotest.failf "%s %g" (label "mix L1") l1;
          Alcotest.(check int) (label "nodes") (Kernel.Plan.nnodes plan) e.nodes;
          if r = 1 then
            Alcotest.(check int64) (label "total CPI is predict's")
              (Int64.bits_of_float (Analytical.predict cfg p).total_cpi)
              (Int64.bits_of_float e.breakdown.total_cpi))
        [ 1; 4; 16 ])
    Workload.Suite.names

let suite =
  [
    Alcotest.test_case "breakdown consistent" `Quick test_breakdown_consistent;
    Alcotest.test_case "ipc plausible" `Quick test_ipc_plausible;
    Alcotest.test_case "monotone in width" `Quick test_monotone_in_width;
    Alcotest.test_case "memory hurts" `Quick test_memory_profile_hurts;
    Alcotest.test_case "empty profile rejected" `Quick test_empty_profile_rejected;
    Alcotest.test_case "cruder than statsim" `Quick
      test_cruder_than_statistical_simulation;
    Alcotest.test_case "steady-state estimate sane" `Quick test_estimate_sane;
    Alcotest.test_case "estimate is the plan's mix" `Quick
      test_estimate_is_the_plan;
  ]
