(* Tests of the benchmark's own helpers: the percentile rule, the drift
   scaling, the seeded op lists and the percentile placement guard. *)

open Perfbench

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs b)

(* --- percentile rule --- *)

let test_max_percentile () =
  Alcotest.(check (option int)) "10 samples: none" None (Stat.max_percentile 10);
  Alcotest.(check (option int)) "100 samples: p90" (Some 90) (Stat.max_percentile 100);
  Alcotest.(check (option int)) "200 samples: p95" (Some 95) (Stat.max_percentile 200);
  Alcotest.(check (option int)) "1000 samples: p99" (Some 99) (Stat.max_percentile 1000);
  for n = 11 to 600 do
    match Stat.max_percentile n with
    | None -> Alcotest.failf "n=%d: no percentile" n
    | Some p ->
      if Stat.beyond ~n (float_of_int p) < 10 then Alcotest.failf "n=%d p%d: < 10 beyond" n p;
      if p < 99 && Stat.beyond ~n (float_of_int (p + 1)) >= 10 then
        Alcotest.failf "n=%d: p%d is not the highest" n p
  done

let test_percentile_values () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.0)) "p90 of 1..100" 90.0 (Stat.percentile a 90.0);
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (Stat.percentile a 50.0);
  Alcotest.(check (float 0.0)) "median of 1..100" 50.5 (Stat.median a);
  Alcotest.(check (float 0.0)) "reported p90" 90.0 (Stat.reported_percentile a 90.0);
  Alcotest.check_raises "p90 of 99 samples refused"
    (Invalid_argument "Stat.reported_percentile: p90 needs 10 samples above it, 99 samples")
    (fun () -> ignore (Stat.reported_percentile (Array.sub a 0 99) 90.0))

(* --- scaling math --- *)

let test_scaling () =
  (* a host 10% slower than the reference: the probe reads 1.1x *)
  let s = Stat.scale_factor ~probe_ref:2.0 ~probe_ms:2.2 in
  Alcotest.(check bool) "factor" true (close s (1.0 /. 1.1));
  Alcotest.(check bool) "time back to the reference" true (close (Stat.scale_time ~s 110.0) 100.0);
  Alcotest.(check bool) "rate back to the reference" true
    (close (Stat.scale_rate ~s (100.0 /. 1.1)) 100.0);
  Alcotest.(check bool) "reference host is identity" true
    (close (Stat.scale_time ~s:(Stat.scale_factor ~probe_ref:3.0 ~probe_ms:3.0) 7.0) 7.0);
  Alcotest.check_raises "zero probe refused"
    (Invalid_argument "Stat.scale_factor: probe_ms <= 0")
    (fun () -> ignore (Stat.scale_factor ~probe_ref:1.0 ~probe_ms:0.0))

(* --- seeded op lists --- *)

let benches = Workload.Suite.names
let seconds = 10

let cli seed = Oplist.cli_session ~benches ~seed ~passes:(Oplist.cli_passes ~seconds)
let dse seed = Oplist.dse_sweep ~benches:[ "vortex"; "gcc"; "twolf" ] ~seed ~ops:(Oplist.dse_ops ~seconds)

let serve seed =
  Oplist.serve_warm ~benches:[ "bzip2"; "gcc"; "twolf"; "vortex" ] ~seed ~ops:(Oplist.serve_ops ~seconds)

let same_multiset key a b = List.sort compare (List.map key a) = List.sort compare (List.map key b)

let test_same_seed_same_list () =
  Alcotest.(check bool) "cli-session" true (cli 7 = cli 7);
  Alcotest.(check bool) "dse-sweep" true (dse 7 = dse 7);
  Alcotest.(check bool) "serve-warm" true (serve 7 = serve 7)

(* a new seed runs the same ops in another order *)
let test_new_seed_permutes () =
  let permutes name a b = 
    Alcotest.(check bool) (name ^ ": same ops") true (same_multiset Fun.id a b);
    Alcotest.(check bool) (name ^ ": new order") true (a <> b)
  in
  permutes "cli-session" (cli 1) (cli 2);
  permutes "dse-sweep" (dse 1) (dse 2);
  permutes "serve-warm" (serve 1) (serve 2)

let test_cli_shape () =
  let ops = cli 3 in
  Alcotest.(check int) "op count" (Oplist.cli_passes ~seconds * 40) (List.length ops);
  (* per pass: each workload once cold, then three warm calls *)
  List.iteri
    (fun i (o : Oplist.cli_op) ->
      if o.cold <> (i mod 4 = 0) then Alcotest.failf "op %d: wrong class" i;
      let cold = List.nth ops (i - (i mod 4)) in
      if o.bench <> cold.bench || o.pass <> cold.pass then Alcotest.failf "op %d: wrong workload" i)
    ops;
  Alcotest.(check bool) "at least 100 ops" true (List.length (dse 1) >= 100 && List.length (serve 1) >= 100)

(* --- percentile placement guard --- *)

let check_placement name counts ~p ~cls =
  let i, margin = Oplist.locate counts p in
  if i <> cls then Alcotest.failf "%s: p%g in class %d, expected %d" name p i cls;
  if margin < 10.0 then Alcotest.failf "%s: p%g only %.1f points inside its class" name p margin

let test_placement () =
  List.iter
    (fun seconds ->
      let cli = Oplist.cli_session ~benches ~seed:1 ~passes:(Oplist.cli_passes ~seconds) in
      (* classes in latency order: warm, cold *)
      let counts = Oplist.cli_class_counts cli in
      check_placement "cli-session" counts ~p:50.0 ~cls:0;
      check_placement "cli-session" counts ~p:90.0 ~cls:1;
      let serve =
        Oplist.serve_warm ~benches:[ "a"; "b"; "c"; "d" ] ~seed:1 ~ops:(Oplist.serve_ops ~seconds)
      in
      (* estimate, simulate, stratify, replicate *)
      let counts = Oplist.serve_class_counts serve in
      check_placement "serve-warm" counts ~p:50.0 ~cls:1;
      check_placement "serve-warm" counts ~p:90.0 ~cls:3)
    [ 1; 5; 10; 20; 60 ]

(* --- spans --- *)

let test_self_time () =
  let t = Spans.create () in
  Spans.set_op t 0;
  let parent = Spans.add t ~name:"op" ~parent:(-1) ~start_ns:0 ~stop_ns:100 in
  ignore (Spans.add t ~name:"a" ~parent ~start_ns:10 ~stop_ns:40);
  ignore (Spans.add t ~name:"b" ~parent ~start_ns:50 ~stop_ns:70);
  let self = Spans.self_ns (Spans.spans t) in
  let get n = snd (List.find (fun ((s : Spans.span), _) -> s.name = n) self) in
  Alcotest.(check int) "parent self time" 50 (get "op");
  Alcotest.(check int) "leaf self time" 30 (get "a")

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "highest percentile with 10 beyond" `Quick test_max_percentile;
          Alcotest.test_case "nearest-rank values" `Quick test_percentile_values;
        ] );
      ("scaling", [ Alcotest.test_case "probe scaling math" `Quick test_scaling ]);
      ( "oplist",
        [
          Alcotest.test_case "same seed, same list" `Quick test_same_seed_same_list;
          Alcotest.test_case "new seed permutes" `Quick test_new_seed_permutes;
          Alcotest.test_case "cli-session pass shape" `Quick test_cli_shape;
          Alcotest.test_case "p50/p90 inside one class" `Quick test_placement;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
    ]
