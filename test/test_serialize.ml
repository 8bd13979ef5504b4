(* Profile persistence: round-trip fidelity and error handling. *)

let check = Alcotest.(check bool)

let cfg = Config.Machine.baseline

let make_profile ?(cfg = cfg) ?(len = 20_000) name =
  Statsim.profile cfg (Workload.Suite.stream (Workload.Suite.find name) ~length:len)

let roundtrip p =
  let path = Filename.temp_file "statsim_profile" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile.Serialize.save_file p path;
      Profile.Serialize.load_file path)

let test_meta_roundtrip () =
  let p = make_profile "gcc" in
  let q = roundtrip p in
  Alcotest.(check int) "k" p.k q.k;
  Alcotest.(check int) "instructions" p.instructions q.instructions;
  Alcotest.(check int) "branches" p.branches q.branches;
  Alcotest.(check int) "mispredicts" p.mispredicts q.mispredicts;
  check "flags" true
    (p.perfect_caches = q.perfect_caches && p.perfect_bpred = q.perfect_bpred)

let test_config_roundtrip () =
  let p = make_profile ~cfg:(Config.Machine.in_order_variant cfg) "vpr" ~len:5_000 in
  let q = roundtrip p in
  check "config equal" true (p.cfg = q.cfg);
  check "in_order preserved" true q.cfg.in_order

let test_sfg_roundtrip () =
  let p = make_profile "twolf" in
  let q = roundtrip p in
  Alcotest.(check int) "node count" (Profile.Sfg.node_count p.sfg)
    (Profile.Sfg.node_count q.sfg);
  Alcotest.(check int) "occurrences"
    (Profile.Sfg.total_occurrences p.sfg)
    (Profile.Sfg.total_occurrences q.sfg);
  (* every node's statistics and structure must survive *)
  Profile.Sfg.iter_nodes p.sfg (fun n ->
      match Profile.Sfg.find q.sfg ~key:n.key with
      | None -> Alcotest.failf "node %d lost" n.key
      | Some m ->
        check "occ" true (n.occurrences = m.occurrences);
        check "branch stats" true
          (n.br_execs = m.br_execs
          && n.br_taken = m.br_taken
          && n.br_mispredict = m.br_mispredict
          && n.br_redirect = m.br_redirect);
        check "cache stats" true
          (n.loads = m.loads
          && n.l1d_misses = m.l1d_misses
          && n.fetches = m.fetches
          && n.l1i_misses = m.l1i_misses);
        check "slots" true (Array.length n.slots = Array.length m.slots);
        Array.iteri
          (fun i (s : Profile.Sfg.slot) ->
            let t = m.slots.(i) in
            check "klass" true (s.klass = t.klass);
            check "nsrcs" true (s.nsrcs = t.nsrcs);
            Array.iteri
              (fun pi h ->
                check "dep totals" true
                  (Stats.Histogram.total h = Stats.Histogram.total t.deps.(pi));
                check "dep support" true
                  (Stats.Histogram.support h
                  = Stats.Histogram.support t.deps.(pi)))
              s.deps)
          n.slots;
        check "edges" true (Hashtbl.length n.edges = Hashtbl.length m.edges);
        Hashtbl.iter
          (fun succ count ->
            match Hashtbl.find_opt m.edges succ with
            | Some c -> check "edge count" true (!c = !count)
            | None -> Alcotest.failf "edge lost")
          n.edges)

let test_simulation_equivalence () =
  (* a reloaded profile must generate the identical synthetic trace and
     thus identical predictions *)
  let p = make_profile "eon" in
  let q = roundtrip p in
  let a = Statsim.run_profile ~target_length:8_000 cfg p ~seed:9 in
  let b = Statsim.run_profile ~target_length:8_000 cfg q ~seed:9 in
  Alcotest.(check (float 1e-12)) "same IPC" a.Statsim.ipc b.Statsim.ipc;
  Alcotest.(check (float 1e-12)) "same EPC" a.epc b.epc

let test_save_deterministic_modulo_order () =
  (* the rendering is canonical (sorted nodes/edges), so a double
     round-trip is byte-stable, not just structurally stable *)
  let p = make_profile "gzip" ~len:5_000 in
  let q = roundtrip p in
  let r = roundtrip q in
  Alcotest.(check int) "stable node count" (Profile.Sfg.node_count q.sfg)
    (Profile.Sfg.node_count r.sfg);
  Alcotest.(check string) "byte-stable" (Profile.Serialize.to_string q)
    (Profile.Serialize.to_string r)

(* save -> load -> save must be byte-identical for any profile: the
   property a persistent content-addressed cache depends on (an entry
   re-encoded after a round-trip must hash to the same bytes). The
   generator varies workload, stream length, SFG order and the in-order
   flag (which switches on WAW/WAR histograms). *)
let test_roundtrip_byte_identical =
  let gen =
    QCheck.Gen.(
      quad
        (oneofl [ "gcc"; "gzip"; "twolf"; "vpr"; "vortex" ])
        (int_range 1_000 6_000) (int_range 0 2) bool)
  in
  let arb =
    QCheck.make gen ~print:(fun (b, n, k, io) ->
        Printf.sprintf "bench=%s len=%d k=%d in_order=%b" b n k io)
  in
  QCheck.Test.make ~count:8 ~name:"serialize: save->load->save byte-identical"
    arb
    (fun (bench, len, k, in_order) ->
      let cfg = if in_order then Config.Machine.in_order_variant cfg else cfg in
      let p =
        Statsim.profile ~k cfg
          (Workload.Suite.stream (Workload.Suite.find bench) ~length:len)
      in
      let s1 = Profile.Serialize.to_string p in
      let s2 = Profile.Serialize.to_string (Profile.Serialize.of_string s1) in
      s1 = s2)

let test_string_channel_agree () =
  (* the in-memory codec and the channel codec are the same format *)
  let p = make_profile "parser" ~len:4_000 in
  let path = Filename.temp_file "statsim_profile" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile.Serialize.save_file p path;
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "identical bytes" (Profile.Serialize.to_string p)
        s)

let test_bad_input_rejected () =
  let path = Filename.temp_file "statsim_bad" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a profile\n";
      close_out oc;
      check "rejects garbage" true
        (try
           ignore (Profile.Serialize.load_file path);
           false
         with Failure _ -> true));
  (* diagnostics number lines from 1 *)
  Alcotest.check_raises "header token"
    (Failure "profile line 1: not an integer: 77x!onfig") (fun () ->
      ignore (Profile.Serialize.of_string "statsim-profile 77x!onfig\n"));
  Alcotest.check_raises "meta token"
    (Failure "profile line 2: not an integer: x") (fun () ->
      ignore (Profile.Serialize.of_string "statsim-profile 1\nmeta 1 x\n"))

let test_bad_version_rejected () =
  let path = Filename.temp_file "statsim_badv" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "statsim-profile 999\nmeta 1 0 0 0 0 0\n";
      close_out oc;
      check "rejects future version" true
        (try
           ignore (Profile.Serialize.load_file path);
           false
         with Failure _ -> true))

let suite =
  [
    Alcotest.test_case "meta roundtrip" `Quick test_meta_roundtrip;
    Alcotest.test_case "config roundtrip" `Quick test_config_roundtrip;
    Alcotest.test_case "sfg roundtrip" `Quick test_sfg_roundtrip;
    Alcotest.test_case "simulation equivalence" `Quick test_simulation_equivalence;
    Alcotest.test_case "double roundtrip stable" `Quick
      test_save_deterministic_modulo_order;
    QCheck_alcotest.to_alcotest test_roundtrip_byte_identical;
    Alcotest.test_case "string/channel codecs agree" `Quick
      test_string_channel_agree;
    Alcotest.test_case "garbage rejected" `Quick test_bad_input_rejected;
    Alcotest.test_case "bad version rejected" `Quick test_bad_version_rejected;
  ]
