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
  let io = Config.Machine.in_order_variant cfg in
  let p = make_profile ~cfg:io "vpr" ~len:5_000 in
  let q = roundtrip p in
  Alcotest.(check string) "machine equal" p.machine q.machine;
  Alcotest.(check string) "names the in-order machine"
    (Config.Machine.canonical io) q.machine

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
   generator varies workload, stream length, SFG order up to the
   maximum, the in-order flag (which switches on WAW/WAR histograms)
   and the perfect-cache and perfect-predictor profiling modes. *)
let roundtrip_gen =
  QCheck.Gen.(
    pair
      (quad
         (oneofl [ "gcc"; "gzip"; "twolf"; "vpr"; "vortex" ])
         (int_range 1_000 6_000) (int_range 0 3) bool)
      (pair bool bool))

let roundtrip_arb =
  QCheck.make roundtrip_gen ~print:(fun ((b, n, k, io), (pc, pb)) ->
      Printf.sprintf "bench=%s len=%d k=%d in_order=%b perfect_caches=%b \
                      perfect_bpred=%b"
        b n k io pc pb)

let roundtrip_profile
    ((bench, len, k, in_order), (perfect_caches, perfect_bpred)) =
  let cfg = if in_order then Config.Machine.in_order_variant cfg else cfg in
  Statsim.profile ~k ~perfect_caches ~perfect_bpred cfg
    (Workload.Suite.stream (Workload.Suite.find bench) ~length:len)

let test_roundtrip_byte_identical =
  QCheck.Test.make ~count:8 ~name:"serialize: save->load->save byte-identical"
    roundtrip_arb
    (fun x ->
      let s1 = Profile.Serialize.to_string (roundtrip_profile x) in
      let s2 = Profile.Serialize.to_string (Profile.Serialize.of_string s1) in
      s1 = s2)

(* the same round trip for compiled plans, at a random reduction *)
let test_plan_roundtrip_byte_identical =
  QCheck.Test.make ~count:8
    ~name:"plan codec: encode->decode->encode byte-identical"
    (QCheck.pair roundtrip_arb (QCheck.int_range 1 8))
    (fun (x, reduction) ->
      let s1 =
        Kernel.Plan.to_string
          (Statsim.compile_plan ~reduction (roundtrip_profile x))
      in
      let s2 = Kernel.Plan.to_string (Kernel.Plan.of_string s1) in
      s1 = s2)

(* A round trip cannot see an encoder that changes its bytes the same
   way on both sides, yet such a change would silently re-key every
   persistent store entry. These digests pin the encoded bytes of a
   short profile and its plan for every workload, plus an in-order k=2
   profile (WAW/WAR histograms) and a k=0 plan (no edge samplers). *)
let codec_pins =
  [
    ( "bzip2",
      "4c01f3f645a71895d5ee670df80dd47d",
      "f99b38e81411b4e8453c21d64b1bb248" );
    ( "crafty",
      "9354997228d72e07a2bed54028560c27",
      "07aec7d2137311c1b00e583a4a1d445b" );
    ( "eon",
      "23b327e0fd57f9a960df49dbb985f3b3",
      "40bde8b0d52bc88a14c873d91a3c661b" );
    ( "gcc",
      "518a4970fbd5a5981ca23748793d491a",
      "f4a3d1aebbfacdace0143a2269e56ace" );
    ( "gzip",
      "7f5b146707cdce95dfa9c9871834539d",
      "e91af1591c9adaafac480bfe2110eaec" );
    ( "parser",
      "9832ef2f2202eeab14dbddef5bf5bc6b",
      "4025b8161ed7f07396ae220730d02f90" );
    ( "perlbmk",
      "dec742a1e5da3dcca638fc2ab2b7488a",
      "1b846224e01e6c8b1e4980378add8d1f" );
    ( "twolf",
      "bdd62adf17323abe8703c4937d279cd5",
      "04b73fdac2a9e6d782940f6304ad0b25" );
    ( "vortex",
      "4e0dc9a6380431f115a32293005436b1",
      "bf2d738fa80ced83418543d4fa45ffd7" );
    ( "vpr",
      "a9685adcd199b2cddf665c74f3256190",
      "7cfee9d8880e6a88fd90adf3a91287fc" );
    ( "gcc in-order k=2",
      "82fd56d3e9794617d94b9efa616a2fd9",
      "92053e04b7822faccdd52fe451bf5a8c" );
    ( "twolf k=0",
      "51dd0b9a5ebbe5e2270ce0a318fcc824",
      "5a4b854ac090d91dc64580a473f595ce" );
  ]

let pinned_profile label =
  let bench, cfg, k =
    match label with
    | "gcc in-order k=2" -> ("gcc", Config.Machine.in_order_variant cfg, 2)
    | "twolf k=0" -> ("twolf", cfg, 0)
    | b -> (b, cfg, 1)
  in
  Statsim.profile ~k cfg
    (Workload.Suite.stream (Workload.Suite.find bench) ~length:3_000)

let test_codec_pins () =
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (label, profile_md5, plan_md5) ->
      let p = pinned_profile label in
      Alcotest.(check string)
        (label ^ " profile bytes")
        profile_md5
        (md5 (Profile.Serialize.to_string p));
      Alcotest.(check string)
        (label ^ " plan bytes")
        plan_md5
        (md5 (Kernel.Plan.to_string (Statsim.compile_plan ~reduction:2 p))))
    codec_pins

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
      ignore (Profile.Serialize.of_string "statsim-profile 2\nmeta 1 x\n"))

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
         with Failure _ -> true));
  (* version 1 wrote the machine as a config line of 45 integers *)
  Alcotest.check_raises "version 1"
    (Failure "profile line 1: unsupported version 1") (fun () ->
      ignore
        (Profile.Serialize.of_string "statsim-profile 1\nmeta 1 0 0 0 0 0\n"))

(* --- hostile input: Failure and nothing else, bounded allocation --- *)

let gcc_profile_string =
  lazy (Profile.Serialize.to_string (make_profile "gcc" ~len:6_000))

let gcc_plan_string =
  lazy
    (Kernel.Plan.to_string
       (Statsim.compile_plan ~reduction:2 (make_profile "gcc" ~len:6_000)))

(* [decode s] raises [Failure], and allocates in proportion to [s] *)
let fails_cleanly decode label s =
  let before = Gc.allocated_bytes () in
  (match decode s with
  | _ -> Alcotest.failf "%s: decoded" label
  | exception Failure _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e));
  let allocated = Gc.allocated_bytes () -. before in
  if allocated > (64.0 *. float_of_int (String.length s)) +. 1e6 then
    Alcotest.failf "%s: allocated %.0f bytes for %d input bytes" label allocated
      (String.length s)

let lines s = String.split_on_char '\n' s

(* the number (from 1) of the first line whose fields satisfy [pred] *)
let line_where s pred =
  let rec go i = function
    | [] -> Alcotest.fail "no such line"
    | l :: rest ->
      if pred (String.split_on_char ' ' l) then i else go (i + 1) rest
  in
  go 1 (lines s)

(* [s] with field [i] of line [n] set to [v] *)
let set_field s n i v =
  List.mapi
    (fun j l ->
      if j <> n - 1 then l
      else
        String.split_on_char ' ' l
        |> List.mapi (fun k x -> if k = i then v else x)
        |> String.concat " ")
    (lines s)
  |> String.concat "\n"

(* [s] with line [n] replaced by [l] *)
let replace_line s n l =
  List.mapi (fun j x -> if j = n - 1 then l else x) (lines s)
  |> String.concat "\n"

let test_hostile_profile_fields () =
  let s = Lazy.force gcc_profile_string in
  let case label s = fails_cleanly Profile.Serialize.of_string label s in
  let slot = line_where s (fun f -> List.hd f = "slot") in
  (* a slot whose first histogram is not empty: "slot c n 1+ v count ..." *)
  let hist = line_where s (fun f -> List.hd f = "slot" && List.nth f 3 <> "0") in
  let node = line_where s (fun f -> List.hd f = "node") in
  let edge = line_where s (fun f -> List.hd f = "edge") in
  case "k out of range" (set_field s 2 1 "7");
  case "class index" (set_field s slot 1 "99");
  case "negative operand count" (set_field s slot 2 "-1");
  case "operand count overruns the line" (set_field s slot 2 "100000000");
  (* eight operands, each with one distance, plus empty WAW and WAR:
     more dependencies than a synthetic instruction packs *)
  case "more operands than Sfg.max_deps allows"
    (replace_line s slot
       ("slot 0 8"
       ^ String.concat "" (List.init 8 (fun _ -> " 1 1 1"))
       ^ " 0 0"));
  (* an operand count near [max_int] must not wrap the bound check *)
  case "operand count max_int"
    (replace_line s slot (Printf.sprintf "slot 0 %d 0 0 0" max_int));
  case "operand count max_int - 1"
    (replace_line s slot (Printf.sprintf "slot 0 %d 0 0 0" (max_int - 1)));
  case "histogram length overruns the line" (set_field s hist 3 "100000000");
  case "negative histogram count" (set_field s hist 5 "-3");
  case "negative node count" (set_field s node 3 "-1");
  case "negative edge count" (set_field s edge 2 "-5");
  case "no line after the header" "statsim-profile 2";
  case "no line after meta" "statsim-profile 2\nmeta 1 0 0 0 0 0";
  Alcotest.check_raises "machine line"
    (Failure "profile line 3: missing machine") (fun () ->
      ignore
        (Profile.Serialize.of_string
           "statsim-profile 2\nmeta 1 0 0 0 0 0\nmachine\n"));
  Alcotest.check_raises "k diagnostic"
    (Failure "profile line 2: k 7 out of [0, 3]") (fun () ->
      ignore (Profile.Serialize.of_string (set_field s 2 1 "7")));
  (* the channel reader shares the parser: a short file is a Failure,
     not an End_of_file *)
  let path = Filename.temp_file "statsim_short" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "statsim-profile 2\n";
      close_out oc;
      Alcotest.check_raises "short file"
        (Failure "profile line 2: expected meta line") (fun () ->
          ignore (Profile.Serialize.load_file path)))

(* a line's fields after its tag, each replaced by [f] *)
let map_fields s n f =
  List.mapi
    (fun j l ->
      if j <> n - 1 then l
      else
        match String.split_on_char ' ' l with
        | tag :: fields -> String.concat " " (tag :: List.map f fields)
        | [] -> l)
    (lines s)
  |> String.concat "\n"

let test_hostile_plan_fields () =
  let s = Lazy.force gcc_plan_string in
  let case label s = fails_cleanly Kernel.Plan.of_string label s in
  (* header: "h k reduction use_edges nnodes nslots nsamplers" *)
  case "negative sampler count" (set_field s 2 6 "-1");
  case "sampler count past the input" (set_field s 2 6 "100000000");
  case "node count past its line" (set_field s 2 4 "100000000");
  case "negative node count" (set_field s 2 4 "-1");
  let sampler = line_where s (fun f -> List.hd f = "a") in
  case "sampler length past its line" (set_field s sampler 1 "100000000");
  case "empty" "";
  (* fields that parse but break what generation indexes without
     bounds checks: a plan the decoder accepts is walked with unchecked
     reads *)
  let fields n = String.split_on_char ' ' (List.nth (lines s) (n - 1)) in
  let tagged tag = line_where s (fun f -> List.hd f = tag) in
  let nn = List.length (fields (tagged "b")) - 1 in
  case "slot-sampler offsets shifted by 50M"
    (map_fields s (tagged "d") (fun v ->
         string_of_int (int_of_string v + 50_000_000)));
  case "slot-sampler offsets not from 0" (set_field s (tagged "d") 1 "1");
  case "last slot offset 100M" (set_field s (tagged "s") (nn + 1) "100000000");
  case "decreasing node offsets" (set_field s (tagged "s") 2 "-1");
  case "negative occurrence count" (set_field s (tagged "o") 1 "-1");
  let meta = int_of_string (List.nth (fields (tagged "m")) 1) in
  case "slot class index"
    (set_field s (tagged "m") 1 (string_of_int (meta lor (0xF lsl 3))));
  case "dependency count off its offsets"
    (set_field s (tagged "m") 1 (string_of_int (meta + (1 lsl 7))));
  (* sampler lines read "a n total values aliases thresholds": the
     nodes' edge samplers, then the dependency samplers *)
  let rec nonempty i =
    match fields i with
    | "a" :: n :: _ when int_of_string n > 0 -> (i, int_of_string n)
    | _ -> nonempty (i + 1)
  in
  let edge, _ = nonempty sampler in
  case "edge to a node past the plan" (set_field s edge 3 (string_of_int nn));
  let dep, n = nonempty (sampler + nn) in
  case "dependency values of 100,000"
    (List.fold_left
       (fun s i -> set_field s dep (i + 3) "100000")
       s (List.init n Fun.id))

(* 1-4 bytes of a real artifact overwritten, the replacements biased
   towards the bytes that move fields: digits, signs, spaces, newlines *)
let mutations source =
  let open QCheck.Gen in
  let byte =
    frequency
      [ (1, char); (1, oneofl (List.of_seq (String.to_seq "0123456789- \n"))) ]
  in
  QCheck.make
    (list_size (int_range 1 4)
       (pair (int_bound (String.length (Lazy.force source) - 1)) byte))
    ~print:(fun edits ->
      String.concat "; "
        (List.map (fun (i, c) -> Printf.sprintf "%d <- %C" i c) edits))

let decodes_or_fails ?(valid = fun _ -> true) ~name decode source =
  QCheck.Test.make ~count:500 ~name (mutations source) (fun edits ->
      let b = Bytes.of_string (Lazy.force source) in
      List.iter (fun (i, c) -> Bytes.set b i c) edits;
      match decode (Bytes.to_string b) with
      | v -> valid v || QCheck.Test.fail_report "decoded an invalid value"
      | exception Failure _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* what generation indexes without bounds checks, restated from the
   plan's fields *)
let plan_invariants (p : Kernel.Plan.t) =
  let nn = Kernel.Plan.nnodes p and ns = Kernel.Plan.nslots p in
  let rises a total =
    let n = Array.length a in
    let ok = ref (n >= 1 && a.(0) = 0 && a.(n - 1) = total) in
    for i = 1 to n - 1 do
      if a.(i) < a.(i - 1) then ok := false
    done;
    !ok
  in
  let returns_within hi s =
    let values, alias, _, _ = Stats.Alias.to_arrays s in
    let inside v = v >= 0 && v <= hi in
    Array.for_all inside values && Array.for_all inside alias
  in
  let slot_ok j m =
    Kernel.Plan.meta_class m < Isa.Iclass.count
    && Kernel.Plan.meta_ndeps m <= Synth.Trace.max_deps
    && Kernel.Plan.meta_ndeps m = p.slot_dep_off.(j + 1) - p.slot_dep_off.(j)
  in
  List.for_all
    (fun a -> Array.length a = nn)
    [
      p.node_occ; p.thr_taken; p.thr_mis; p.thr_misred; p.thr_l1i; p.thr_l2i;
      p.thr_itlb; p.thr_l1d; p.thr_l2d; p.thr_dtlb;
    ]
  && Array.length p.edges = nn
  && Array.length p.node_slot_off = nn + 1
  && rises p.node_slot_off ns
  && Array.length p.slot_dep_off = ns + 1
  && rises p.slot_dep_off (Array.length p.slot_deps)
  && Array.for_all (fun o -> o >= 0) p.node_occ
  && List.for_all Fun.id (List.mapi slot_ok (Array.to_list p.slot_meta))
  && Array.for_all (returns_within (nn - 1)) p.edges
  && Array.for_all (returns_within Profile.Sfg.dep_cap) p.slot_deps

let test_profile_mutations =
  decodes_or_fails ~name:"profile decoder: mutated bytes decode or raise Failure"
    Profile.Serialize.of_string gcc_profile_string

let test_plan_mutations =
  decodes_or_fails ~valid:plan_invariants
    ~name:"plan decoder: mutated bytes decode or raise Failure"
    Kernel.Plan.of_string gcc_plan_string

(* Values that parse but break what generation assumes fail with the
   decoder's line-numbered [Failure]: a distance generation cannot index
   its ring with, and occurrences that would size the walk past the
   profiled stream. *)
let test_hostile_profile_values () =
  let s = Lazy.force gcc_profile_string in
  let case label s = fails_cleanly Profile.Serialize.of_string label s in
  (* "slot class nsrcs n v c ...": the first operand histogram's first
     value is field 4 *)
  let hist = line_where s (fun f -> List.hd f = "slot" && List.nth f 3 <> "0") in
  case "negative distance" (set_field s hist 4 "-5");
  case "distance past dep_cap"
    (set_field s hist 4 (string_of_int (Profile.Sfg.dep_cap + 1)));
  Alcotest.check_raises "distance diagnostic"
    (Failure
       (Printf.sprintf "profile line %d: distance -5 outside [0, %d]" hist
          Profile.Sfg.dep_cap))
    (fun () -> ignore (Profile.Serialize.of_string (set_field s hist 4 "-5")));
  (* no operands; a WAW distance of 600, or a WAR distance of -1 *)
  let slot = line_where s (fun f -> List.hd f = "slot") in
  case "WAW distance" (replace_line s slot "slot 0 0 1 600 1 0");
  case "WAR distance" (replace_line s slot "slot 0 0 0 1 -1 1");
  (* "node key block occurrences ...": occurrences are field 3 *)
  let node = line_where s (fun f -> List.hd f = "node" && List.nth f 16 <> "0") in
  case "occurrences of 12,147,483,648" (set_field s node 3 "12147483648");
  case "occurrences of max_int" (set_field s node 3 (string_of_int max_int));
  (* "meta k instructions ...": the stream shrunk under its graph *)
  case "instructions of 10" (set_field s 2 2 "10");
  (* the graph's slots still bound the walk when the count would wrap *)
  case "instructions of max_int, occurrences of max_int"
    (set_field (set_field s 2 2 (string_of_int max_int)) node 3
       (string_of_int max_int))

(* What profiling writes decodes, on every workload: whole-stream
   profiles exceed their instruction count by at most one block (the
   last, cut short) and chunked ones by at most two. *)
let test_profiles_decode () =
  let io = Config.Machine.in_order_variant cfg in
  List.iter
    (fun name ->
      let stream () =
        Workload.Suite.stream (Workload.Suite.find name) ~length:20_000
      in
      let decodes label p =
        let s = Profile.Serialize.to_string p in
        match Profile.Serialize.of_string s with
        | q ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s re-encodes" name label)
            true
            (Profile.Serialize.to_string q = s)
        | exception Failure m -> Alcotest.failf "%s %s: %s" name label m
      in
      decodes "k=1" (Statsim.profile cfg (stream ()));
      decodes "k=3 in-order" (Statsim.profile ~k:3 io (stream ()));
      List.iteri
        (fun i p -> decodes (Printf.sprintf "chunk %d" i) p)
        (Profile.Stat_profile.collect_chunked ~k:0 cfg (stream ())
           ~chunk_length:2_857))
    Workload.Suite.names

(* a profile the decoder accepts runs: it compiles, generates and
   simulates at a small target, unless no node survives that target's
   reduction, which [check_survivors] reports as an error *)
let runs_small p =
  match Kernel.Compile.check_survivors ~target_length:2_000 p with
  | Error _ -> true
  | Ok () -> (
    match Statsim.run_profile ~target_length:2_000 cfg p ~seed:1 with
    | _ -> true
    | exception e ->
      QCheck.Test.fail_reportf "decoded, then raised %s" (Printexc.to_string e))

let test_mutated_profiles_run =
  decodes_or_fails ~valid:runs_small
    ~name:"profile decoder: a mutated profile decodes and runs, or fails"
    Profile.Serialize.of_string gcc_profile_string

let suite =
  [
    Alcotest.test_case "meta roundtrip" `Quick test_meta_roundtrip;
    Alcotest.test_case "config roundtrip" `Quick test_config_roundtrip;
    Alcotest.test_case "sfg roundtrip" `Quick test_sfg_roundtrip;
    Alcotest.test_case "simulation equivalence" `Quick test_simulation_equivalence;
    Alcotest.test_case "double roundtrip stable" `Quick
      test_save_deterministic_modulo_order;
    QCheck_alcotest.to_alcotest test_roundtrip_byte_identical;
    QCheck_alcotest.to_alcotest test_plan_roundtrip_byte_identical;
    Alcotest.test_case "codec bytes pinned" `Quick test_codec_pins;
    Alcotest.test_case "string/channel codecs agree" `Quick
      test_string_channel_agree;
    Alcotest.test_case "garbage rejected" `Quick test_bad_input_rejected;
    Alcotest.test_case "bad version rejected" `Quick test_bad_version_rejected;
    Alcotest.test_case "hostile profile fields fail cleanly" `Quick
      test_hostile_profile_fields;
    Alcotest.test_case "hostile plan fields fail cleanly" `Quick
      test_hostile_plan_fields;
    QCheck_alcotest.to_alcotest test_profile_mutations;
    QCheck_alcotest.to_alcotest test_plan_mutations;
    Alcotest.test_case "hostile profile values fail cleanly" `Quick
      test_hostile_profile_values;
    Alcotest.test_case "every workload's profiles decode" `Quick
      test_profiles_decode;
    QCheck_alcotest.to_alcotest test_mutated_profiles_run;
  ]
