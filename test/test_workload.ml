(* Synthetic workload generator and interpreter tests. *)

let check = Alcotest.(check bool)

let test_spec_validation () =
  check "default valid" true (Workload.Spec.validate Workload.Spec.default = Ok ());
  let bad = { Workload.Spec.default with bias = 1.5 } in
  check "bad bias rejected" true (Result.is_error (Workload.Spec.validate bad));
  let bad2 = { Workload.Spec.default with stride_frac = 0.8; stack_frac = 0.5 } in
  check "fractions sum" true (Result.is_error (Workload.Spec.validate bad2))

let test_suite_complete () =
  Alcotest.(check int) "ten benchmarks" 10 (List.length Workload.Suite.all);
  List.iter
    (fun name -> ignore (Workload.Suite.find name))
    [ "bzip2"; "crafty"; "eon"; "gcc"; "gzip"; "parser"; "perlbmk"; "twolf";
      "vortex"; "vpr" ]

let test_all_programs_valid () =
  List.iter
    (fun spec ->
      let p = Workload.Suite.program spec in
      match Workload.Program.validate p with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" spec.Workload.Spec.name m)
    Workload.Suite.all

let test_program_deterministic () =
  let spec = Workload.Suite.find "gzip" in
  let a = Workload.Program.generate spec ~seed:5 in
  let b = Workload.Program.generate spec ~seed:5 in
  Alcotest.(check int) "same block count" (Workload.Program.n_blocks a)
    (Workload.Program.n_blocks b);
  Alcotest.(check int) "same code size" a.code_bytes b.code_bytes

let test_stream_deterministic () =
  let spec = Workload.Suite.find "vpr" in
  let take n gen = List.init n (fun _ -> gen ()) in
  let a = take 2000 (Workload.Suite.stream spec ~length:2000) in
  let b = take 2000 (Workload.Suite.stream spec ~length:2000) in
  check "identical streams" true (a = b)

(* A stream over a program built once equals the stream that builds its
   own, on every workload; two streams over the one program, one after
   the other, both do (a stream only reads its program). *)
let test_stream_over_given_program () =
  let take gen =
    let rec go acc = match gen () with Some d -> go (d :: acc) | None -> acc in
    List.rev (go [])
  in
  List.iter
    (fun (spec : Workload.Spec.t) ->
      let own = take (Workload.Suite.stream spec ~length:3000) in
      let program = Workload.Suite.program spec in
      let first = take (Workload.Suite.stream ~program spec ~length:3000) in
      let second = take (Workload.Suite.stream ~program spec ~length:3000) in
      Alcotest.(check int) (spec.name ^ " length") 3000 (List.length own);
      check (spec.name ^ ": over a given program") true (own = first);
      check (spec.name ^ ": the program reused") true (own = second))
    Workload.Suite.all

let test_stream_length_exact () =
  let spec = Workload.Suite.find "eon" in
  let gen = Workload.Suite.stream spec ~length:12345 in
  let n = ref 0 in
  let rec drain () =
    match gen () with
    | Some _ ->
      incr n;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "exact length" 12345 !n;
  check "stays exhausted" true (gen () = None)

let test_stream_well_formed () =
  List.iter
    (fun spec ->
      let p = Workload.Suite.program spec in
      let nb = Workload.Program.n_blocks p in
      let gen = Workload.Suite.stream spec ~length:20_000 in
      let rec drain () =
        match gen () with
        | None -> ()
        | Some i ->
          if not (Isa.Dyn_inst.well_formed i) then
            Alcotest.failf "%s: ill-formed %s" spec.Workload.Spec.name
              (Format.asprintf "%a" Isa.Dyn_inst.pp i);
          check "block in range" true (i.block >= 0 && i.block < nb);
          drain ()
      in
      drain ())
    Workload.Suite.all

let test_branch_terminates_block () =
  (* after a branch instruction, the next instruction starts a block *)
  let spec = Workload.Suite.find "gcc" in
  let gen = Workload.Suite.stream spec ~length:20_000 in
  let prev_was_branch = ref false in
  let rec drain () =
    match gen () with
    | None -> ()
    | Some i ->
      if !prev_was_branch then
        check "leader after branch" true i.Isa.Dyn_inst.first_in_block;
      prev_was_branch := Isa.Iclass.is_branch i.klass;
      drain ()
  in
  drain ()

let test_pcs_within_code () =
  let spec = Workload.Suite.find "twolf" in
  let p = Workload.Suite.program spec in
  let lo = Workload.Program.pc_of_block p 0 in
  let hi = lo + p.code_bytes in
  let gen = Workload.Suite.stream spec ~length:10_000 in
  let rec drain () =
    match gen () with
    | None -> ()
    | Some i ->
      check "pc in code segment" true (i.Isa.Dyn_inst.pc >= lo && i.pc < hi);
      drain ()
  in
  drain ()

let test_addresses_in_regions () =
  let spec = Workload.Suite.find "parser" in
  let p = Workload.Suite.program spec in
  let in_region a =
    Array.exists
      (fun { Workload.Program.base; size } -> a >= base && a < base + size)
      p.regions
    || a > 0x4000_0000 (* stack *)
  in
  let gen = Workload.Suite.stream spec ~length:10_000 in
  let rec drain () =
    match gen () with
    | None -> ()
    | Some i ->
      if i.Isa.Dyn_inst.mem_addr >= 0 then
        check "address in a region or stack" true (in_region i.mem_addr);
      drain ()
  in
  drain ()

let test_seed_offset_changes_behavior () =
  let spec = Workload.Suite.find "crafty" in
  let take n gen = List.init n (fun _ -> gen ()) in
  let a = take 5000 (Workload.Suite.stream ~seed_offset:0 spec ~length:5000) in
  let b = take 5000 (Workload.Suite.stream ~seed_offset:1 spec ~length:5000) in
  check "different data behaviour" true (a <> b)

(* persistent stores key their entries by this exact text *)
let test_stream_key_format () =
  Alcotest.(check string) "default offset" "int:gcc:o0:n300000"
    (Workload.Suite.stream_key "gcc" ~length:300_000);
  Alcotest.(check string) "seed offset" "int:crafty:o7717:n5000"
    (Workload.Suite.stream_key ~seed_offset:7717 "crafty" ~length:5000)

let test_table1_ipc_spread () =
  (* the suite must be performance-diverse: fastest/slowest ratio > 2 *)
  let cfg = Config.Machine.baseline in
  let ipcs =
    List.map
      (fun spec ->
        Uarch.Metrics.ipc
          (Uarch.Eds.run cfg (Workload.Suite.stream spec ~length:30_000)))
      Workload.Suite.all
  in
  let mx = List.fold_left Float.max 0.0 ipcs in
  let mn = List.fold_left Float.min infinity ipcs in
  check "IPC diversity" true (mx /. mn > 2.0)

let prop_any_spec_interprets =
  QCheck.Test.make ~name:"random small specs generate and run" ~count:20
    QCheck.(triple (int_range 1 6) (int_range 1 8) (int_range 1 3))
    (fun (n_funcs, structs, depth) ->
      let spec =
        {
          Workload.Spec.default with
          n_funcs;
          func_structs = structs;
          max_depth = depth;
        }
      in
      let p = Workload.Program.generate spec ~seed:(n_funcs + structs) in
      (match Workload.Program.validate p with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_report m);
      let gen = Workload.Interp.generator p ~seed:3 ~length:2000 in
      let rec drain n =
        match gen () with
        | None -> n
        | Some i -> if Isa.Dyn_inst.well_formed i then drain (n + 1) else -1
      in
      drain 0 = 2000)


let test_fp_suite_valid () =
  Alcotest.(check int) "five fp benchmarks" 5 (List.length Workload.Suite_fp.all);
  List.iter
    (fun spec ->
      check (spec.Workload.Spec.name ^ " validates") true
        (Workload.Spec.validate spec = Ok ());
      let p = Workload.Suite_fp.program spec in
      (match Workload.Program.validate p with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" spec.Workload.Spec.name m);
      (* fp instruction classes actually appear *)
      let gen = Workload.Suite_fp.stream spec ~length:10_000 in
      let fp = ref 0 and n = ref 0 in
      let rec drain () =
        match gen () with
        | None -> ()
        | Some (i : Isa.Dyn_inst.t) ->
          incr n;
          (match i.klass with
          | Fp_alu | Fp_mult | Fp_div | Fp_sqrt -> incr fp
          | _ -> ());
          if not (Isa.Dyn_inst.well_formed i) then
            Alcotest.failf "%s: ill-formed" spec.Workload.Spec.name;
          drain ()
      in
      drain ();
      check "fp-heavy" true
        (float_of_int !fp /. float_of_int !n > 0.15))
    Workload.Suite_fp.all

let suite =
  [
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "suite complete" `Quick test_suite_complete;
    Alcotest.test_case "all programs valid" `Quick test_all_programs_valid;
    Alcotest.test_case "program deterministic" `Quick test_program_deterministic;
    Alcotest.test_case "stream deterministic" `Quick test_stream_deterministic;
    Alcotest.test_case "stream exact length" `Quick test_stream_length_exact;
    Alcotest.test_case "stream over a given program" `Quick
      test_stream_over_given_program;
    Alcotest.test_case "stream well-formed" `Quick test_stream_well_formed;
    Alcotest.test_case "branch ends block" `Quick test_branch_terminates_block;
    Alcotest.test_case "pcs within code" `Quick test_pcs_within_code;
    Alcotest.test_case "addresses in regions" `Quick test_addresses_in_regions;
    Alcotest.test_case "seed offset" `Quick test_seed_offset_changes_behavior;
    Alcotest.test_case "stream key format" `Quick test_stream_key_format;
    Alcotest.test_case "IPC spread" `Slow test_table1_ipc_spread;
    QCheck_alcotest.to_alcotest prop_any_spec_interprets;
    Alcotest.test_case "fp suite valid" `Quick test_fp_suite_valid;
  ]
