(* Branch predictor component and unit tests. *)

let check = Alcotest.(check bool)

let test_bimodal_saturation () =
  let b = Branch.Bimodal.create ~entries:16 in
  (* initial state is weakly taken *)
  check "initial taken" true (Branch.Bimodal.predict b ~pc:3);
  Branch.Bimodal.update b ~pc:3 ~taken:false;
  Branch.Bimodal.update b ~pc:3 ~taken:false;
  check "learns not-taken" false (Branch.Bimodal.predict b ~pc:3);
  (* saturate down, then one taken must not flip it *)
  Branch.Bimodal.update b ~pc:3 ~taken:false;
  Branch.Bimodal.update b ~pc:3 ~taken:true;
  check "hysteresis" false (Branch.Bimodal.predict b ~pc:3)

let test_bimodal_aliasing () =
  let b = Branch.Bimodal.create ~entries:4 in
  Branch.Bimodal.update b ~pc:0 ~taken:false;
  Branch.Bimodal.update b ~pc:0 ~taken:false;
  (* pc 4 aliases with pc 0 in a 4-entry table *)
  check "aliased entry shared" false (Branch.Bimodal.predict b ~pc:4)

let test_bimodal_pow2 () =
  Alcotest.check_raises "non-pow2"
    (Invalid_argument "Bimodal.create: entries must be a positive power of two")
    (fun () -> ignore (Branch.Bimodal.create ~entries:12))

let test_two_level_learns_pattern () =
  let p =
    Branch.Local_two_level.create ~hist_entries:64 ~pattern_entries:1024
      ~hist_bits:8
  in
  let pattern = [| true; true; false |] in
  (* train several periods with immediate update *)
  for i = 0 to 200 do
    let taken = pattern.(i mod 3) in
    Branch.Local_two_level.update p ~pc:100 ~taken
  done;
  (* now it should predict the period perfectly *)
  let correct = ref 0 in
  for i = 201 to 260 do
    let taken = pattern.(i mod 3) in
    if Branch.Local_two_level.predict p ~pc:100 = taken then incr correct;
    Branch.Local_two_level.update p ~pc:100 ~taken
  done;
  check "pattern learned" true (!correct = 60)

let test_btb_store_lookup () =
  let btb = Branch.Btb.create ~sets:4 ~assoc:2 in
  check "cold" false (Branch.Btb.predicts btb ~pc:100 ~target:0xBEEF);
  Branch.Btb.update btb ~pc:100 ~target:0xBEEF;
  check "hit" true (Branch.Btb.predicts btb ~pc:100 ~target:0xBEEF);
  check "hit, other target" false
    (Branch.Btb.predicts btb ~pc:100 ~target:0xCAFE);
  Branch.Btb.update btb ~pc:100 ~target:0xCAFE;
  check "updated" true (Branch.Btb.predicts btb ~pc:100 ~target:0xCAFE);
  check "old target gone" false
    (Branch.Btb.predicts btb ~pc:100 ~target:0xBEEF)

let test_btb_lru () =
  let btb = Branch.Btb.create ~sets:1 ~assoc:2 in
  Branch.Btb.update btb ~pc:1 ~target:10;
  Branch.Btb.update btb ~pc:2 ~target:20;
  (* a hit refreshes the entry even when the target differs *)
  ignore (Branch.Btb.predicts btb ~pc:1 ~target:99);
  (* pc 2 is now LRU *)
  Branch.Btb.update btb ~pc:3 ~target:30;
  check "pc1 kept" true (Branch.Btb.predicts btb ~pc:1 ~target:10);
  check "pc2 evicted" false (Branch.Btb.predicts btb ~pc:2 ~target:20)

let test_ras_lifo () =
  let r = Branch.Ras.create ~entries:4 in
  check "empty pop" false (Branch.Ras.pop_matches r 0);
  Branch.Ras.push r 1;
  Branch.Ras.push r 2;
  check "pop 2" true (Branch.Ras.pop_matches r 2);
  check "pop 1" true (Branch.Ras.pop_matches r 1);
  check "empty again" false (Branch.Ras.pop_matches r 1);
  (* a mismatch still pops; an empty pop moves nothing *)
  Branch.Ras.push r 3;
  Branch.Ras.push r 4;
  check "mismatch" false (Branch.Ras.pop_matches r 3);
  check "popped past 4" true (Branch.Ras.pop_matches r 3)

let test_ras_overflow_wraps () =
  let r = Branch.Ras.create ~entries:2 in
  List.iter (Branch.Ras.push r) [ 1; 2; 3 ];
  check "newest" true (Branch.Ras.pop_matches r 3);
  check "second" true (Branch.Ras.pop_matches r 2);
  check "oldest lost" false (Branch.Ras.pop_matches r 1)

let prop_ras_push_pop =
  QCheck.Test.make ~name:"RAS pop inverts push (within capacity)" ~count:200
    QCheck.(list_of_size Gen.(0 -- 16) small_int)
    (fun xs ->
      let r = Branch.Ras.create ~entries:64 in
      List.iter (Branch.Ras.push r) xs;
      List.for_all (Branch.Ras.pop_matches r) (List.rev xs)
      && not (Branch.Ras.pop_matches r 0))

let test_gshare_learns_global_correlation () =
  let g = Branch.Gshare.create ~entries:1024 ~hist_bits:8 in
  (* a branch whose outcome equals the previous branch's outcome is
     predictable from global history *)
  let prev = ref true in
  let correct = ref 0 and total = ref 0 in
  let rng = Prng.create ~seed:42 in
  for i = 0 to 4000 do
    (* branch A: random; branch B: copies A *)
    let a = Prng.bool rng in
    Branch.Gshare.update g ~pc:0x100 ~taken:a;
    let predicted = Branch.Gshare.predict g ~pc:0x200 in
    let actual = a in
    if i > 2000 then begin
      incr total;
      if predicted = actual then incr correct
    end;
    Branch.Gshare.update g ~pc:0x200 ~taken:actual;
    prev := a
  done;
  ignore !prev;
  check "global correlation learned" true
    (float_of_int !correct /. float_of_int !total > 0.95)

let test_gshare_validation () =
  Alcotest.check_raises "bad entries"
    (Invalid_argument "Gshare.create: entries must be a positive power of two")
    (fun () -> ignore (Branch.Gshare.create ~entries:100 ~hist_bits:8))

let test_predictor_kinds_construct () =
  List.iter
    (fun kind ->
      let cfg = Config.Machine.(with_predictor baseline kind) in
      let p = Branch.Predictor.create cfg.bpred in
      (* a trained highly-biased branch must be predictable by any kind *)
      let b =
        { Isa.Dyn_inst.kind = Cond; taken = true; target = 0x500; next_pc = 4 }
      in
      for _ = 1 to 8 do
        Branch.Predictor.update p ~pc:0x400 ~branch:b
      done;
      check "trained taken branch correct" true
        (Branch.Predictor.lookup p ~pc:0x400 ~branch:b
        <> Branch.Predictor.Mispredict))
    Config.Machine.[ Hybrid_local; Gshare; Bimodal_only ]

let cond ?(taken = true) ?(target = 0x500) () =
  { Isa.Dyn_inst.kind = Cond; taken; target; next_pc = 0x404 }

let test_predictor_cond_classification () =
  let p = Branch.Predictor.create Config.Machine.baseline.bpred in
  (* predictor starts weakly-taken; an actually-taken cond branch with an
     unknown target is a fetch redirection (direction right, BTB miss) *)
  let r1 = Branch.Predictor.lookup p ~pc:0x400 ~branch:(cond ()) in
  check "taken + BTB miss = redirect" true (r1 = Branch.Predictor.Fetch_redirect);
  Branch.Predictor.update p ~pc:0x400 ~branch:(cond ());
  let r2 = Branch.Predictor.lookup p ~pc:0x400 ~branch:(cond ()) in
  check "trained = correct" true (r2 = Branch.Predictor.Correct);
  (* direction flip is a misprediction *)
  let r3 = Branch.Predictor.lookup p ~pc:0x400 ~branch:(cond ~taken:false ()) in
  check "wrong direction = mispredict" true (r3 = Branch.Predictor.Mispredict)

let test_predictor_call_return () =
  let p = Branch.Predictor.create Config.Machine.baseline.bpred in
  let call =
    { Isa.Dyn_inst.kind = Call; taken = true; target = 0x900; next_pc = 0x444 }
  in
  let ret =
    { Isa.Dyn_inst.kind = Return; taken = true; target = 0x444; next_pc = 0x904 }
  in
  ignore (Branch.Predictor.lookup p ~pc:0x440 ~branch:call);
  let r = Branch.Predictor.lookup p ~pc:0x900 ~branch:ret in
  check "RAS predicts return" true (r = Branch.Predictor.Correct);
  (* popping again with no matching push mispredicts *)
  let r2 = Branch.Predictor.lookup p ~pc:0x900 ~branch:ret in
  check "empty RAS mispredicts" true (r2 = Branch.Predictor.Mispredict)

let test_predictor_indirect () =
  let p = Branch.Predictor.create Config.Machine.baseline.bpred in
  let ind t =
    { Isa.Dyn_inst.kind = Indirect; taken = true; target = t; next_pc = 0x104 }
  in
  let r1 = Branch.Predictor.lookup p ~pc:0x100 ~branch:(ind 0x800) in
  check "cold indirect mispredicts" true (r1 = Branch.Predictor.Mispredict);
  Branch.Predictor.update p ~pc:0x100 ~branch:(ind 0x800);
  let r2 = Branch.Predictor.lookup p ~pc:0x100 ~branch:(ind 0x800) in
  check "same target correct" true (r2 = Branch.Predictor.Correct);
  let r3 = Branch.Predictor.lookup p ~pc:0x100 ~branch:(ind 0x900) in
  check "changed target mispredicts" true (r3 = Branch.Predictor.Mispredict)

let test_ras_snapshot_restore () =
  let p = Branch.Predictor.create Config.Machine.baseline.bpred in
  let call =
    { Isa.Dyn_inst.kind = Call; taken = true; target = 0x900; next_pc = 0x111 }
  in
  let ret =
    { Isa.Dyn_inst.kind = Return; taken = true; target = 0x111; next_pc = 0x904 }
  in
  ignore (Branch.Predictor.lookup p ~pc:0x440 ~branch:call);
  let snap = Branch.Predictor.ras_copy p in
  (* corrupt: pop the entry *)
  ignore (Branch.Predictor.lookup p ~pc:0x900 ~branch:ret);
  Branch.Predictor.ras_restore p snap;
  let r = Branch.Predictor.lookup p ~pc:0x900 ~branch:ret in
  check "restored RAS predicts" true (r = Branch.Predictor.Correct)

(* A prediction and its update allocate nothing, on every predictor
   kind and branch kind: conditional (both directions), jump, call,
   return (the RAS pop) and indirect, across more PCs than the BTB
   holds. *)
let test_predictor_allocates_nothing () =
  let kinds = Isa.Dyn_inst.[ Cond; Cond; Jump; Call; Return; Indirect ] in
  let branches =
    Array.of_list
      (List.mapi
         (fun j kind ->
           {
             Isa.Dyn_inst.kind;
             taken = j <> 1;
             target = 0x800 + (64 * j);
             next_pc = 0x404;
           })
         kinds)
  in
  let nb = Array.length branches in
  let n = 100_000 in
  List.iter
    (fun (name, kind) ->
      let cfg = Config.Machine.(with_predictor baseline kind) in
      let p = Branch.Predictor.create cfg.bpred in
      let before = Gc.minor_words () in
      for i = 0 to n - 1 do
        let branch = branches.(i mod nb) in
        let pc = 0x400000 + (4 * (i mod 4099)) in
        ignore (Branch.Predictor.lookup p ~pc ~branch);
        Branch.Predictor.update p ~pc ~branch
      done;
      let w = (Gc.minor_words () -. before) /. float_of_int n in
      if w >= 0.01 then
        Alcotest.failf "%s: %.3f minor words per lookup + update" name w)
    Config.Machine.
      [ ("hybrid", Hybrid_local); ("gshare", Gshare); ("bimodal", Bimodal_only) ]

let suite =
  [
    Alcotest.test_case "bimodal saturation" `Quick test_bimodal_saturation;
    Alcotest.test_case "bimodal aliasing" `Quick test_bimodal_aliasing;
    Alcotest.test_case "bimodal pow2 check" `Quick test_bimodal_pow2;
    Alcotest.test_case "two-level learns pattern" `Quick test_two_level_learns_pattern;
    Alcotest.test_case "BTB store/lookup" `Quick test_btb_store_lookup;
    Alcotest.test_case "BTB LRU" `Quick test_btb_lru;
    Alcotest.test_case "RAS LIFO" `Quick test_ras_lifo;
    Alcotest.test_case "RAS overflow" `Quick test_ras_overflow_wraps;
    QCheck_alcotest.to_alcotest prop_ras_push_pop;
    Alcotest.test_case "predictor cond classify" `Quick
      test_predictor_cond_classification;
    Alcotest.test_case "predictor call/return" `Quick test_predictor_call_return;
    Alcotest.test_case "predictor indirect" `Quick test_predictor_indirect;
    Alcotest.test_case "RAS snapshot/restore" `Quick test_ras_snapshot_restore;
    Alcotest.test_case "gshare correlation" `Quick
      test_gshare_learns_global_correlation;
    Alcotest.test_case "gshare validation" `Quick test_gshare_validation;
    Alcotest.test_case "predictor kinds" `Quick test_predictor_kinds_construct;
    Alcotest.test_case "predictor allocates nothing" `Quick
      test_predictor_allocates_nothing;
  ]
