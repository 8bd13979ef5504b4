(* EDS feed unit tests: producer computation, memoization, branch
   prediction lifecycle. *)

let check = Alcotest.(check bool)

let cfg = Config.Machine.baseline

let alu ~pc ~dest ~srcs block first =
  {
    Isa.Dyn_inst.pc;
    klass = Isa.Iclass.Int_alu;
    dest;
    srcs;
    mem_addr = -1;
    branch = None;
    block;
    first_in_block = first;
  }

let gen_of_list insts =
  let r = ref insts in
  fun () ->
    match !r with
    | [] -> None
    | i :: rest ->
      r := rest;
      Some i

(* the producers of the instruction at a position, fetching it first *)
let producers feed i =
  let w = Uarch.Eds_feed.fetch feed i in
  Array.init (Uarch.Feed.producers w) (Uarch.Eds_feed.producer feed i)

(* the branch resolution a fetched word carries *)
let resolution feed i =
  let w = Uarch.Eds_feed.fetch feed i in
  check "a branch" true (Uarch.Feed.is_branch w);
  if Uarch.Feed.mispredicted w then Branch.Predictor.Mispredict
  else if Uarch.Feed.redirected w then Branch.Predictor.Fetch_redirect
  else Branch.Predictor.Correct

let test_raw_producers () =
  (* r5 <- ..., r6 <- r5, r7 <- r5 + r6 *)
  let insts =
    [
      alu ~pc:0x400000 ~dest:5 ~srcs:[||] 0 true;
      alu ~pc:0x400004 ~dest:6 ~srcs:[| 5 |] 0 false;
      alu ~pc:0x400008 ~dest:7 ~srcs:[| 5; 6 |] 0 false;
    ]
  in
  let feed = Uarch.Eds_feed.create cfg (gen_of_list insts) in
  check "first has no producers" true
    (Array.for_all (fun p -> p < 0) (producers feed 0));
  check "second depends on 0" true (producers feed 1 = [| 0 |]);
  check "third depends on 0 and 1" true (producers feed 2 = [| 0; 1 |]);
  check "end of stream" true
    (Uarch.Eds_feed.fetch feed 3 = Uarch.Feed.end_of_stream)

let test_zero_register_no_dependency () =
  let insts =
    [
      alu ~pc:0x400000 ~dest:5 ~srcs:[||] 0 true;
      alu ~pc:0x400004 ~dest:6 ~srcs:[| Isa.Reg.zero |] 0 false;
    ]
  in
  let feed = Uarch.Eds_feed.create cfg (gen_of_list insts) in
  ignore (Uarch.Eds_feed.fetch feed 0);
  check "zero register never produces" true (producers feed 1 = [| -1 |])

let test_fetch_memoized () =
  let calls = ref 0 in
  let gen () =
    incr calls;
    if !calls > 5 then None
    else Some (alu ~pc:(0x400000 + (4 * !calls)) ~dest:5 ~srcs:[||] 0 true)
  in
  let feed = Uarch.Eds_feed.create cfg gen in
  let a = Uarch.Eds_feed.fetch feed 2 in
  let b = Uarch.Eds_feed.fetch feed 2 in
  check "same word" true (a = b && a <> Uarch.Feed.end_of_stream);
  Alcotest.(check int) "generator pulled minimally" 3 !calls

let branch_inst ~pc ~taken =
  {
    Isa.Dyn_inst.pc;
    klass = Isa.Iclass.Int_branch;
    dest = Isa.Reg.none;
    srcs = [||];
    mem_addr = -1;
    branch =
      Some { Isa.Dyn_inst.kind = Cond; taken; target = 0x400100; next_pc = pc + 4 };
    block = 0;
    first_in_block = true;
  }

let test_branch_resolution_stable () =
  (* the prediction made at first fetch must be replayed, not recomputed,
     even after the predictor state changes *)
  let insts = List.init 20 (fun i -> branch_inst ~pc:0x400200 ~taken:(i mod 2 = 0)) in
  let feed = Uarch.Eds_feed.create cfg (gen_of_list insts) in
  let r0 = resolution feed 0 in
  (* dispatch several updates, then re-fetch position 0 *)
  for i = 0 to 9 do
    ignore (Uarch.Eds_feed.fetch feed i);
    Uarch.Eds_feed.on_dispatch feed i ~wrong_path:false
  done;
  check "memoized resolution" true (r0 = resolution feed 0)

let test_perfect_bpred_always_correct () =
  let insts = List.init 10 (fun i -> branch_inst ~pc:0x400300 ~taken:(i mod 3 = 0)) in
  let feed = Uarch.Eds_feed.create ~perfect_bpred:true cfg (gen_of_list insts) in
  for i = 0 to 9 do
    check "always correct" true (resolution feed i = Branch.Predictor.Correct)
  done

let test_perfect_caches_hit_latency () =
  let load =
    {
      Isa.Dyn_inst.pc = 0x400000;
      klass = Isa.Iclass.Load;
      dest = 5;
      srcs = [| 1 |];
      mem_addr = 0x10000000;
      branch = None;
      block = 0;
      first_in_block = true;
    }
  in
  let feed = Uarch.Eds_feed.create ~perfect_caches:true cfg (gen_of_list [ load ]) in
  ignore (Uarch.Eds_feed.fetch feed 0);
  let a = Uarch.Eds_feed.load_access feed 0 ~wrong_path:false in
  check "hit outcome" true (not (Cache.Hierarchy.l1_miss a));
  Alcotest.(check int) "hit latency" cfg.dcache.hit_latency
    (Cache.Hierarchy.latency a)

let suite =
  [
    Alcotest.test_case "RAW producers" `Quick test_raw_producers;
    Alcotest.test_case "zero register" `Quick test_zero_register_no_dependency;
    Alcotest.test_case "fetch memoized" `Quick test_fetch_memoized;
    Alcotest.test_case "branch resolution stable" `Quick
      test_branch_resolution_stable;
    Alcotest.test_case "perfect bpred" `Quick test_perfect_bpred_always_correct;
    Alcotest.test_case "perfect caches" `Quick test_perfect_caches_hit_latency;
  ]
