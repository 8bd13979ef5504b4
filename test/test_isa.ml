(* Instruction classes, dynamic instruction well-formedness, stream
   rewind semantics. *)

let check = Alcotest.(check bool)

let test_class_roundtrip () =
  Array.iter
    (fun c ->
      Alcotest.(check int)
        (Isa.Iclass.to_string c) (Isa.Iclass.index c)
        (Isa.Iclass.index (Isa.Iclass.of_index (Isa.Iclass.index c))))
    Isa.Iclass.all

let test_class_count () =
  (* the paper's 12 semantic classes *)
  Alcotest.(check int) "12 classes" 12 Isa.Iclass.count

let test_class_predicates () =
  Array.iter
    (fun c ->
      let b = Isa.Iclass.is_branch c in
      let l = Isa.Iclass.is_load c in
      let s = Isa.Iclass.is_store c in
      check "mem = load|store" true (Isa.Iclass.is_mem c = (l || s));
      check "branch excl mem" true (not (b && (l || s)));
      check "dest iff not branch/store" true
        (Isa.Iclass.has_dest c = not (b || s)))
    Isa.Iclass.all

let test_of_index_invalid () =
  Alcotest.check_raises "bad index" (Invalid_argument "Iclass.of_index")
    (fun () -> ignore (Isa.Iclass.of_index 12))

let mk_inst ?(klass = Isa.Iclass.Int_alu) ?(dest = 5) ?(srcs = [| 1 |])
    ?(mem_addr = -1) ?branch () =
  {
    Isa.Dyn_inst.pc = 0x400000;
    klass;
    dest;
    srcs;
    mem_addr;
    branch;
    block = 0;
    first_in_block = true;
  }

let branch_info ?(kind = Isa.Dyn_inst.Cond) ?(taken = true) () =
  { Isa.Dyn_inst.kind; taken; target = 0x400100; next_pc = 0x400004 }

let test_well_formed () =
  check "alu ok" true (Isa.Dyn_inst.well_formed (mk_inst ()));
  check "load needs addr" false
    (Isa.Dyn_inst.well_formed (mk_inst ~klass:Load ()));
  check "load ok" true
    (Isa.Dyn_inst.well_formed (mk_inst ~klass:Load ~mem_addr:0x1000 ()));
  check "branch needs info" false
    (Isa.Dyn_inst.well_formed
       (mk_inst ~klass:Int_branch ~dest:Isa.Reg.none ()));
  check "branch ok" true
    (Isa.Dyn_inst.well_formed
       (mk_inst ~klass:Int_branch ~dest:Isa.Reg.none
          ~branch:(branch_info ()) ()));
  check "branch must not have dest" false
    (Isa.Dyn_inst.well_formed
       (mk_inst ~klass:Int_branch ~branch:(branch_info ()) ()));
  check "alu must not have branch" false
    (Isa.Dyn_inst.well_formed (mk_inst ~branch:(branch_info ()) ()))

let test_reg_layout () =
  check "zero is int" true (Isa.Reg.is_int Isa.Reg.zero);
  check "fp start" true (Isa.Reg.is_fp Isa.Reg.first_fp);
  check "disjoint" true (not (Isa.Reg.is_int Isa.Reg.first_fp));
  Alcotest.(check int) "total" Isa.Reg.count
    (Isa.Reg.int_count + Isa.Reg.fp_count)

let suite =
  [
    Alcotest.test_case "class roundtrip" `Quick test_class_roundtrip;
    Alcotest.test_case "class count" `Quick test_class_count;
    Alcotest.test_case "class predicates" `Quick test_class_predicates;
    Alcotest.test_case "of_index invalid" `Quick test_of_index_invalid;
    Alcotest.test_case "well_formed" `Quick test_well_formed;
    Alcotest.test_case "register layout" `Quick test_reg_layout;
  ]
