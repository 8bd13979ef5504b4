(* Machine configuration tests. *)

let check = Alcotest.(check bool)

let b = Config.Machine.baseline

let test_baseline_is_table2 () =
  Alcotest.(check int) "I$ 8KB" (8 * 1024) b.icache.size_bytes;
  Alcotest.(check int) "I$ 2-way" 2 b.icache.assoc;
  Alcotest.(check int) "D$ 16KB" (16 * 1024) b.dcache.size_bytes;
  Alcotest.(check int) "D$ 4-way" 4 b.dcache.assoc;
  Alcotest.(check int) "L2 1MB" (1024 * 1024) b.l2.size_bytes;
  Alcotest.(check int) "L2 20cy" 20 b.l2.hit_latency;
  Alcotest.(check int) "mem 150cy" 150 b.mem_latency;
  Alcotest.(check int) "IFQ 32" 32 b.ifq_size;
  Alcotest.(check int) "RUU 128" 128 b.ruu_size;
  Alcotest.(check int) "LSQ 32" 32 b.lsq_size;
  Alcotest.(check int) "8-wide" 8 b.decode_width;
  Alcotest.(check int) "fetch speed 2" 2 b.fetch_speed;
  Alcotest.(check int) "8K bimodal" 8192 b.bpred.bimodal_entries;
  Alcotest.(check int) "BTB 512 entries" 512 (b.bpred.btb_sets * b.bpred.btb_assoc);
  Alcotest.(check int) "RAS 64" 64 b.bpred.ras_entries;
  Alcotest.(check int) "8 int ALUs" 8 b.fu.int_alu;
  Alcotest.(check int) "4 mem ports" 4 b.fu.mem_ports

let test_op_latencies () =
  Array.iter
    (fun c -> check "positive latency" true (Config.Machine.op_latency c > 0))
    Isa.Iclass.all;
  check "div slower than alu" true
    (Config.Machine.op_latency Int_div > Config.Machine.op_latency Int_alu);
  check "fp sqrt slowest fp" true
    (Config.Machine.op_latency Fp_sqrt > Config.Machine.op_latency Fp_mult)

let test_scaling () =
  let half = Config.Machine.scale_caches b 0.5 in
  Alcotest.(check int) "halved D$" (8 * 1024) half.dcache.size_bytes;
  let dbl = Config.Machine.scale_bpred b 2.0 in
  Alcotest.(check int) "doubled bimodal" 16384 dbl.bpred.bimodal_entries;
  let w = Config.Machine.with_width b 4 in
  check "widths tied" true
    (w.decode_width = 4 && w.issue_width = 4 && w.commit_width = 4);
  let win = Config.Machine.with_window b ~ruu:64 ~lsq:16 in
  check "window set" true (win.ruu_size = 64 && win.lsq_size = 16);
  let ifq = Config.Machine.with_ifq b 8 in
  Alcotest.(check int) "ifq set" 8 ifq.ifq_size

let test_hls_baseline_smaller () =
  let h = Config.Machine.hls_baseline in
  check "narrower" true (h.decode_width < b.decode_width);
  check "smaller window" true (h.ruu_size < b.ruu_size)

(* Every leaf field of a machine, found by walking the record's runtime
   representation instead of naming fields, so a field added later is
   walked too: for each leaf, its path of field indices and a copy of
   the machine with that leaf changed. An immediate (an int, a bool or
   a constant constructor) [v] becomes 1 when it is 0 and [2 * v]
   otherwise, which keeps every field of [baseline] valid (sizes stay
   powers of two, [false] becomes [true]); a sub-record is walked into.
   Any other representation fails the test with its path. *)
let leaf_variants (cfg : Config.Machine.t) =
  let rec walk path r =
    List.concat
      (List.init (Obj.size r) (fun i ->
           let path = Printf.sprintf "%s.%d" path i in
           let with_field v =
             let c = Obj.dup r in
             Obj.set_field c i v;
             c
           in
           let f = Obj.field r i in
           if Obj.is_int f then
             let v : int = Obj.obj f in
             [ (path, with_field (Obj.repr (if v = 0 then 1 else 2 * v))) ]
           else if Obj.tag f = 0 then
             List.map (fun (p, sub) -> (p, with_field sub)) (walk path f)
           else Alcotest.failf "%s: a block of tag %d" path (Obj.tag f)))
  in
  List.map
    (fun (path, r) -> (path, (Obj.obj r : Config.Machine.t)))
    (walk "machine" (Obj.repr cfg))

(* Store keys and a profile's name for its machine are [canonical], so
   changing any leaf field must change it *)
let test_canonical_covers_every_field () =
  let leaves = leaf_variants b in
  (* today's record has 45 leaves; the walk finds any added later *)
  check "every leaf walked" true (List.length leaves >= 45);
  let base = Config.Machine.canonical b in
  List.iter
    (fun (path, cfg) ->
      if Config.Machine.canonical cfg = base then
        Alcotest.failf "changing %s leaves canonical unchanged" path)
    leaves

let suite =
  [
    Alcotest.test_case "baseline matches Table 2" `Quick test_baseline_is_table2;
    Alcotest.test_case "op latencies" `Quick test_op_latencies;
    Alcotest.test_case "scaling helpers" `Quick test_scaling;
    Alcotest.test_case "hls baseline" `Quick test_hls_baseline_smaller;
    Alcotest.test_case "canonical covers every field" `Quick
      test_canonical_covers_every_field;
  ]
