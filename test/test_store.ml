(* Persistent artifact store: codec framing, atomic publish, quarantine,
   single-flight, gc eviction order, and the Runner.Cache disk tier. *)

let check = Alcotest.(check bool)

(* a throwaway store root per test *)
let with_store f =
  let root =
    Filename.temp_file "statsim_store" ""
  in
  Sys.remove root;
  let t = Store.open_root root in
  Fun.protect
    ~finally:(fun () ->
      Store.clear t;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () -> f t)

(* --- codec --- *)

module Codec = Store.Codec

let test_codec_roundtrip () =
  let payload = "hello \x00 binary \xff payload" in
  let frame = Codec.encode ~key:"k1" payload in
  (match Codec.decode ~key:"k1" frame with
  | Ok (p, md5) ->
    Alcotest.(check string) "payload back" payload p;
    Alcotest.(check string) "payload digest" (Digest.string payload) md5
  | Error e -> Alcotest.failf "decode failed: %s" e);
  check "empty payload ok" true
    (Codec.decode ~key:"k" (Codec.encode ~key:"k" "")
    = Ok ("", Digest.string ""))

let test_codec_rejects () =
  let frame = Codec.encode ~key:"k1" "payload" in
  let is_err = function Error _ -> true | Ok _ -> false in
  check "wrong key" true (is_err (Codec.decode ~key:"k2" frame));
  check "truncated" true
    (is_err (Codec.decode ~key:"k1" (String.sub frame 0 (String.length frame - 3))));
  check "empty" true (is_err (Codec.decode ~key:"k1" ""));
  check "trailing garbage" true (is_err (Codec.decode ~key:"k1" (frame ^ "x")));
  (* flip one payload byte: digest must catch it *)
  let corrupt = Bytes.of_string frame in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 1));
  check "flipped bit" true
    (is_err (Codec.decode ~key:"k1" (Bytes.to_string corrupt)))

(* --- store basics --- *)

let id_codec =
  ((fun s -> s), fun s -> Ok s)

let get t ~key f =
  let encode, decode = id_codec in
  Store.get_or_compute t ~key ~encode ~decode f

let test_store_roundtrip () =
  with_store (fun t ->
      let computes = ref 0 in
      let f () =
        incr computes;
        "artifact-bytes"
      in
      Alcotest.(check string) "computed" "artifact-bytes" (get t ~key:"a" f);
      Alcotest.(check string) "from disk" "artifact-bytes" (get t ~key:"a" f);
      Alcotest.(check int) "one compute" 1 !computes;
      let s = Store.stats t in
      Alcotest.(check int) "one miss" 1 s.Store.misses;
      Alcotest.(check int) "one hit" 1 s.Store.hits;
      check "bytes written" true (s.Store.bytes_written > 0);
      (* a second instance on the same root shares the entries *)
      let t2 = Store.open_root (Store.root t) in
      Alcotest.(check string) "other process sees it" "artifact-bytes"
        (get t2 ~key:"a" f);
      Alcotest.(check int) "no recompute" 1 !computes;
      Alcotest.(check int) "hit in t2" 1 (Store.stats t2).Store.hits;
      let d = Store.disk_stats t in
      Alcotest.(check int) "one entry" 1 d.Store.entries)

let corrupt_one_entry root =
  (* flip a byte near the end of the single .bin entry under objects/ *)
  let rec find dir =
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then find path @ acc
        else if Filename.check_suffix name ".bin" then path :: acc
        else acc)
      [] (Sys.readdir dir)
  in
  match find (Filename.concat root "objects") with
  | [] -> Alcotest.fail "no entry to corrupt"
  | path :: _ ->
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let bytes = Bytes.of_string (really_input_string ic n) in
    close_in ic;
    Bytes.set bytes (n - 1)
      (Char.chr (Char.code (Bytes.get bytes (n - 1)) lxor 0xFF));
    let oc = open_out_bin path in
    output_bytes oc bytes;
    close_out oc

let test_corrupt_entry_quarantined () =
  with_store (fun t ->
      let computes = ref 0 in
      let f () =
        incr computes;
        "precious"
      in
      ignore (get t ~key:"k" f);
      corrupt_one_entry (Store.root t);
      (* degrade to compute: corrupted entry is moved aside, recomputed,
         republished — never fatal *)
      Alcotest.(check string) "recomputed" "precious" (get t ~key:"k" f);
      Alcotest.(check int) "two computes" 2 !computes;
      let s = Store.stats t in
      Alcotest.(check int) "quarantined once" 1 s.Store.quarantined;
      Alcotest.(check int) "two misses" 2 s.Store.misses;
      let d = Store.disk_stats t in
      Alcotest.(check int) "quarantine holds it" 1 d.Store.quarantine_entries;
      Alcotest.(check int) "entry republished" 1 d.Store.entries;
      (* and the republished entry reads back fine *)
      Alcotest.(check string) "healthy again" "precious" (get t ~key:"k" f);
      Alcotest.(check int) "no third compute" 2 !computes)

let test_concurrent_single_flight () =
  with_store (fun t ->
      let computes = Atomic.make 0 in
      let slow () =
        Atomic.incr computes;
        Unix.sleepf 0.02;
        "shared"
      in
      let results =
        Parallel.map ~jobs:2
          (fun _ -> get t ~key:"hot" slow)
          [| 0; 1 |]
      in
      Array.iter (Alcotest.(check string) "both see value" "shared") results;
      Alcotest.(check int) "single flight" 1 (Atomic.get computes);
      let s = Store.stats t in
      Alcotest.(check int) "one miss" 1 s.Store.misses;
      Alcotest.(check int) "one hit" 1 s.Store.hits)

let test_gc_eviction_order () =
  with_store (fun t ->
      let pay tag = String.make 200 tag.[0] in
      Store.put t ~key:"old" (pay "o");
      Store.put t ~key:"mid" (pay "m");
      Store.put t ~key:"new" (pay "n");
      (* control the LRU clock explicitly *)
      let set_atime key when_ =
        let digest = Digest.to_hex (Digest.string key) in
        let path =
          Filename.concat
            (Filename.concat
               (Filename.concat (Store.root t) "objects")
               (String.sub digest 0 2))
            (digest ^ ".bin")
        in
        Unix.utimes path when_ when_
      in
      set_atime "old" 1000.0;
      set_atime "mid" 2000.0;
      set_atime "new" 3000.0;
      let total = (Store.disk_stats t).Store.total_bytes in
      (* budget for two entries: only the oldest goes *)
      let evicted, freed = Store.gc t ~max_bytes:(total - 1) in
      Alcotest.(check int) "one evicted" 1 evicted;
      check "freed bytes" true (freed > 0);
      check "oldest gone" true (Store.find t ~key:"old" = None);
      check "mid kept" true (Store.find t ~key:"mid" <> None);
      check "new kept" true (Store.find t ~key:"new" <> None);
      (* shrink to nothing: eviction continues oldest-first *)
      let evicted, _ = Store.gc t ~max_bytes:0 in
      Alcotest.(check int) "rest evicted" 2 evicted;
      Alcotest.(check int) "empty" 0 (Store.disk_stats t).Store.entries)

(* --- the Runner.Cache disk tier --- *)

let test_cache_store_tier_profile () =
  with_store (fun t ->
      let spec = Workload.Suite.find "gzip" in
      let mk () = Workload.Suite.stream spec ~length:4_000 in
      let cfg = Config.Machine.baseline in
      let stream_key = "int:gzip:n4000" in
      let c1 = Runner.Cache.create ~store:t () in
      let p1 = Runner.Cache.profile c1 cfg ~stream_key mk in
      let s1 = Runner.Cache.stats c1 in
      Alcotest.(check int) "store miss on first run" 1 s1.store_misses;
      (* a fresh process: new memo tables, same store root *)
      let t2 = Store.open_root (Store.root t) in
      let c2 = Runner.Cache.create ~store:t2 () in
      let p2 = Runner.Cache.profile c2 cfg ~stream_key mk in
      let s2 = Runner.Cache.stats c2 in
      Alcotest.(check int) "store hit on second run" 1 s2.store_hits;
      Alcotest.(check int) "no store miss" 0 s2.store_misses;
      Alcotest.(check int) "same instructions" p1.instructions p2.instructions;
      Alcotest.(check int) "same sfg"
        (Profile.Sfg.node_count p1.sfg)
        (Profile.Sfg.node_count p2.sfg);
      (* the reloaded profile drives an identical simulation *)
      let a = Statsim.run_profile ~target_length:3_000 cfg p1 ~seed:5 in
      let b = Statsim.run_profile ~target_length:3_000 cfg p2 ~seed:5 in
      Alcotest.(check (float 0.0)) "identical IPC" a.Statsim.ipc b.Statsim.ipc;
      Alcotest.(check (float 0.0)) "identical EPC" a.epc b.epc)

(* A stored profile whose frame verifies but whose payload is hostile
   (here k = 7) is quarantined and recomputed like any corrupt entry;
   the decoder's error must not escape the cache. *)
let test_cache_store_tier_hostile_payload () =
  with_store (fun t ->
      let spec = Workload.Suite.find "gzip" in
      let mk () = Workload.Suite.stream spec ~length:2_000 in
      let cfg = Config.Machine.baseline in
      let stream_key = "int:gzip:n2000" in
      let c1 = Runner.Cache.create ~store:t () in
      let p1 = Runner.Cache.profile c1 cfg ~stream_key mk in
      let payload = Profile.Serialize.to_string p1 in
      (* the one entry's frame names its key: magic, u16 version, u32 key
         length, key *)
      let only dir =
        match Sys.readdir dir with
        | [| name |] -> Filename.concat dir name
        | _ -> Alcotest.failf "expected one entry in %s" dir
      in
      let frame =
        In_channel.with_open_bin
          (only (only (Filename.concat (Store.root t) "objects")))
          In_channel.input_all
      in
      let key = String.sub frame 12 (Int32.to_int (String.get_int32_be frame 8)) in
      Alcotest.(check (option string)) "entry holds the profile" (Some payload)
        (Store.find t ~key);
      let hostile =
        match String.split_on_char '\n' payload with
        | header :: _meta :: rest ->
          String.concat "\n" (header :: "meta 7 2000 0 0 0 0" :: rest)
        | _ -> Alcotest.fail "short payload"
      in
      Store.put t ~key hostile;
      let t2 = Store.open_root (Store.root t) in
      let c2 = Runner.Cache.create ~store:t2 () in
      let p2 = Runner.Cache.profile c2 cfg ~stream_key mk in
      let s2 = Runner.Cache.stats c2 in
      Alcotest.(check int) "quarantined" 1 s2.store_quarantined;
      Alcotest.(check int) "recomputed" 1 s2.profile_computes;
      Alcotest.(check string) "same profile" payload
        (Profile.Serialize.to_string p2))

let test_cache_store_tier_reference () =
  with_store (fun t ->
      let spec = Workload.Suite.find "vpr" in
      let mk () = Workload.Suite.stream spec ~length:3_000 in
      let cfg = Config.Machine.baseline in
      let stream_key = "int:vpr:n3000" in
      let c1 = Runner.Cache.create ~store:t () in
      let r1 = Runner.Cache.reference c1 cfg ~stream_key mk in
      let t2 = Store.open_root (Store.root t) in
      let c2 = Runner.Cache.create ~store:t2 () in
      let r2 = Runner.Cache.reference c2 cfg ~stream_key mk in
      Alcotest.(check int) "store hit" 1 (Runner.Cache.stats c2).store_hits;
      (* floats are recomputed from exact integer metrics: bit-identical *)
      Alcotest.(check (float 0.0)) "IPC" r1.Statsim.ipc r2.Statsim.ipc;
      Alcotest.(check (float 0.0)) "EPC" r1.epc r2.epc;
      Alcotest.(check (float 0.0)) "EDP" r1.edp r2.edp;
      Alcotest.(check int) "cycles" r1.metrics.Uarch.Metrics.cycles
        r2.metrics.Uarch.Metrics.cycles)

let test_cfg_key_canonical () =
  let cfg = Config.Machine.baseline in
  let k1 = Runner.Cache.cfg_key cfg in
  let k2 = Runner.Cache.cfg_key { cfg with mem_latency = cfg.mem_latency } in
  Alcotest.(check string) "equal configs, equal keys" k1 k2;
  check "different config, different key" true
    (Runner.Cache.cfg_key (Config.Machine.with_width cfg 2) <> k1);
  check "in_order matters" true
    (Runner.Cache.cfg_key (Config.Machine.in_order_variant cfg) <> k1);
  (* the canonical rendering distinguishes every sweep the experiments use *)
  let variants =
    [
      Config.Machine.scale_caches cfg 2.0;
      Config.Machine.scale_bpred cfg 0.5;
      Config.Machine.with_window cfg ~ruu:64 ~lsq:32;
      Config.Machine.with_ifq cfg 16;
      Config.Machine.with_predictor cfg Config.Machine.Gshare;
    ]
  in
  let keys = List.map Runner.Cache.cfg_key variants in
  Alcotest.(check int) "all distinct" (List.length keys)
    (List.length (List.sort_uniq compare (k1 :: keys)) - 1)

let test_metrics_wire_roundtrip () =
  let spec = Workload.Suite.find "vortex" in
  let r =
    Statsim.reference Config.Machine.baseline
      (Workload.Suite.stream spec ~length:2_000)
  in
  let m = Uarch.Metrics.decode (Uarch.Metrics.encode r.Statsim.metrics) in
  check "metrics roundtrip" true (m = r.Statsim.metrics);
  check "garbage rejected" true
    (try
       ignore (Uarch.Metrics.decode "statsim-metrics 1 2 3");
       false
     with Failure _ -> true);
  check "future version rejected" true
    (try
       ignore
         (Uarch.Metrics.decode
            (Uarch.Metrics.encode r.Statsim.metrics
            |> String.split_on_char ' '
            |> function
            | hd :: _ :: tl -> String.concat " " (hd :: "999" :: tl)
            | [] | [ _ ] -> assert false));
       false
     with Failure _ -> true)

let suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec rejects damage" `Quick test_codec_rejects;
    Alcotest.test_case "store roundtrip across instances" `Quick
      test_store_roundtrip;
    Alcotest.test_case "corrupt entry quarantined" `Quick
      test_corrupt_entry_quarantined;
    Alcotest.test_case "two-domain single flight" `Quick
      test_concurrent_single_flight;
    Alcotest.test_case "gc evicts LRU first" `Quick test_gc_eviction_order;
    Alcotest.test_case "cache disk tier: profiles" `Quick
      test_cache_store_tier_profile;
    Alcotest.test_case "cache disk tier: hostile profile quarantined" `Quick
      test_cache_store_tier_hostile_payload;
    Alcotest.test_case "cache disk tier: references" `Quick
      test_cache_store_tier_reference;
    Alcotest.test_case "cfg_key canonical" `Quick test_cfg_key_canonical;
    Alcotest.test_case "metrics wire roundtrip" `Quick
      test_metrics_wire_roundtrip;
  ]
