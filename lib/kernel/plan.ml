(* The compiled execution plan: the reduced SFG and the machine's
   static operation table lowered into flat int arrays and alias
   samplers, so the per-instruction synthesis path does no hashing, no
   float division and no linear CDF scans. See DESIGN.md Section 7. *)

type t = {
  k : int;
  reduction : int;
  use_edges : bool;  (* k = 0 walks draw blocks independently *)
  (* per node, indexed densely by SFG key order *)
  node_block : int array;
  node_occ : int array;  (* reduced occurrence counts *)
  node_slot_off : int array;  (* length nnodes + 1; offsets into slots *)
  edges : Stats.Alias.t array;  (* successor *node indices*; empty = dead end *)
  (* per node, fixed-point event thresholds in [0, 2^32] *)
  thr_taken : int array;
  thr_mis : int array;
  thr_misred : int array;  (* P(mispredict) + P(redirect), same draw *)
  thr_l1i : int array;
  thr_l2i : int array;  (* conditional on an L1 I-miss *)
  thr_itlb : int array;
  thr_l1d : int array;
  thr_l2d : int array;  (* conditional on an L1 D-miss *)
  thr_dtlb : int array;
  (* per slot (flattened across nodes) *)
  slot_meta : int array;  (* packed class/flag/latency/pool/ndeps bits *)
  slot_dep_off : int array;  (* length nslots + 1; offsets into slot_deps *)
  slot_deps : Stats.Alias.t array;  (* operand then waw/war distance samplers *)
}

let nnodes t = Array.length t.node_block
let nslots t = Array.length t.slot_meta
let total_occ t = Array.fold_left ( + ) 0 t.node_occ

(* --- fixed-point rates: the one guarded rate helper ---

   Every probability the generator samples per instruction goes through
   [threshold] at compile time and [sample_rate] at run time; the
   zero-denominator and saturated cases that Generate.sample_flag-style
   call sites used to hand-roll are handled here once. *)

let two32 = 4294967296
let always = two32

let threshold ~num ~den =
  if den <= 0 || num <= 0 then 0
  else if num >= den then two32
  else
    Int64.to_int
      (Int64.div
         (Int64.mul (Int64.of_int num) 4294967296L)
         (Int64.of_int den))

let sample_rate rng thr =
  (* impossible and certain events consume no randomness, mirroring
     Prng.bernoulli's short-circuits *)
  thr > 0 && (thr >= two32 || Prng.bits rng < thr)

(* --- packed per-slot metadata ---

   bit 0      is_load
   bit 1      is_branch
   bit 2      is_mem
   bit 3      has_dest
   bit 4      anti-dependency samplers appended (waw then war)
   bits 5-8   instruction class index
   bits 9-14  base operation latency (Config.Machine.op_latency)
   bits 15-17 functional-unit pool
   bits 18+   dependency-sampler count (operands + anti) *)

(* functional-unit pools, mirroring Uarch.Pipeline.pool_of *)
let pool_of (c : Isa.Iclass.t) =
  match c with
  | Int_alu | Int_branch | Indirect_branch -> 0
  | Int_mult | Int_div -> 1
  | Load | Store -> 2
  | Fp_alu | Fp_branch -> 3
  | Fp_mult | Fp_div | Fp_sqrt -> 4

let pack_meta ~klass ~anti ~ndeps =
  (if Isa.Iclass.is_load klass then 1 else 0)
  lor (if Isa.Iclass.is_branch klass then 2 else 0)
  lor (if Isa.Iclass.is_mem klass then 4 else 0)
  lor (if Isa.Iclass.has_dest klass then 8 else 0)
  lor (if anti then 16 else 0)
  lor (Isa.Iclass.index klass lsl 5)
  lor (Config.Machine.op_latency klass lsl 9)
  lor (pool_of klass lsl 15)
  lor (ndeps lsl 18)

let meta_is_load m = m land 1 <> 0
let meta_is_branch m = m land 2 <> 0
let meta_is_mem m = m land 4 <> 0
let meta_has_dest m = m land 8 <> 0
let meta_anti m = m land 16 <> 0
let meta_class m = (m lsr 5) land 0xF
let meta_klass m = Isa.Iclass.of_index (meta_class m)
let meta_latency m = (m lsr 9) land 0x3F
let meta_pool m = (m lsr 15) land 0x7
let meta_ndeps m = m lsr 18

(* --- versioned codec (store tier) ---

   Line-oriented decimal text, like the profile format: canonical for a
   given plan, diff-able, and independent of OCaml marshalling. Alias
   tables serialize their exact internal arrays (Stats.Alias.to_arrays)
   so a decoded plan samples bit-identically to the freshly compiled
   one — the property the persistent cache tier needs. *)

let version = 1

let buf_ints b a =
  Array.iter
    (fun x ->
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int x))
    a

let buf_line b tag a =
  Buffer.add_string b tag;
  buf_ints b a;
  Buffer.add_char b '\n'

let buf_sampler b s =
  let values, alias, thr, total = Stats.Alias.to_arrays s in
  Buffer.add_char b 'a';
  Buffer.add_char b ' ';
  Buffer.add_string b (string_of_int (Array.length values));
  Buffer.add_char b ' ';
  Buffer.add_string b (string_of_int total);
  buf_ints b values;
  buf_ints b alias;
  buf_ints b thr;
  Buffer.add_char b '\n'

let to_string t =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "statsim-plan %d\n" version);
  Buffer.add_string b
    (Printf.sprintf "h %d %d %d %d %d %d\n" t.k t.reduction
       (if t.use_edges then 1 else 0)
       (nnodes t) (nslots t)
       (Array.length t.slot_deps));
  buf_line b "b" t.node_block;
  buf_line b "o" t.node_occ;
  buf_line b "s" t.node_slot_off;
  buf_line b "m" t.slot_meta;
  buf_line b "d" t.slot_dep_off;
  List.iter
    (fun (tag, a) -> buf_line b tag a)
    [
      ("t0", t.thr_taken);
      ("t1", t.thr_mis);
      ("t2", t.thr_misred);
      ("t3", t.thr_l1i);
      ("t4", t.thr_l2i);
      ("t5", t.thr_itlb);
      ("t6", t.thr_l1d);
      ("t7", t.thr_l2d);
      ("t8", t.thr_dtlb);
    ];
  Array.iter (buf_sampler b) t.edges;
  Array.iter (buf_sampler b) t.slot_deps;
  Buffer.contents b

let fail line msg = failwith (Printf.sprintf "Plan.of_string: line %d: %s" line msg)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let lines = ref (List.mapi (fun i l -> (i + 1, l)) lines) in
  let next_line () =
    match !lines with
    | [] -> failwith "Plan.of_string: truncated plan"
    | (i, l) :: rest ->
      lines := rest;
      (i, l)
  in
  let expect_tagged tag n =
    let i, l = next_line () in
    let toks = String.split_on_char ' ' l |> List.filter (fun t -> t <> "") in
    match toks with
    | t :: rest when t = tag ->
      let a =
        Array.of_list
          (List.map
             (fun x ->
               match int_of_string_opt x with
               | Some v -> v
               | None -> fail i "malformed integer")
             rest)
      in
      if Array.length a <> n then
        fail i
          (Printf.sprintf "expected %d ints under %S, got %d" n tag
             (Array.length a));
      a
    | _ -> fail i (Printf.sprintf "expected a %S line" tag)
  in
  let sampler () =
    let i, l = next_line () in
    let toks = String.split_on_char ' ' l |> List.filter (fun t -> t <> "") in
    match toks with
    | "a" :: n :: total :: rest ->
      let n =
        match int_of_string_opt n with
        | Some v when v >= 0 -> v
        | _ -> fail i "malformed sampler length"
      in
      let total =
        match int_of_string_opt total with
        | Some v -> v
        | None -> fail i "malformed sampler total"
      in
      let a =
        Array.of_list
          (List.map
             (fun x ->
               match int_of_string_opt x with
               | Some v -> v
               | None -> fail i "malformed integer")
             rest)
      in
      if Array.length a <> 3 * n then fail i "sampler arity mismatch";
      (try
         Stats.Alias.of_arrays ~values:(Array.sub a 0 n)
           ~alias:(Array.sub a n n)
           ~thr:(Array.sub a (2 * n) n)
           ~total
       with Invalid_argument msg -> fail i msg)
    | _ -> fail i "expected a sampler line"
  in
  let i, l = next_line () in
  (match String.split_on_char ' ' l with
  | [ "statsim-plan"; v ] when int_of_string_opt v = Some version -> ()
  | [ "statsim-plan"; v ] ->
    fail i (Printf.sprintf "unsupported plan format version %s" v)
  | _ -> fail i "not a statsim plan");
  let i, l = next_line () in
  let k, reduction, use_edges, nn, ns, nd =
    match String.split_on_char ' ' l |> List.filter (fun t -> t <> "") with
    | [ "h"; a; b; c; d; e; f ] -> (
      match
        ( int_of_string_opt a,
          int_of_string_opt b,
          int_of_string_opt c,
          int_of_string_opt d,
          int_of_string_opt e,
          int_of_string_opt f )
      with
      | Some a, Some b, Some c, Some d, Some e, Some f -> (a, b, c = 1, d, e, f)
      | _ -> fail i "malformed header")
    | _ -> fail i "expected the header line"
  in
  let node_block = expect_tagged "b" nn in
  let node_occ = expect_tagged "o" nn in
  let node_slot_off = expect_tagged "s" (nn + 1) in
  let slot_meta = expect_tagged "m" ns in
  let slot_dep_off = expect_tagged "d" (ns + 1) in
  let thr_taken = expect_tagged "t0" nn in
  let thr_mis = expect_tagged "t1" nn in
  let thr_misred = expect_tagged "t2" nn in
  let thr_l1i = expect_tagged "t3" nn in
  let thr_l2i = expect_tagged "t4" nn in
  let thr_itlb = expect_tagged "t5" nn in
  let thr_l1d = expect_tagged "t6" nn in
  let thr_l2d = expect_tagged "t7" nn in
  let thr_dtlb = expect_tagged "t8" nn in
  let edges = Array.init nn (fun _ -> sampler ()) in
  let slot_deps = Array.init nd (fun _ -> sampler ()) in
  {
    k;
    reduction;
    use_edges;
    node_block;
    node_occ;
    node_slot_off;
    edges;
    thr_taken;
    thr_mis;
    thr_misred;
    thr_l1i;
    thr_l2i;
    thr_itlb;
    thr_l1d;
    thr_l2d;
    thr_dtlb;
    slot_meta;
    slot_dep_off;
    slot_deps;
  }
