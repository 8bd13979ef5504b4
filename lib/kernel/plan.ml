(* The compiled execution plan: the reduced SFG lowered into flat int
   arrays and alias samplers, so the per-instruction synthesis path does
   no hashing, no float division and no linear CDF scans. See DESIGN.md
   Section 7. *)

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
  slot_meta : int array;  (* packed class, flag and ndeps bits *)
  slot_dep_off : int array;  (* length nslots + 1; offsets into slot_deps *)
  slot_deps : Stats.Alias.t array;  (* operand then waw/war distance samplers *)
}

let nnodes t = Array.length t.node_block
let nslots t = Array.length t.slot_meta

(* each node's slots once per reduced visit: exact, so a trace is
   filled in place at its final size *)
let instructions t =
  let n = ref 0 in
  Array.iteri
    (fun ni occ ->
      n := !n + (occ * (t.node_slot_off.(ni + 1) - t.node_slot_off.(ni))))
    t.node_occ;
  !n

(* six 10-bit distances fill a synthetic instruction's deps word *)
let max_deps = Profile.Sfg.max_deps

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

let[@inline] sample_rate rng thr =
  (* impossible and certain events consume no randomness, mirroring
     Prng.bernoulli's short-circuits *)
  thr > 0 && (thr >= two32 || Prng.bits rng < thr)

(* --- packed per-slot metadata: what generation reads ---

   bit 0     is_load
   bit 1     is_branch
   bit 2     has_dest
   bits 3-6  instruction class index
   bits 7+   dependency-sampler count (operands, then waw and war) *)

let pack_meta ~klass ~ndeps =
  (if Isa.Iclass.is_load klass then 1 else 0)
  lor (if Isa.Iclass.is_branch klass then 2 else 0)
  lor (if Isa.Iclass.has_dest klass then 4 else 0)
  lor (Isa.Iclass.index klass lsl 3)
  lor (ndeps lsl 7)

let[@inline] meta_is_load m = m land 1 <> 0
let[@inline] meta_is_branch m = m land 2 <> 0
let[@inline] meta_has_dest m = m land 4 <> 0
let[@inline] meta_class m = (m lsr 3) land 0xF
let[@inline] meta_ndeps m = m lsr 7

(* --- versioned codec (store tier) ---

   Line-oriented decimal text written and read through the profile
   format's line codec: canonical for a given plan, diff-able, and
   independent of OCaml marshalling. Alias tables serialize their exact
   internal arrays (Stats.Alias.to_arrays) so a decoded plan samples
   bit-identically to the freshly compiled one — the property the
   persistent cache tier needs. *)

let version = 2
let span_encode = Telemetry.span "plan.encode"
let span_decode = Telemetry.span "plan.decode"

module Text = Profile.Serialize.Text

let buf_line b tag a =
  Buffer.add_string b tag;
  Array.iter (Text.add_field b) a;
  Buffer.add_char b '\n'

let buf_sampler b s =
  let values, alias, thr, total = Stats.Alias.to_arrays s in
  Buffer.add_char b 'a';
  Text.add_field b (Array.length values);
  Text.add_field b total;
  Array.iter (Text.add_field b) values;
  Array.iter (Text.add_field b) alias;
  Array.iter (Text.add_field b) thr;
  Buffer.add_char b '\n'

let to_string t =
  Telemetry.time span_encode @@ fun () ->
  let b = Buffer.create 4096 in
  buf_line b "statsim-plan" [| version |];
  buf_line b "h"
    [|
      t.k;
      t.reduction;
      (if t.use_edges then 1 else 0);
      nnodes t;
      nslots t;
      Array.length t.slot_deps;
    |];
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

(* One pass over the string through the shared line cursor. Nothing of
   a length read from the input is allocated before the input has shown
   room for it, and every failure is a line-numbered [Failure]. *)
let of_string s =
  Telemetry.time span_decode @@ fun () ->
  let c = Text.cursor s in
  let fail msg =
    failwith (Printf.sprintf "Plan.of_string: line %d: %s" (Text.line c) msg)
  in
  let next_line () =
    if not (Text.next_line c) then failwith "Plan.of_string: truncated plan"
  in
  let int_or msg = try Text.token_int c with Text.Not_int -> fail msg in
  (* a [tag] line of exactly [n] ints *)
  let expect_tagged tag n =
    next_line ();
    if not (Text.token c && Text.token_is c tag) then
      fail (Printf.sprintf "expected a %S line" tag);
    let a = if n >= 0 && n <= Text.max_tokens c then Array.make n 0 else [||] in
    let got = ref 0 in
    while Text.token c do
      let v = int_or "malformed integer" in
      if !got < Array.length a then a.(!got) <- v;
      incr got
    done;
    if !got <> n then
      fail (Printf.sprintf "expected %d ints under %S, got %d" n tag !got);
    a
  in
  (* "a <n> <total>" then n values, n aliases and n thresholds; every
     value the sampler can return (its values and its aliases) must lie
     in [0, hi] *)
  let sampler ~hi what =
    next_line ();
    if not (Text.token c && Text.token_is c "a") then
      fail "expected a sampler line";
    (* both counts must be present before either is judged *)
    let has_n = Text.token c in
    let n = if has_n then try Text.token_int c with Text.Not_int -> -1 else -1 in
    if not (has_n && Text.token c) then fail "expected a sampler line";
    if n < 0 then fail "malformed sampler length";
    let total = int_or "malformed sampler total" in
    let fits = n <= Text.max_tokens c / 3 in
    let len = if fits then n else 0 in
    let values = Array.make len 0 in
    let alias = Array.make len 0 in
    let thr = Array.make len 0 in
    let got = ref 0 and inside = ref true in
    while Text.token c do
      let v = int_or "malformed integer" in
      let i = !got in
      if i < 2 * len && (v < 0 || v > hi) then inside := false;
      if i < len then values.(i) <- v
      else if i < 2 * len then alias.(i - len) <- v
      else if i < 3 * len then thr.(i - (2 * len)) <- v;
      incr got
    done;
    if (not fits) || !got <> 3 * n then fail "sampler arity mismatch";
    if not !inside then fail (Printf.sprintf "%s outside [0, %d]" what hi);
    try Stats.Alias.of_arrays ~values ~alias ~thr ~total
    with Invalid_argument msg -> fail msg
  in
  next_line ();
  (match String.split_on_char ' ' (Text.rest c) with
  | [ "statsim-plan"; v ] when int_of_string_opt v = Some version -> ()
  | [ "statsim-plan"; v ] ->
    fail (Printf.sprintf "unsupported plan format version %s" v)
  | _ -> fail "not a statsim plan");
  next_line ();
  let is_h = Text.token c && Text.token_is c "h" in
  let header = Array.make 6 0 and got = ref 0 and malformed = ref false in
  while Text.token c do
    (if !got < 6 then
       try header.(!got) <- Text.token_int c
       with Text.Not_int -> malformed := true);
    incr got
  done;
  if not (is_h && !got = 6) then fail "expected the header line";
  if !malformed || header.(5) < 0 then fail "malformed header";
  let k = header.(0) and reduction = header.(1) and use_edges = header.(2) = 1 in
  let nn = header.(3) and ns = header.(4) and nd = header.(5) in
  (* What the generator indexes without bounds checks is validated
     here, on the line that carries it: offsets that start at 0, never
     decrease and end at the array they index; a dependency count per
     slot that matches its offsets; and sampler values in range. *)
  let offsets tag n ~total =
    let a = expect_tagged tag n in
    let ok = ref (n >= 1 && a.(0) = 0 && a.(n - 1) = total) in
    for i = 1 to n - 1 do
      if a.(i) < a.(i - 1) then ok := false
    done;
    if not !ok then
      fail
        (Printf.sprintf "%S offsets must rise from 0 to %d" tag total);
    a
  in
  let node_block = expect_tagged "b" nn in
  let node_occ = expect_tagged "o" nn in
  if Array.exists (fun o -> o < 0) node_occ then
    fail "negative occurrence count";
  let node_slot_off = offsets "s" (nn + 1) ~total:ns in
  let slot_meta = expect_tagged "m" ns in
  if
    Array.exists
      (fun m -> meta_class m >= Isa.Iclass.count || meta_ndeps m > max_deps)
      slot_meta
  then fail "slot class or dependency count out of range";
  let slot_dep_off = offsets "d" (ns + 1) ~total:nd in
  Array.iteri
    (fun j m ->
      if meta_ndeps m <> slot_dep_off.(j + 1) - slot_dep_off.(j) then
        fail (Printf.sprintf "slot %d: dependency count disagrees with \"d\"" j))
    slot_meta;
  let thr_taken = expect_tagged "t0" nn in
  let thr_mis = expect_tagged "t1" nn in
  let thr_misred = expect_tagged "t2" nn in
  let thr_l1i = expect_tagged "t3" nn in
  let thr_l2i = expect_tagged "t4" nn in
  let thr_itlb = expect_tagged "t5" nn in
  let thr_l1d = expect_tagged "t6" nn in
  let thr_l2d = expect_tagged "t7" nn in
  let thr_dtlb = expect_tagged "t8" nn in
  let edges = Array.init nn (fun _ -> sampler ~hi:(nn - 1) "successor") in
  (* nd is bounded by nothing but the lines that follow, so the samplers
     are read before their array is made *)
  let slot_deps =
    Array.of_list
      (List.init nd (fun _ ->
           sampler ~hi:Profile.Sfg.dep_cap "dependency distance"))
  in
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
