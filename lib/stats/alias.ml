(* Walker/Vose alias method: O(1) categorical sampling.

   The table is built once at plan-compile time and then drawn from on
   every synthetic instruction, so construction may use float
   arithmetic but sampling must not: each bucket's acceptance
   probability is stored as a fixed-point threshold in [0, 2^32] and
   compared against a raw 32-bit PRNG draw. A threshold of [two32]
   means "always accept" and skips the acceptance draw entirely —
   concentrated distributions (and every single-bucket table) sample
   with at most one draw. *)

type t = {
  values : int array;  (* the support, zero-weight entries removed *)
  alias : int array;  (* bucket index drawn on acceptance failure *)
  thr : int array;  (* fixed-point acceptance threshold in [0, 2^32] *)
  total : int;  (* sum of the surviving weights *)
}

let two32 = 4294967296

let length t = Array.length t.values

let is_empty t = Array.length t.values = 0

let total t = t.total

let empty = { values = [||]; alias = [||]; thr = [||]; total = 0 }

let of_weights ~values ~weights =
  if Array.length values <> Array.length weights then
    invalid_arg "Alias.of_weights: values/weights length mismatch";
  (* drop zero- and negative-weight entries: they carry no probability
     mass and would otherwise poison the scaled-probability worklists *)
  let keep = ref [] in
  Array.iteri
    (fun i w -> if w > 0 then keep := (values.(i), w) :: !keep)
    weights;
  let kept = Array.of_list (List.rev !keep) in
  let n = Array.length kept in
  if n = 0 then empty
  else begin
    let values = Array.map fst kept in
    let weights = Array.map snd kept in
    let total = Array.fold_left ( + ) 0 weights in
    if n = 1 then { values; alias = [| 0 |]; thr = [| two32 |]; total }
    else begin
      (* Vose's stable construction: scale each probability by n, then
         repeatedly pair a deficient bucket with a surplus one *)
      let scaled =
        Array.map
          (fun w -> float_of_int w *. float_of_int n /. float_of_int total)
          weights
      in
      let alias = Array.make n 0 in
      let thr = Array.make n two32 in
      let small = ref [] and large = ref [] in
      (* reverse iteration so the worklists pop in index order *)
      for i = n - 1 downto 0 do
        if scaled.(i) < 1.0 then small := i :: !small else large := i :: !large
      done;
      let fix p =
        (* fixed-point of an acceptance probability, clamped to the
           representable range *)
        if p <= 0.0 then 0
        else if p >= 1.0 then two32
        else int_of_float (p *. 4294967296.0)
      in
      let rec pair () =
        match (!small, !large) with
        | s :: srest, l :: lrest ->
          alias.(s) <- values.(l);
          thr.(s) <- fix scaled.(s);
          scaled.(l) <- scaled.(l) -. (1.0 -. scaled.(s));
          if scaled.(l) < 1.0 then begin
            small := l :: srest;
            large := lrest
          end
          else begin
            small := srest;
            large := l :: lrest
          end;
          pair ()
        | s :: srest, [] ->
          (* numerical leftovers: a nominally-deficient bucket with no
             surplus partner is in fact full *)
          thr.(s) <- two32;
          alias.(s) <- values.(s);
          small := srest;
          pair ()
        | [], l :: lrest ->
          thr.(l) <- two32;
          alias.(l) <- values.(l);
          large := lrest;
          pair ()
        | [], [] -> ()
      in
      (* aliases hold *values* directly (not bucket indices): the
         rejection path then costs one array read, and serialization is
         position-independent *)
      pair ();
      { values; alias; thr; total }
    end
  end

let of_histogram h =
  let values = ref [] and weights = ref [] in
  Histogram.iter h (fun v c ->
      values := v :: !values;
      weights := c :: !weights);
  of_weights
    ~values:(Array.of_list (List.rev !values))
    ~weights:(Array.of_list (List.rev !weights))

let[@inline] sample t rng =
  match Array.length t.values with
  | 0 -> invalid_arg "Alias.sample: empty table"
  | 1 -> t.values.(0)
  | n when n < 0x4000_0000 ->
    (* single-draw sample: bucket by multiply-shift (⌊u·n / 2^32⌋ — one
       multiply where [Prng.int]'s rejection sampling costs two integer
       divisions), then the multiply's fractional part (the low 32 bits
       of u·n) serves as the acceptance uniform. Within a bucket that
       fraction sweeps [0, 2^32) in steps of n, so reusing it biases
       each acceptance probability by under n/2^32 — the same order as
       the quantization the fixed-point thresholds already impose.
       [u·n] needs n < 2^30 to stay within an OCaml int; real tables
       are far smaller, but oversized ones fall back to the exact
       two-draw path rather than overflow *)
    let m = Prng.bits rng * n in
    let i = m lsr 32 in
    let thr = Array.unsafe_get t.thr i in
    if thr >= two32 || m land 0xFFFFFFFF < thr then Array.unsafe_get t.values i
    else Array.unsafe_get t.alias i
  | n ->
    let i = Prng.int rng n in
    let thr = t.thr.(i) in
    if thr >= two32 then t.values.(i)
    else if Prng.bits rng < thr then t.values.(i)
    else t.alias.(i)

let draws_per_sample t =
  match Array.length t.values with
  | 0 -> None
  | 1 -> Some 0
  | n when n < 0x4000_0000 -> Some 1
  | _ -> None

(* bucket i returns its own value only when it can accept (thr > 0) and
   its alias only when it can reject (thr < 2^32). A loop, not a local
   recursive function, so no closure is allocated per call. *)
let exists_value t p env =
  let found = ref false and i = ref 0 in
  while (not !found) && !i < Array.length t.values do
    let thr = t.thr.(!i) in
    if (thr > 0 && p env t.values.(!i)) || (thr < two32 && p env t.alias.(!i))
    then found := true;
    incr i
  done;
  !found

(* --- exact serialization hooks for the plan codec --- *)

let to_arrays t = (t.values, t.alias, t.thr, t.total)

let of_arrays ~values ~alias ~thr ~total =
  let n = Array.length values in
  if Array.length alias <> n || Array.length thr <> n then
    invalid_arg "Alias.of_arrays: array length mismatch";
  Array.iter
    (fun x ->
      if x < 0 || x > two32 then
        invalid_arg "Alias.of_arrays: threshold out of [0, 2^32]")
    thr;
  { values; alias; thr; total }
