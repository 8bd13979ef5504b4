(* The support lives in one int array of (value, count) pairs kept in
   ascending value order: pair [i] is [data.(2i)], [data.(2i + 1)], and
   [size] pairs are in use. Every count is positive. [data] is the shared
   empty array until the first observation, so the many histograms a
   profile never fills (the WAW/WAR tables of a renaming machine) cost
   one small record each. *)
type t = {
  mutable data : int array;
  mutable size : int;
  (* Sampling cache: the cumulative counts of the pairs, rebuilt lazily
     after mutation (empty while stale); profiling mutates a lot,
     generation samples a lot, so the two phases each pay their own cost
     once. *)
  mutable cum : int array;
}

let no_table : int array = [||]

let create ?(initial_capacity = 0) () =
  let data =
    if initial_capacity > 0 then Array.make (2 * initial_capacity) 0
    else no_table
  in
  { data; size = 0; cum = no_table }

(* the first pair whose value is at least [v]: [v]'s pair when it is in
   the support, its insertion point otherwise *)
let search h v =
  let data = h.data in
  let lo = ref 0 and hi = ref h.size in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get data (2 * mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let insert h i v n =
  let size = h.size in
  if 2 * size = Array.length h.data then begin
    let data = Array.make (if size = 0 then 2 else 4 * size) 0 in
    Array.blit h.data 0 data 0 (2 * size);
    h.data <- data
  end;
  let data = h.data in
  Array.blit data (2 * i) data ((2 * i) + 2) (2 * (size - i));
  data.(2 * i) <- v;
  data.((2 * i) + 1) <- n;
  h.size <- size + 1

let add_many h v n =
  if n < 0 then invalid_arg "Histogram.add_many: negative count";
  if n > 0 then begin
    let i = search h v in
    if i < h.size && h.data.(2 * i) = v then
      h.data.((2 * i) + 1) <- h.data.((2 * i) + 1) + n
    else insert h i v n;
    if h.cum != no_table then h.cum <- no_table
  end

let add h v = add_many h v 1

let count h v =
  let i = search h v in
  if i < h.size && h.data.(2 * i) = v then h.data.((2 * i) + 1) else 0

let total h =
  let t = ref 0 in
  for i = 0 to h.size - 1 do
    t := !t + h.data.((2 * i) + 1)
  done;
  !t

let is_empty h = h.size = 0

let support h =
  let acc = ref [] in
  for i = h.size - 1 downto 0 do
    acc := h.data.(2 * i) :: !acc
  done;
  !acc

let support_size h = h.size

let iter h f =
  for i = 0 to h.size - 1 do
    f h.data.(2 * i) h.data.((2 * i) + 1)
  done

(* every product and partial sum of a histogram of ints below 2^53 is
   an exact float, so the mean is exact in any summation order *)
let mean h =
  if h.size = 0 then 0.0
  else begin
    let sum = ref 0.0 and total = ref 0 in
    for i = 0 to h.size - 1 do
      let c = h.data.((2 * i) + 1) in
      sum := !sum +. (float_of_int h.data.(2 * i) *. float_of_int c);
      total := !total + c
    done;
    !sum /. float_of_int !total
  end

let stddev h =
  if h.size = 0 then 0.0
  else begin
    let m = mean h in
    let ss = ref 0.0 and total = ref 0 in
    for i = 0 to h.size - 1 do
      let c = h.data.((2 * i) + 1) in
      let d = float_of_int h.data.(2 * i) -. m in
      ss := !ss +. (d *. d *. float_of_int c);
      total := !total + c
    done;
    sqrt (!ss /. float_of_int !total)
  end

let max_value h =
  if h.size = 0 then invalid_arg "Histogram.max_value: empty";
  h.data.(2 * (h.size - 1))

(* the cumulative counts, built after each mutation; the last is the
   total *)
let cumulative h =
  if h.cum == no_table then begin
    let cum = Array.make h.size 0 in
    let acc = ref 0 in
    for i = 0 to h.size - 1 do
      acc := !acc + h.data.((2 * i) + 1);
      cum.(i) <- !acc
    done;
    h.cum <- cum
  end;
  h.cum

(* smallest support value whose cumulative count reaches [x] in [1, total] *)
let value_at_cum h cum x =
  let lo = ref 0 and hi = ref (h.size - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) >= x then hi := mid else lo := mid + 1
  done;
  h.data.(2 * !lo)

let sample h rng =
  if h.size = 0 then invalid_arg "Histogram.sample: empty";
  let cum = cumulative h in
  value_at_cum h cum (1 + Prng.int rng cum.(h.size - 1))

let percentile h p =
  if h.size = 0 then invalid_arg "Histogram.percentile: empty";
  if not (Float.is_finite p) || p < 0.0 || p > 1.0 then
    invalid_arg "Histogram.percentile: p out of [0, 1]";
  let cum = cumulative h in
  let total = cum.(h.size - 1) in
  (* nearest-rank: the smallest value covering ceil(p * total)
     observations; p = 0 is the minimum, p = 1 the maximum *)
  let rank = int_of_float (Float.ceil (p *. float_of_int total)) in
  value_at_cum h cum (max 1 (min total rank))

let merge dst src =
  (* [src]'s size is read once, so merging a histogram into itself
     doubles each count *)
  for i = 0 to src.size - 1 do
    add_many dst src.data.(2 * i) src.data.((2 * i) + 1)
  done

let copy h =
  let data = if h.size = 0 then no_table else Array.sub h.data 0 (2 * h.size) in
  { data; size = h.size; cum = no_table }
