type t = {
  counts : (int, int ref) Hashtbl.t;
  mutable total : int;
  (* Sampling cache: sorted support values with cumulative counts. Rebuilt
     lazily after mutation; profiling mutates a lot, generation samples a
     lot, so the two phases each pay their own cost once. *)
  mutable cdf_values : int array;
  mutable cdf_cum : int array;
  mutable dirty : bool;
}

let create ?(initial_capacity = 16) () =
  {
    counts = Hashtbl.create initial_capacity;
    total = 0;
    cdf_values = [||];
    cdf_cum = [||];
    dirty = true;
  }

let add_many h v n =
  if n < 0 then invalid_arg "Histogram.add_many: negative count";
  if n > 0 then begin
    (match Hashtbl.find_opt h.counts v with
    | Some r -> r := !r + n
    | None -> Hashtbl.add h.counts v (ref n));
    h.total <- h.total + n;
    h.dirty <- true
  end

let add h v = add_many h v 1

let count h v =
  match Hashtbl.find_opt h.counts v with Some r -> !r | None -> 0

let total h = h.total
let is_empty h = h.total = 0

let support h =
  Hashtbl.fold (fun v _ acc -> v :: acc) h.counts [] |> List.sort compare

let support_size h = Hashtbl.length h.counts

(* one sort over (value, count) pairs read straight from the table: no
   per-value lookup, no intermediate list *)
let iter h f =
  match Hashtbl.length h.counts with
  | 0 -> ()
  | 1 -> Hashtbl.iter (fun v r -> f v !r) h.counts
  | n ->
    let pairs = Array.make n (0, 0) in
    ignore
      (Hashtbl.fold
         (fun v r i ->
           pairs.(i) <- (v, !r);
           i + 1)
         h.counts 0);
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) pairs;
    Array.iter (fun (v, c) -> f v c) pairs

let mean h =
  if h.total = 0 then 0.0
  else
    let sum =
      Hashtbl.fold
        (fun v r acc -> acc +. (float_of_int v *. float_of_int !r))
        h.counts 0.0
    in
    sum /. float_of_int h.total

let stddev h =
  if h.total = 0 then 0.0
  else
    let m = mean h in
    let ss =
      Hashtbl.fold
        (fun v r acc ->
          let d = float_of_int v -. m in
          acc +. (d *. d *. float_of_int !r))
        h.counts 0.0
    in
    sqrt (ss /. float_of_int h.total)

let max_value h =
  if h.total = 0 then invalid_arg "Histogram.max_value: empty";
  Hashtbl.fold (fun v _ acc -> max v acc) h.counts min_int

let rebuild h =
  let n = Hashtbl.length h.counts in
  let values = Array.make n 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun v _ ->
      values.(!i) <- v;
      incr i)
    h.counts;
  Array.sort compare values;
  let cum = Array.make n 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i v ->
      acc := !acc + count h v;
      cum.(i) <- !acc)
    values;
  h.cdf_values <- values;
  h.cdf_cum <- cum;
  h.dirty <- false

(* smallest support value whose cumulative count reaches [x] in [1, total] *)
let value_at_cum h x =
  if h.dirty then rebuild h;
  let lo = ref 0 and hi = ref (Array.length h.cdf_cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if h.cdf_cum.(mid) >= x then hi := mid else lo := mid + 1
  done;
  h.cdf_values.(!lo)

let sample h rng =
  if h.total = 0 then invalid_arg "Histogram.sample: empty";
  value_at_cum h (1 + Prng.int rng h.total)

let percentile h p =
  if h.total = 0 then invalid_arg "Histogram.percentile: empty";
  if not (Float.is_finite p) || p < 0.0 || p > 1.0 then
    invalid_arg "Histogram.percentile: p out of [0, 1]";
  (* nearest-rank: the smallest value covering ceil(p * total)
     observations; p = 0 is the minimum, p = 1 the maximum *)
  let rank = int_of_float (Float.ceil (p *. float_of_int h.total)) in
  value_at_cum h (max 1 (min h.total rank))

let merge dst src =
  Hashtbl.iter (fun v r -> add_many dst v !r) src.counts

let copy h =
  let c = create ~initial_capacity:(Hashtbl.length h.counts) () in
  merge c h;
  c
