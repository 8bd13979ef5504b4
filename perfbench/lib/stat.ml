(* Order statistics and host-drift scaling for the benchmark's metrics. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The nearest-rank percentile: the sample at 1-based rank
   ceil (p/100 * n), so n - rank samples lie above the reported value. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let beyond ~n p = n - rank ~n p

(* The highest whole percentile that still has at least ten samples
   beyond it; None when fewer than eleven samples exist. *)
let max_percentile n =
  if n <= 10 then None
  else
    let rec down p = if beyond ~n (float_of_int p) >= 10 then p else down (p - 1) in
    Some (down 99)

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.percentile: no samples";
  (sorted a).(rank ~n p - 1)

(* [percentile] guarded by the ten-samples-beyond rule. *)
let reported_percentile a p =
  match max_percentile (Array.length a) with
  | Some top when float_of_int top >= p -> percentile a p
  | _ ->
    invalid_arg
      (Printf.sprintf "Stat.reported_percentile: p%g needs 10 samples above it, %d samples"
         p (Array.length a))

(* Host-drift correction. A fixed probe that took [probe_ms] against a
   reference of [probe_ref] means the host ran probe_ms / probe_ref
   times slower than the reference host: times shrink by the factor s,
   rates grow by it. *)
let scale_factor ~probe_ref ~probe_ms =
  if not (probe_ms > 0.0) then invalid_arg "Stat.scale_factor: probe_ms <= 0";
  probe_ref /. probe_ms

let scale_time ~s t = t *. s
let scale_rate ~s r = r /. s
