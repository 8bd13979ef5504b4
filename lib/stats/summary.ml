let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.0
  | xs ->
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (ss /. float_of_int (List.length xs))

let variance = function
  | [] | [ _ ] -> 0.0
  | xs ->
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    ss /. float_of_int (List.length xs - 1)

(* Shares [variance]'s summation order so that
   [sample_stddev xs = sqrt (variance xs)] holds bitwise — the
   stratified combiner's single-stratum path depends on it. *)
let sample_stddev xs = sqrt (variance xs)

(* Two-sided 95% Student-t critical values by degrees of freedom;
   beyond the table the normal quantile 1.96 is the asymptote. *)
let t95_table =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
    2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
    2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
  |]

let student_t95 df =
  if df < 1 then invalid_arg "Summary.student_t95: df must be >= 1";
  if df <= Array.length t95_table then t95_table.(df - 1) else 1.960

(* A confidence interval over fewer than two samples is undefined:
   there is no dispersion estimate to widen it with.  Returning 0.0
   here (as pre-PR-10 code did) silently reported false certainty, so
   the degenerate case now yields [nan] and callers that want a
   sentinel must guard explicitly. *)
let ci95_half_width = function
  | [] | [ _ ] -> Float.nan
  | xs ->
    let n = List.length xs in
    student_t95 (n - 1) *. sample_stddev xs /. sqrt (float_of_int n)

let ci95_or_zero = function [] | [ _ ] -> 0.0 | xs -> ci95_half_width xs

let sample_covariance xs ys =
  let n = List.length xs in
  if n <> List.length ys then
    invalid_arg "Summary.sample_covariance: length mismatch";
  if n < 2 then 0.0
  else begin
    let mx = mean xs and my = mean ys in
    let ss =
      List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0.0 xs ys
    in
    ss /. float_of_int (n - 1)
  end

(* Control-variate coefficient beta = Cov(X,Y) / Var(X).  [None] when
   the pilot covariance is degenerate (fewer than two paired samples,
   zero or non-finite variance) — callers fall back to the plain
   estimator in that case. *)
let cv_beta ~x ~y =
  if List.length x < 2 || List.length x <> List.length y then None
  else begin
    let vx = variance x in
    if not (Float.is_finite vx) || vx <= 0.0 then None
    else begin
      let b = sample_covariance x y /. vx in
      if Float.is_finite b then Some b else None
    end
  end

type stratum = { weight : float; mean : float; variance : float; n : int }
type stratified = { mean : float; variance : float; df : float; ci95 : float }

let combine_strata strata =
  match strata with
  | [] -> invalid_arg "Summary.combine_strata: no strata"
  | [ h ] ->
    (* Exact reduction to the plain estimator: one stratum's weight
       cancels, so report the plain mean and the plain t-interval
       (bitwise identical to [mean]/[ci95_half_width] because
       [sample_stddev] is [sqrt variance]). *)
    let nf = float_of_int h.n in
    let ci =
      if h.n < 2 then Float.nan
      else student_t95 (h.n - 1) *. sqrt h.variance /. sqrt nf
    in
    {
      mean = h.mean;
      variance = (if h.n < 2 then Float.nan else h.variance /. nf);
      df = float_of_int (h.n - 1);
      ci95 = ci;
    }
  | _ ->
    let wsum = List.fold_left (fun acc s -> acc +. s.weight) 0.0 strata in
    if wsum <= 0.0 then invalid_arg "Summary.combine_strata: zero total weight";
    (* Stratified mean = sum_h W_h * m_h with normalised weights;
       Var = sum_h W_h^2 s_h^2 / n_h; effective degrees of freedom by
       Welch–Satterthwaite: (sum g_h)^2 / sum (g_h^2 / (n_h - 1)) with
       g_h = W_h^2 s_h^2 / n_h. *)
    let m, v, dfden =
      List.fold_left
        (fun (m, v, dfden) s ->
          if s.n < 1 then invalid_arg "Summary.combine_strata: empty stratum";
          let w = s.weight /. wsum in
          let g = w *. w *. s.variance /. float_of_int s.n in
          let dfd =
            if s.n < 2 then (if g > 0.0 then Float.infinity else dfden)
            else dfden +. (g *. g /. float_of_int (s.n - 1))
          in
          (m +. (w *. s.mean), v +. g, dfd))
        (0.0, 0.0, 0.0) strata
    in
    let df =
      if v <= 0.0 then
        (* no measured dispersion: fall back to the pooled df *)
        float_of_int
          (List.fold_left (fun acc s -> acc + max 0 (s.n - 1)) 0 strata)
      else if dfden = Float.infinity then 0.0
      else v *. v /. dfden
    in
    let ci =
      if df < 1.0 then Float.nan
      else student_t95 (int_of_float df) *. sqrt v
    in
    { mean = m; variance = v; df; ci95 = ci }

let cov xs =
  let m = mean xs in
  if m = 0.0 then 0.0 else stddev xs /. m

let absolute_error ~reference ~predicted =
  if reference = 0.0 then invalid_arg "Summary.absolute_error: zero reference";
  Float.abs (predicted -. reference) /. Float.abs reference

let relative_error ~ref_a ~ref_b ~pred_a ~pred_b =
  if ref_a = 0.0 || pred_a = 0.0 then
    invalid_arg "Summary.relative_error: zero design point A";
  let ref_trend = ref_b /. ref_a in
  if ref_trend = 0.0 then invalid_arg "Summary.relative_error: zero trend";
  let pred_trend = pred_b /. pred_a in
  Float.abs (pred_trend -. ref_trend) /. Float.abs ref_trend

let geomean = function
  | [] -> 0.0
  | xs ->
    let logsum =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Summary.geomean: non-positive value";
          acc +. log x)
        0.0 xs
    in
    exp (logsum /. float_of_int (List.length xs))

let percent x = 100.0 *. x
