(** Summary statistics over float samples and the error metrics of the
    paper's evaluation (Section 4). *)

val mean : float list -> float

val stddev : float list -> float
(** Population standard deviation (divides by n). *)

val variance : float list -> float
(** Unbiased sample variance (divides by n-1); 0 for fewer than two
    samples. *)

val sample_stddev : float list -> float
(** Unbiased sample standard deviation (divides by n-1); 0 for fewer
    than two samples.  Bitwise equal to [sqrt (variance xs)]. *)

val sample_covariance : float list -> float list -> float
(** Unbiased sample covariance of two paired samples (divides by n-1);
    0 for fewer than two pairs.  Raises [Invalid_argument] on a length
    mismatch. *)

val cv_beta : x:float list -> y:float list -> float option
(** Control-variate coefficient [Cov(X,Y) / Var(X)] estimated from
    paired pilot samples; [None] when the pilot covariance is
    degenerate (fewer than two pairs, zero/non-finite variance of the
    control, or a non-finite ratio).  Callers fall back to the plain
    estimator on [None]. *)

type stratum = { weight : float; mean : float; variance : float; n : int }
(** One stratum's summary: population [weight] (any positive scale —
    weights are normalised internally), sample [mean], unbiased sample
    [variance], and replica count [n]. *)

type stratified = { mean : float; variance : float; df : float; ci95 : float }
(** Combined stratified estimate: weighted [mean], estimator [variance]
    [sum_h W_h^2 s_h^2 / n_h], Welch–Satterthwaite effective degrees of
    freedom [df], and the 95% half-width [ci95]
    ([t_{0.975,df} * sqrt variance]; [nan] when df < 1). *)

val combine_strata : stratum list -> stratified
(** Combine per-stratum means into the stratified estimator.  With a
    single stratum this reduces bitwise to the plain
    [mean]/[ci95_half_width] path (the weight cancels).  Raises
    [Invalid_argument] on an empty list, a zero total weight, or an
    empty stratum. *)

val student_t95 : int -> float
(** Two-sided 95% Student-t critical value for the given degrees of
    freedom (>= 1; the normal quantile 1.96 past df = 30). *)

val ci95_half_width : float list -> float
(** Half-width of the 95% confidence interval of the mean,
    [t_{0.975,n-1} * s / sqrt n] with [s] the sample stddev.  Returns
    [nan] for fewer than two samples: the interval is undefined there,
    and the pre-PR-10 behaviour of returning 0 reported false
    certainty.  Callers that need a sentinel must guard on [n < 2]. *)

val ci95_or_zero : float list -> float
(** {!ci95_half_width}, but 0.0 below two samples: the sentinel the
    replication and DSE reports print, so their single-replica output
    stays stable. *)

val cov : float list -> float
(** Coefficient of variation: stddev / mean (Section 4.1's convergence
    metric). 0 for an empty or zero-mean sample. *)

val absolute_error : reference:float -> predicted:float -> float
(** [AE_M = |M_SS - M_EDS| / M_EDS] (Section 4.2). *)

val relative_error :
  ref_a:float -> ref_b:float -> pred_a:float -> pred_b:float -> float
(** [RE_M = |(M_B,SS / M_A,SS) - (M_B,EDS / M_A,EDS)| / (M_B,EDS / M_A,EDS)]
    (Section 4.5): error on the predicted trend when moving from design
    point A to design point B. *)

val geomean : float list -> float
(** Geometric mean of positive values. *)

val percent : float -> float
(** Scale a ratio to percent. *)
