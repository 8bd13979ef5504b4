(** Variance-aware stratified replication (PR 10).

    Where {!Replicate.run} blindly doubles whole-graph replicas, this
    engine partitions the reduced SFG into phase strata (k-means over
    per-node behavioural rates, {!Simpoint.classify_nodes}), runs
    a deterministic pilot round per stratum, then spends the remaining
    budget by Neyman allocation — replicas go where the pilot measured
    variance.  Per-stratum means combine into the stratified estimator
    with a Welch–Satterthwaite pooled CI
    ({!Stats.Summary.combine_strata}); an analytically-exact locality /
    branch-disruption control variate (coefficient estimated on the
    pilot, frozen) further shrinks each stratum's variance, falling back
    to the plain stratified mean when the pilot correlation is
    degenerate or insignificant.

    Determinism contract, as in PR 5: every replica's (stratum, seed)
    pair is fixed before simulation and aggregation is in (stratum,
    seed) order, so reports are byte-identical at any [jobs] value;
    per-stratum seed tables are prefix-stable as the budget grows
    (house-monotone allocation + frozen pilot shares).  Both engines
    grow their samples through one loop, {!Replicate.grow} and
    {!Replicate.adaptive}.  The control variate's exact expectation is
    a finite sum over plan thresholds. *)

val neyman_allocate :
  weights:float array -> sigmas:float array -> pilot:int -> total:int ->
  int array
(** Split [total] replicas over strata: [pilot] each up front, the rest
    by greedy highest-averages rounding of the Neyman shares
    [W_h * sigma_h] (falling back to proportional-to-weight when every
    share is zero, uniform when every weight is zero too).  The result
    sums to [total], is house-monotone in [total] (a larger budget only
    extends each stratum's count), and is permutation-stable for
    pairwise-distinct shares (exact ties break toward the lower index).
    Raises [Invalid_argument] when [pilot < 2], on a length mismatch,
    or when [total < pilot * strata]. *)

val partition :
  ?strata:int ->
  reduction:int ->
  Profile.Stat_profile.t ->
  Profile.Sfg.node list list
(** The phase strata of the profile's graph at [reduction]: the
    survivors of {!Profile.Sfg.reduce}, clustered over
    {!Simpoint.node_features}; each stratum ascends by key and the
    strata are ordered by their smallest key. [strata] forces exactly k
    k-means clusters (empty ones dropped); by default
    {!Simpoint.classify_nodes} picks up to 4. Raises [Invalid_argument]
    when no node survives or [strata < 1]. *)

type stratum = {
  index : int;  (** strata ordered by smallest member node key *)
  node_keys : int array;  (** member SFG node keys, ascending *)
  weight : float;
      (** unreduced (profiled) instruction share; sums to 1 over strata *)
  instructions : int;
      (** one replica's synthetic trace length: each stratum re-derives
          its reduction against its own instruction mass, so under
          [target_length] every stratum synthesizes a full-length
          homogeneous trace *)
  mu_x : float;  (** exact control-variate expectation, CPI units *)
}

type report = {
  stratum : stratum;
  seeds : int array;  (** per-replica seeds, run order, prefix-stable *)
  cpi_samples : float array;  (** raw per-replica CPI, seed order *)
  cv_samples : float array;  (** control-variate samples, seed order *)
}
(** The estimator works in the CPI domain: total CPI is the
    instruction-weighted linear combination of stratum CPIs (cycles
    add), whereas stratum IPCs combine harmonically.  IPC statistics
    are derived by the delta method; the relative half-width is
    identical in both domains. *)

type t = {
  master_seed : int;
  reduction : int;
  pilot : int;
  control_variate : bool;  (** the caller asked for the CV *)
  beta : float option;
      (** pilot-estimated CV coefficient; [None] = plain stratified path
          (CV disabled or degenerate pilot covariance) *)
  analytical_ipc : float;
      (** zero-simulation {!Analytical.Steady_state} IPC at [reduction],
          as [run]'s [steady_state] answered it, reported alongside the
          measured mean *)
  reports : report array;
  cpi : Stats.Summary.stratified;  (** the combined estimator *)
  ipc : Stats.Summary.stratified;
      (** delta-method transform of [cpi]: mean 1/m, variance v/m^4,
          half-width ci/m^2, same effective df *)
}

val total_replicas : t -> int
val strata : t -> int

val cv_sample : Config.Machine.t -> Trace.t -> float
(** One replica's control-variate observation: the trace's pre-assigned
    cache / TLB miss and branch-disruption flags, each weighted by the
    machine's nominal cost (L2 hit latency, memory latency, TLB walk,
    mispredict restart, redirect bubble), per instruction — CPI units.
    Computed over the trace's own flags (the raw threshold draws), not
    the pipeline's counters, which is what makes the expectation
    exactly computable. *)

val cv_expectation : Config.Machine.t -> Kernel.Plan.t -> float
(** The exact expectation of {!cv_sample} under the compiled plan: the
    walk visits node i exactly [node_occ.(i)] times, every slot draws
    the I-side flags, load slots the D-side flags (L2 conditional on
    L1), and each branch slot classifies its outcome with one 32-bit
    draw — so mu_X is a finite sum over the plan's fixed-point
    thresholds (the closed-form steady-state expectation of the reduced
    chain). *)

exception Budget_too_small of string
(** Raised by {!run} when the replica budget cannot seat [pilot]
    replicas in every stratum. Unlike the other argument checks this
    one depends on the data — the BIC-selected stratum count is only
    known once the SFG is partitioned — so callers taking the budget
    from a user convert it into a request error. *)

val run :
  ?jobs:int ->
  ?check:(unit -> unit) ->
  target_length:int ->
  ?strata:int ->
  ?pilot:int ->
  ?control_variate:bool ->
  ?ci_target:float ->
  Config.Machine.t ->
  Profile.Stat_profile.t ->
  steady_state:(reduction:int -> float) ->
  master_seed:int ->
  replicas:int ->
  t
(** Stratified run with a budget of [replicas], totalled across strata:
    [pilot] (default 3) replicas per stratum, the rest by Neyman
    allocation on the pilot variances.  Each stratum's trace is sized
    to [target_length].  [strata] forces an exact k; by default
    {!Simpoint.classify_nodes} picks up to 4 by BIC, from k-means seed
    1.  [check] is the cooperative cancellation hook, as in
    {!Replicate.run}.  Raises {!Budget_too_small} when
    [replicas < pilot * strata].

    [steady_state ~reduction] is the profile's
    {!Analytical.Steady_state} IPC on [cfg] at the run's resolved
    reduction, reported as [analytical_ipc]; it is called once. A
    caller that memoises the solve ({!Runner.Cache.estimate}) answers
    it without re-solving per run.

    With [ci_target] the budget grows from the pilot round
    ([pilot * strata]) by {!Replicate.adaptive}: it doubles until the
    combined 95% half-width closes to [ci_target] percent of the mean,
    stopping at [replicas].  Beta and the Neyman shares are frozen on
    the pilot, so each growth step only extends per-stratum seed
    prefixes and a converged run equals [run ~replicas:n] for the same
    parameters. *)

val to_json : t -> Telemetry.Json.t
(** Stable key order; byte-identical across [jobs] values. The
    ["streamed"] key is always [false], as in {!Replicate.to_json}. *)

val render_text : Format.formatter -> t -> unit
