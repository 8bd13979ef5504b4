(** First-order analytical performance model, in the spirit of the
    analytical approaches the paper cites as the other fast-estimation
    family (Noonburg & Shen; Sorin et al.; later formalized by
    Karkhanis & Smith's interval model).

    The model consumes the same statistical profile as the synthetic
    trace generator but computes IPC in closed form instead of
    simulating: a base CPI from issue width and the dependency-distance
    distribution, plus independent penalty terms for branch
    mispredictions and memory events, each weighted by its per-
    instruction probability and partially overlapped according to the
    window size. No trace, no pipeline — microseconds per design point.

    It exists as a *baseline*: Section 5 of the paper argues such models
    either stay first-order (fast, crude) or blow up in state space;
    the [analytical] experiment quantifies where it loses against
    statistical simulation. *)

type breakdown = Model.breakdown = {
  base_cpi : float;  (** width + dataflow component *)
  branch_cpi : float;  (** misprediction and redirect stalls *)
  imem_cpi : float;  (** instruction-fetch miss stalls *)
  dmem_cpi : float;  (** load miss stalls after overlap *)
  total_cpi : float;
}

val predict : Config.Machine.t -> Profile.Stat_profile.t -> breakdown
(** Raises [Invalid_argument] on an empty profile. *)

val ipc : Config.Machine.t -> Profile.Stat_profile.t -> float

val pp_breakdown : Format.formatter -> breakdown -> unit

(** Closed-form stationary analysis of the reduced SFG (PR 10): solve
    [pi P = pi, sum pi = 1] for the generator's Markov chain over
    surviving nodes — Gaussian elimination with partial pivoting, with
    a damped power-iteration fallback — and weight the profiled
    statistics by the stationary vector for a zero-simulation IPC/mix
    estimate.  Also the control variate feeding [Synth.Stratify]. *)
module Steady_state : sig
  type method_ = Direct | Power

  type solution = {
    pi : float array;  (** stationary distribution; sums to 1 *)
    solved_by : method_;
    iterations : int;  (** 0 when solved directly *)
    residual : float;  (** [max_j |(pi P)_j - pi_j|] *)
  }

  type rows = (int * float) array array
  (** Sparse row-stochastic matrix: [rows.(i)] lists
      [(successor, probability)] pairs. *)

  type graph = {
    keys : int array;  (** surviving SFG node keys, ascending *)
    occ : int array;  (** reduced occurrences ([occurrences / R]) *)
    rows : rows;
    dead_ends : int;  (** rows rewritten to the restart distribution *)
  }

  val of_sfg : ?reduction:int -> Profile.Sfg.t -> graph
  (** Transition structure of the reduced SFG ({!Profile.Sfg.reduce},
      the graph the kernel plan compiles): survivors in key order,
      edges into dropped nodes dropped, and dead-end rows become the
      generator's restart distribution (reduced occurrences).
      Every other row is mixed with the restart distribution at weight
      0.01 — the generator's occupancy-budget renormalisation acts as
      a global restart, and the mixture makes the chain irreducible so
      the stationary vector is unique. Raises [Invalid_argument] when
      reduction empties the graph. *)

  val solve : graph -> solution
  (** Stationary vector of [g.rows], seeded from the reduced-occurrence
      distribution.  Direct elimination is attempted up to 1024 nodes
      and must pass a residual check; otherwise the damped power
      iteration runs with its default guard. *)

  val solve_direct : rows -> float array option
  (** Gaussian elimination with partial pivoting over
      [(P - I)^T x = 0] plus the normalisation row; [None] when the
      system is singular (several recurrent classes) or the solution is
      non-finite / negative. *)

  val power_iteration :
    ?tol:float -> ?init:float array -> rows -> float array * int * float
  (** Damped power iteration [pi <- (pi + pi P) / 2] (same fixed point,
      aperiodic by construction), until no entry moves by more than
      [tol] (default 1e-12) or 50,000 iterations. Returns
      (pi, iterations, residual). *)

  val rows_of_dense : float array array -> rows
  val stationary_dense : float array array -> solution

  type estimate = {
    nodes : int;
    dead_ends : int;
    solution : solution;
    mix : (Isa.Iclass.t * float) list;
        (** stationary instruction-class mix; all 12 classes, sums to 1 *)
    breakdown : breakdown;
    ipc : float;
  }

  val estimate :
    ?reduction:int ->
    Config.Machine.t ->
    Profile.Stat_profile.t ->
    estimate
  (** Zero-simulation first-order estimate: stationary node visit
      frequencies weight each node's profiled statistics
      ([pi_i / occurrences_i]), which feed the same closed-form CPI
      arithmetic as {!predict}. *)
end
