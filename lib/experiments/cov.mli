(** Section 4.1: convergence of statistical simulation. The coefficient
    of variation of IPC across synthetic traces generated with different
    random seeds, as a function of synthetic trace length. The paper
    reports ~4% at 100K, 2% at 200K, 1.5% at 500K, 1% at 1M synthetic
    instructions (for 100M-instruction profiles); lengths here are
    proportionally scaled. *)

val lengths : int list

type row = { bench : string; cov : float array (** percent, per length *) }

val plan : Runner.Plan.t
