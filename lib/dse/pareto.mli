(** CI-aware 2-D Pareto dominance over (IPC maximized, EDP minimized).

    A synthetic-simulation estimate is a Monte-Carlo sample; its 95%
    confidence half-width is part of the value. Dominance therefore
    requires statistical separation: point [a] dominates point [b] only
    when [a] is {e significantly} better in at least one objective —
    the confidence intervals must not overlap — and not significantly
    worse in the other. Two points whose intervals overlap in every
    objective are indistinguishable at this replica budget and both
    survive to the frontier, which is exactly the Two-Phase-Stratified
    -Sampling argument: without CI-aware dominance, sampling noise
    manufactures fake design-space winners.

    With zero-width intervals (a single replica) the rule reduces to
    classical weak Pareto dominance with at least one strict
    inequality, which is a strict partial order — so the frontier is
    the set of maximal points, every non-frontier point is dominated by
    some frontier point, and frontier points are mutually
    non-dominating (the property the test suite checks). *)

type objective = { value : float; ci : float }
(** A point estimate with its 95% confidence half-width ([ci = 0.] for
    a single replica). *)

type point = { ipc : objective; edp : objective }

val dominates : point -> point -> bool
(** [dominates a b]: [a] significantly better on IPC (higher) or EDP
    (lower), and not significantly worse on the other. *)

val frontier_flags : point array -> bool array
(** [flags.(i)] is true iff no other point dominates point [i]. Indices
    with identical coordinates are all kept (neither dominates). *)
