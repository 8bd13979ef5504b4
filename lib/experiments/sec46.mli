(** Section 4.6: design space exploration (registry id [dse]).
    Statistical simulation, on the design-point engine
    {!Dse.Driver.evaluate}, evaluates the energy-delay product of every
    design point in a grid over RUU size, LSQ size and
    decode/issue/commit widths, identifies
    the EDP-optimal point, and execution-driven simulation then checks
    the points statistical simulation ranked within 3% of that optimum.
    The paper finds the true optimum inside that region for 7/10
    benchmarks and within ~1% for the rest. *)

val grid : unit -> Config.Machine.t list
(** The paper's grid: RUU in 8..128, LSQ in 4..64 (capped at the RUU
    size), decode/issue/commit widths in 2..8 — 2,368 points. *)

type row = {
  bench : string;
  points : int;
  ss_best_edp : float;
  candidates : int;  (** points within 3% of the SS optimum *)
  eds_best_gap : float;
      (** EDP gap (percent) between the EDS-best candidate and the
          EDS value at the SS-chosen optimum — 0 when SS picked the
          EDS-best of the candidate region *)
}

val plan : Runner.Plan.t
