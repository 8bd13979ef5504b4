(** The DSE job planner and report layer.

    [run] expands a {!Sweep} into its canonically ordered design points
    and evaluates every point against {b one} statistical profile and
    {b one} compiled execution plan: both are invariant across the
    sweep's microarchitectural axes, so they are drawn from the shared
    {!Runner.Cache} (memo tier, then the content-addressed store — a
    warm store makes a whole sweep resumable without recollecting
    anything) and the driver {e fails} if the cache reports more than
    one actual collection or compilation. Replica traces are generated
    once from the plan (deterministic seed split) and shared read-only
    by every point; points fan out over the {!Parallel} Domain pool.

    Determinism: points are evaluated independently and aggregated in
    sweep order with per-replica seeds fixed up front, so the result —
    and every rendering of it — is byte-identical at any [jobs] value
    and across cold/warm store runs.

    Telemetry: the [dse.sweep] span, [dse.points] (points evaluated)
    and [dse.store_reuse] (profile/plan lookups answered by a cache
    tier instead of computed) counters. *)

type stat = { mean : float; ci95 : float }
(** Across replicas; [ci95 = 0.] when [replicas = 1]. *)

type point_result = {
  point : Sweep.point;
  label : string;
  ipc : stat;
  epc : float;  (** mean energy per cycle across replicas *)
  edp : stat;
  on_frontier : bool;
}

type t = {
  sweep_name : string;
  axes : string list;  (** swept axis names, document order *)
  bench : string;
  replicas : int;
  seed : int;
  points : point_result array;  (** canonical sweep order *)
  frontier_count : int;
}

val run :
  cache:Runner.Cache.t ->
  ?jobs:int ->
  ?replicas:int ->
  ?max_points:int ->
  ?base:Config.Machine.t ->
  ?length:int ->
  ?target_length:int ->
  sweep:Sweep.t ->
  bench:Workload.Spec.t ->
  seed:int ->
  unit ->
  (t, string) result
(** Defaults: [jobs = 1], [replicas = 1], [base = baseline],
    [length = 300_000] (profiling stream), [target_length = 40_000]
    (synthetic trace). [Error] reproduces {!Sweep.expand} failures
    (oversize sweep, zip mismatch) and a [target_length] whose
    reduction factor empties the profile's graph
    ({!Kernel.Compile.check_survivors}). Raises [Failure] if the shared
    cache reports more than one profile collection or plan compilation
    for the sweep — the invariant the whole driver exists to exploit. *)

val frontier : t -> point_result list
(** Frontier points sorted by descending IPC (stable: sweep order
    breaks ties). *)

val to_report : t -> Runner.Report.t
(** The full report: a header line, the per-point table (IPC/EPC/EDP
    with CI half-widths and a frontier marker), and the frontier table.
    Render with {!Runner.Report.render}; all three formats are
    deterministic. *)

val pareto_report : t -> Runner.Report.t
(** Frontier table only — [Runner.Report.to_csv] of this is the Pareto
    CSV artifact. *)
