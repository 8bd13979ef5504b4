(** The design-point engine, the DSE job planner and its report layer.

    [evaluate] is the engine: it runs a list of machines on one
    workload's synthetic traces. It groups the machines by
    {!Config.Machine.profiled}: profiling reads the caches, TLBs,
    predictor, fetch queue and issue order, so the machines of a
    group share {b one} statistical profile and {b one} compiled
    execution plan, and machines that differ only in the window, widths
    or latencies form exactly one group. Each group's plan is drawn
    from the shared {!Runner.Cache} through
    {!Runner.Cache.profile_plan} (memo tier, then the content-addressed
    store — a warm store answers without collecting or decoding a
    profile), which fails if the call collects or compiles more than
    once. One trace per seed is generated per group from its plan and
    shared read-only by the group's machines; machines fan out over the
    {!Parallel} Domain pool. [statsim dse], the daemon's [dse] op,
    Table 4 and the Section 4.6 experiment all evaluate through it.

    [run] is the sweep layer above it: it expands a {!Sweep} into its
    canonically ordered design points, validates them, splits the
    master seed into replica seeds, and reduces each point's replicas
    to means, CIs and a Pareto frontier.

    Determinism: machines are evaluated independently and aggregated in
    input order with per-replica seeds fixed up front, so the result —
    and every rendering of it — is byte-identical at any [jobs] value
    and across cold/warm store runs.

    Telemetry: the [dse.sweep] span (one per [run]), [dse.points]
    (machines evaluated) and [dse.store_reuse] (profile groups prepared
    without collecting a profile) counters. *)

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

val evaluate :
  cache:Runner.Cache.t ->
  jobs:int ->
  ?check:(unit -> unit) ->
  length:int ->
  target_length:int ->
  bench:Workload.Spec.t ->
  seeds:int array ->
  Config.Machine.t array ->
  (Statsim.result array array, string) result
(** [evaluate ~cache ~length ~target_length ~bench ~seeds machines] is,
    for each machine in order, its result on each seed's trace, in
    seed order. Equal machines run once: every index naming one shares
    its results. The profile is collected from [bench]'s
    [length]-instruction stream at the machine's profile configuration,
    and each trace is generated from that profile's plan at
    [target_length]. Each result equals
    [Statsim.run_profile ~target_length cfg p ~seed] on that profile.
    Machines run on [jobs] domains. [check] is the cooperative
    cancellation hook (default a no-op), called before each profile
    group is prepared and before each distinct machine is evaluated, on
    whichever domain evaluates it; whatever it raises propagates. [Error] is
    {!Kernel.Compile.check_survivors}' message when [target_length]'s
    reduction empties a group's profile. *)

val run :
  cache:Runner.Cache.t ->
  ?jobs:int ->
  ?check:(unit -> unit) ->
  ?replicas:int ->
  ?max_points:int ->
  ?length:int ->
  ?target_length:int ->
  sweep:Sweep.t ->
  bench:Workload.Spec.t ->
  seed:int ->
  unit ->
  (t, string) result
(** The sweep's points applied to {!Config.Machine.baseline}, evaluated
    over [replicas] seeds split from [seed]
    ({!Synth.Replicate.split_seeds}). Defaults: [jobs = 1],
    [replicas = 1], [length = 300_000] (profiling stream),
    [target_length = 40_000] (synthetic trace); [check] as in
    {!evaluate}. [Error] reproduces {!Sweep.expand} failures (oversize
    sweep, zip mismatch), names the first point
    {!Config.Machine.validate} rejects (before any profile is
    collected), and passes on {!evaluate}'s. *)

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
