(** The request dispatcher: every server op, executable in-process.

    Each op renders its human-readable report into the reply's
    ["output"] field — the CLI's [simulate], [estimate], [diag],
    [experiment] and [dse] subcommands call {!dispatch} themselves and
    print ["output"] verbatim, so a server reply is byte-identical to
    the one-shot CLI's stdout by construction, not by parallel
    maintenance of two code paths.

    All heavy artifacts flow through the {!env}'s shared
    {!Runner.Cache}: SFG profiles, compiled {!Kernel.Plan}s, analytical
    estimates and EDS references are single-flight memoized, so N
    concurrent [simulate] requests against a cold cache still collect
    one profile and compile one plan ([profile_computes = 1],
    [plan_computes = 1]). Replication walks the memoised plan, and a
    stratified run reports the memoised estimate, so a warm replication
    request pays only for its replicas. *)

exception Cancelled
(** Raised by an {!env}'s [check] when the client vanished. *)

exception Deadline_exceeded
(** Raised by an {!env}'s [check] when the request's deadline passed. *)

type env = {
  cache : Runner.Cache.t;  (** process-wide hot cache, shared by all *)
  jobs : int;  (** Domain fan-out inside one request *)
  check : unit -> unit;
      (** cooperative cancellation point: called between pipeline
          stages and at every replica boundary (threaded into
          {!Synth.Replicate.run}); raise to abort the request *)
  trace : Telemetry.Trace.t option;
      (** request-scoped span tree, created by the daemon at frame
          decode (or by {!dispatch} itself for a ["trace": true]
          param); [None] = untraced, and every stage span is a no-op *)
}

val default_env :
  ?jobs:int -> ?cache_dir:string -> ?check:(unit -> unit) -> unit -> env
(** Like {!Runner.Exec.create_ctx}: [jobs] defaults to [REPRO_JOBS],
    [cache_dir] to [REPRO_CACHE_DIR] (when set either way, the cache is
    backed by the persistent store). [check] defaults to a no-op (the
    CLI's one-shot environment). *)

val op_names : string list
(** ["ping"; "cache-stats"; "simulate"; "replicate"; "estimate";
    "diag"; "experiment"; "dse"; "sleep"; "telemetry"; "metrics"].

    [simulate]/[replicate] accept stratified-replication params
    ([stratify], [control_variate], [strata], [pilot]) that route
    replication-mode requests through {!Synth.Stratify}; [estimate] is
    the zero-simulation {!Analytical.estimate} instant answer over the
    reduced graph's visit counts (structured reply in its ["estimate"]
    field: [nodes], [mix], [cpi] and [ipc]; cached through
    {!Runner.Cache.estimate}).

    After its tables, [experiment] adds per workload of
    {!Experiments.Exp_common.benches} a {!Diag} report with
    ["diag": true] and a {!Synth.Replicate} report with
    ["replicas": n] (n >= 1). [dse] adds the Pareto frontier CSV
    ({!Dse.Driver.pareto_report}), the CLI's [--pareto-out] file, as a
    ["pareto_csv"] string member. *)

val dispatch :
  env -> op:string -> Telemetry.Json.t -> (Telemetry.Json.t, string) result
(** Run one op. [Ok] carries the result object — ["output"] holds the
    CLI-identical report text; ops may add structured fields
    (["warnings"], diag's ["check_ok"]/["check_message"],
    [cache-stats]' counters). [Error] is a client mistake (unknown op,
    unknown workload, bad params) to be mapped to a [bad_request]
    reply. Exceptions (including {!Cancelled}/{!Deadline_exceeded}
    raised from [env.check]) propagate to the caller.

    Tracing: when [env.trace] is set, or the request params carry
    [{"trace": true}], per-stage spans (cache lookups,
    profile/plan/reference compute, run, render) are recorded under the
    request's span tree, the cooperative [check] ticks a ["check"] mark
    per visit (one per replica boundary), and the finished tree is
    appended to the [Ok] result object as a ["trace"] field — untraced
    replies carry no extra field and stay byte-identical to the CLI.

    The [telemetry] op returns the live process registry
    ({!Telemetry.render_json} as ["output"], the snapshot object as
    ["telemetry"]); the [metrics] op returns the serve observability
    plane ({!Obs.metrics_json}, or Prometheus text with
    [{"format": "prometheus"}]). *)

val output : Telemetry.Json.t -> string
(** The ["output"] field of a result object, or [""]. *)

val warnings : Telemetry.Json.t -> string list
(** The ["warnings"] field of a result object (stderr lines in the
    one-shot CLI), or []. *)
