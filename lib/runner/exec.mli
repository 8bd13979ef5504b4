(** Plan execution: a shared memo cache plus a Domain worker pool.

    One [ctx] per harness run — the cache then amortizes EDS references
    and statistical profiles across every experiment executed with it. *)

type ctx = { cache : Cache.t; jobs : int }

val create_ctx : ?jobs:int -> ?cache_dir:string -> unit -> ctx
(** [jobs] defaults to [REPRO_JOBS] (see {!Parallel.default_jobs}); it is
    clamped to at least 1. [cache_dir] defaults to [REPRO_CACHE_DIR];
    when set (either way), the memo cache is backed by a persistent
    {!Store} rooted there, so profiles and EDS references are shared
    across processes. *)

val run : ?label:string -> ctx -> Plan.t -> Report.t
(** Execute the plan's jobs on the pool ([ctx.jobs] workers, serial when
    1) and reduce the index-ordered results. Identical rows for any
    worker count. When {!Telemetry.set_capture} is on, each job is
    additionally recorded as a trace event named ["<label>.job<i>"]
    (default label ["plan"]) so the Chrome-trace export shows one slice
    per job on its worker domain's track. *)
