(** Multi-seed replication of a synthetic-trace simulation.

    One SFG walk is a single Monte-Carlo sample, so a design decision
    read off one seed carries unquantified sampling noise. This engine
    runs N independent replicas — seeds split deterministically from one
    master seed — and reports mean, sample standard deviation and the
    95% confidence interval of the mean (Student t) for IPC and for each
    of the six dispatch-stall-cause cycle fractions.

    Replicas run on the shared {!Parallel} Domain pool. Seeds are
    computed up front and results aggregated in seed order, so the
    report (and its JSON rendering) is byte-identical for any [jobs]
    value. Every replica walks one caller-supplied compiled plan, so a
    request that holds a memoised plan pays only for its replicas. *)

type stat = { mean : float; stddev : float; ci95 : float }
(** [stddev] is the sample (n-1) standard deviation; [ci95] the
    half-width of the 95% confidence interval of the mean. *)

type t = {
  master_seed : int;
  seeds : int array;  (** per-replica seeds, in run order *)
  metrics : Uarch.Metrics.t array;  (** per-replica raw metrics *)
  ipc : stat;
  stall_fractions : (string * stat) list;
      (** per stall cause, the fraction of all cycles charged to it,
          in {!Uarch.Metrics.stall_causes} order *)
}

val replicas : t -> int

val split_seeds : master_seed:int -> n:int -> int array
(** [n] pairwise-distinct 31-bit seeds drawn from a {!Prng} stream
    seeded with [master_seed]. Deterministic, and prefix-stable: the
    first [k] seeds of [split_seeds ~n] equal [split_seeds ~n:k].
    Raises [Invalid_argument] when [n < 1]. *)

val max_replicas : int
(** 64: the most replicas a request may ask for, and the count an
    adaptive {!run} stops growing at. *)

val run :
  ?jobs:int ->
  ?check:(unit -> unit) ->
  ?ci_target:float ->
  Config.Machine.t ->
  Kernel.Plan.t ->
  master_seed:int ->
  replicas:int ->
  t
(** Simulate [replicas] independent seeds of the compiled plan and
    aggregate: each replica generates its trace from the plan and runs
    it. Every replica walks the one plan, which is immutable and so
    domain-safe; nothing is compiled here, so a caller holding a
    memoised plan ({!Runner.Cache.plan}) pays only for the replicas.
    [jobs] only distributes the work; it never changes the result.

    With [ci_target], [replicas] (at least 2) is the first round: the
    count doubles until the IPC confidence half-width is at most
    [ci_target] percent of the mean IPC, or {!max_replicas} is
    reached. Growth only extends the seed table, so a converged run's
    report equals [run ~replicas:n] for the same master seed.

    [check] is the cooperative cancellation point: it runs at every
    replica boundary, on whichever domain executes that replica, before
    the replica's simulation starts. Raising from it aborts the whole
    replication with that exception (the server's deadline and
    client-disconnect hook); the default does nothing. *)

(** {2 The replication loop}

    Both replication engines — this one, with one stratum, and
    {!Stratify} — grow their samples through these two functions. *)

val grow :
  jobs:int ->
  (int -> int -> 'a) ->
  seeds:int array array ->
  'a array array ->
  want:int array ->
  'a array array
(** [grow ~jobs run ~seeds samples ~want] extends stratum [h]'s samples
    from [Array.length samples.(h)] to [want.(h)]: sample [i] of stratum
    [h] is [run h seeds.(h).(i)]. Every missing sample runs in one
    {!Parallel.map}, stratum-major in seed order, so the result is the
    same for any [jobs]. Raises [Invalid_argument] when the three
    arrays disagree on the stratum count, or a [want.(h)] is below the
    samples stratum [h] has or beyond its seed table. *)

val adaptive :
  ?ci_target:float ->
  start:int ->
  cap:int ->
  ci:('a -> float * float) ->
  (int -> 'a) ->
  'a
(** [adaptive ?ci_target ~start ~cap ~ci result] is [result cap] without
    [ci_target]. With it, [result n] for [n] = [start], [2 start], …
    (the last step capped at [cap]) until [ci r] = [(mean, half)] has a
    finite 95% half-width [half] of at most [ci_target] percent of
    [mean], or [n] reaches [cap]. [result] is called with increasing
    totals. With [ci_target], raises [Invalid_argument] when
    [start < 1]. *)

val to_json : t -> Telemetry.Json.t
(** Stable key order; byte-identical across [jobs] values. The
    ["streamed"] key is always [false]: replicas materialize their
    traces, and the key stays for readers of the report. *)

val render_text : Format.formatter -> t -> unit
