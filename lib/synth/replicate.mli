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
    value. *)

type stat = { mean : float; stddev : float; ci95 : float }
(** [stddev] is the sample (n-1) standard deviation; [ci95] the
    half-width of the 95% confidence interval of the mean. *)

type t = {
  master_seed : int;
  streamed : bool;  (** replicas ran through {!Run.run_stream} *)
  reduction : int option;
  target_length : int option;
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

val run :
  ?jobs:int ->
  ?stream:bool ->
  ?check:(unit -> unit) ->
  ?wrong_path_locality:bool ->
  ?reduction:int ->
  ?target_length:int ->
  Config.Machine.t ->
  Profile.Stat_profile.t ->
  master_seed:int ->
  replicas:int ->
  t
(** Simulate [replicas] independent seeds and aggregate. [stream]
    selects the constant-memory {!Run.run_stream} path (default
    materializes each trace). The profile is lowered to a
    {!Kernel.Plan.t} once and shared — immutably, so domain-safe — by
    all replicas. [jobs] only distributes the work; it never changes
    the result.

    [check] is the cooperative cancellation point: it runs at every
    replica boundary, on whichever domain executes that replica, before
    the replica's simulation starts. Raising from it aborts the whole
    replication with that exception (the server's deadline and
    client-disconnect hook); the default does nothing. *)

val run_ci :
  ?jobs:int ->
  ?stream:bool ->
  ?check:(unit -> unit) ->
  ?wrong_path_locality:bool ->
  ?reduction:int ->
  ?target_length:int ->
  ?min_replicas:int ->
  ?max_replicas:int ->
  Config.Machine.t ->
  Profile.Stat_profile.t ->
  master_seed:int ->
  ci_target:float ->
  t
(** Adaptive replication: starting from [min_replicas] (default 4),
    double the replica count until the IPC confidence half-width is at
    most [ci_target] percent of the mean IPC, or [max_replicas]
    (default 64) is reached. Seeds come from one
    [split_seeds ~n:max_replicas] table, so a converged run's report
    equals [run ~replicas:n] for the same master seed. *)

val to_json : t -> Telemetry.Json.t
(** Stable key order; byte-identical across [jobs] values. *)

val render_text : Format.formatter -> t -> unit
