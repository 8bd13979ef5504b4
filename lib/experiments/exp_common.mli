(** Shared experiment infrastructure: workload iteration, stream sizing
    (scaled by the [REPRO_SCALE] environment variable), and the cached
    simulation primitives experiment jobs are built from.

    The paper profiles 100M-instruction SimPoint samples; this
    reproduction defaults to 300k-instruction reference streams and
    ~40k-instruction synthetic traces, which Section 4.1's convergence
    argument shows is inside the converged regime for the scaled-down
    workloads. Set [REPRO_SCALE=4] (etc.) to multiply every stream. *)

val scale : float
(** Parsed once from [REPRO_SCALE]; defaults to 1.0. *)

val ref_length : int
(** Reference (EDS / profiling) stream length. *)

val syn_length : int
(** Synthetic trace target length. *)

val benches : Workload.Spec.t list
(** The ten SPECint stand-ins, or the subset named in [REPRO_BENCHES]
    (comma-separated). *)

val stream : ?seed_offset:int -> ?length:int -> Workload.Spec.t -> unit -> Isa.Dyn_inst.t option
(** Fresh reference stream for a workload at the experiment scale. *)

val seed : int
(** Base synthetic-generation seed (deterministic). *)

val phased_stream :
  Workload.Spec.t ->
  phases:int ->
  length:int ->
  unit ->
  Isa.Dyn_inst.t option
(** A long execution with [phases] distinct program phases: each phase
    runs the same program from its entry under a different data-behaviour
    seed, so hot paths, branch biases and footprints shift between
    phases — the setting of the paper's Section 4.4. *)

(** {1 Stream sources}

    A [src] names an instruction stream by content — suite, workload,
    seed offset, length, phasing. It is what experiment jobs carry: it
    keys the run-wide memo cache and rebuilds a fresh generator on
    whichever domain executes the job. *)

type src

val src : ?seed_offset:int -> ?length:int -> Workload.Spec.t -> src
(** A {!Workload.Suite} (SPECint stand-in) stream; defaults to
    [seed_offset = 0] and [length = ref_length]. *)

val fp_src : ?length:int -> Workload.Spec.t -> src
(** A {!Workload.Suite_fp} stream. *)

val phased_src : Workload.Spec.t -> phases:int -> length:int -> src
(** A {!phased_stream}. *)

val src_gen : src -> unit -> Isa.Dyn_inst.t option

(** {1 Cached simulation primitives}

    Memoized via {!Runner.Cache}: a given (stream, config, options)
    reference or profile is computed once per harness run and shared
    across jobs and experiments. *)

val reference :
  Runner.Cache.t ->
  ?max_instructions:int ->
  ?perfect_caches:bool ->
  ?perfect_bpred:bool ->
  Config.Machine.t ->
  src ->
  Statsim.result

val profile :
  Runner.Cache.t ->
  ?k:int ->
  ?dep_cap:int ->
  ?branch_mode:Profile.Branch_profiler.mode ->
  ?perfect_caches:bool ->
  ?perfect_bpred:bool ->
  Config.Machine.t ->
  src ->
  Profile.Stat_profile.t

val synthetic :
  Runner.Cache.t ->
  ?reduction:int ->
  ?target_length:int ->
  Config.Machine.t ->
  Profile.Stat_profile.t ->
  seed:int ->
  Statsim.result
(** Plan-cached synthetic simulation: compile (or fetch) the profile's
    execution plan via {!Runner.Cache.plan}, then run it on [cfg].
    Because plans are machine-independent, a config sweep over one
    profile compiles exactly once. Defaults to
    [target_length = syn_length] when neither sizing argument is
    given; results are bit-identical to {!Statsim.run_profile}. *)

val pct : float -> float
(** ratio -> percent *)
