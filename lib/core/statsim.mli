(** Statistical simulation for processor design studies — the public API.

    This library reproduces the methodology of Eeckhout, Bell, Stougie,
    De Bosschere & John, "Control Flow Modeling in Statistical Simulation
    for Accurate and Efficient Processor Design Studies" (ISCA 2004).

    The workflow mirrors the paper's Figure 1:

    + {b profile} a program execution into a statistical flow graph
      (SFG) of order [k] with dependency, branch and cache
      characteristics ({!profile});
    + {b generate} a synthetic trace a factor R shorter than the
      original execution ({!synthesize});
    + {b simulate} the synthetic trace on a trace-driven out-of-order
      pipeline that needs neither caches nor predictors ({!simulate}).

    {!run} chains the three steps; {!reference} runs the slow
    execution-driven simulator the paper validates against. Both report
    IPC, power (EPC via the Wattch-style model) and the derived
    energy-delay product, so absolute and relative accuracy studies
    (paper Sections 4.2 and 4.5) are one function call each.

    {[
      let spec = Workload.Suite.find "gcc" in
      let stream () = Workload.Suite.stream spec ~length:500_000 in
      let cfg = Config.Machine.baseline in
      let eds = Statsim.reference cfg (stream ()) in
      let ss = Statsim.run cfg (stream ()) ~seed:42 in
      Printf.printf "IPC error: %.1f%%\n"
        (100. *. Stats.Summary.absolute_error
           ~reference:eds.ipc ~predicted:ss.ipc)
    ]} *)

type result = {
  ipc : float;
  epc : float;  (** energy per cycle, Wattch-style model *)
  edp : float;  (** energy-delay product, EPC / IPC^2 *)
  metrics : Uarch.Metrics.t;  (** full pipeline statistics *)
}

val result_of_metrics : Config.Machine.t -> Uarch.Metrics.t -> result

val profile :
  ?k:int ->
  ?dep_cap:int ->
  ?branch_mode:Profile.Branch_profiler.mode ->
  ?perfect_caches:bool ->
  ?perfect_bpred:bool ->
  Config.Machine.t ->
  (unit -> Isa.Dyn_inst.t option) ->
  Profile.Stat_profile.t
(** Step 1. Defaults: [k = 1], delayed-update branch profiling with a
    FIFO sized to the IFQ, dependency distances capped at 512. *)

val compile_plan :
  ?reduction:int ->
  ?target_length:int ->
  Profile.Stat_profile.t ->
  Kernel.Plan.t
(** Lower a profile into a compiled execution plan: flat arrays, alias
    samplers and fixed-point rate thresholds (see {!Kernel.Compile}).
    Plans are immutable, shareable across machine configs and domains,
    and are what every generation entry point below executes. *)

val synthesize :
  ?reduction:int ->
  ?target_length:int ->
  Profile.Stat_profile.t ->
  seed:int ->
  Synth.Trace.t
(** Step 2. *)

val simulate : Config.Machine.t -> Synth.Trace.t -> result
(** Step 3. *)

val run :
  ?k:int ->
  ?dep_cap:int ->
  ?branch_mode:Profile.Branch_profiler.mode ->
  ?perfect_caches:bool ->
  ?perfect_bpred:bool ->
  ?reduction:int ->
  ?target_length:int ->
  Config.Machine.t ->
  (unit -> Isa.Dyn_inst.t option) ->
  seed:int ->
  result
(** The full statistical-simulation pipeline on one stream. *)

val run_profile :
  ?reduction:int ->
  ?target_length:int ->
  Config.Machine.t ->
  Profile.Stat_profile.t ->
  seed:int ->
  result
(** Steps 2+3 on an existing profile — what a design-space exploration
    does: one profile, many synthetic simulations. Note that the profile
    carries the branch/cache characteristics of the configuration it was
    collected with; re-profile when the predictor or the caches change
    (the paper makes the same caveat in Section 4.4). *)

val run_plan : Config.Machine.t -> Kernel.Plan.t -> seed:int -> result
(** Steps 2+3 from an already-compiled plan: generate the trace with
    {!Synth.Generate.generate_of_plan}, then {!simulate} it. The entry
    point for cached plans, skipping compilation; bit-identical to
    {!run_profile} at the plan's baked-in reduction. Replication over
    many seeds, for a fixed count or to a CI target, is
    {!Synth.Replicate.run}. *)

val reference :
  ?max_instructions:int ->
  ?perfect_caches:bool ->
  ?perfect_bpred:bool ->
  Config.Machine.t ->
  (unit -> Isa.Dyn_inst.t option) ->
  result
(** Execution-driven simulation (the validation reference). *)
