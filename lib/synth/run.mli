(** Convenience runner: simulate a synthetic trace on the shared pipeline
    core (Figure 1, step 3). *)

val run :
  ?wrong_path_locality:bool ->
  ?skip_idle:bool ->
  Config.Machine.t ->
  Trace.t ->
  Uarch.Metrics.t
(** [skip_idle] is forwarded to {!Uarch.Pipeline.Make.run} (default
    [true], the event-driven loop); [~skip_idle:false] forces the dense
    cycle-by-cycle loop, for equivalence testing. *)

val run_stream :
  ?wrong_path_locality:bool ->
  ?window:int ->
  ?reduction:int ->
  ?target_length:int ->
  Config.Machine.t ->
  Profile.Stat_profile.t ->
  seed:int ->
  Uarch.Metrics.t
(** Fused generate-and-simulate: walk the reduced SFG and stream the
    instructions straight into the pipeline through {!Stream_feed},
    in memory proportional to the feed window rather than the trace
    length. Bit-identical to
    [run cfg (Generate.generate ... ~seed)] for equal arguments. *)

val run_stream_of_plan :
  ?wrong_path_locality:bool ->
  ?window:int ->
  Config.Machine.t ->
  Kernel.Plan.t ->
  seed:int ->
  Uarch.Metrics.t
(** {!run_stream} over an already-compiled plan, skipping compilation —
    for cached plans and replicas sharing one plan. *)

val mean_ipc : Uarch.Metrics.t list -> float
(** Instruction-weighted mean IPC across traces (used when several
    synthetic traces model the phases of one long execution,
    Section 4.4). *)
