(** Convenience runner: simulate a synthetic trace on the shared pipeline
    core (Figure 1, step 3), through {!Synth_feed}. *)

val run :
  ?wrong_path_locality:bool ->
  ?skip_idle:bool ->
  Config.Machine.t ->
  Trace.t ->
  Uarch.Metrics.t
(** [skip_idle] is forwarded to {!Uarch.Pipeline.Make.run} (default
    [true], the event-driven loop); [~skip_idle:false] forces the dense
    cycle-by-cycle loop, for equivalence testing. *)

val mean_ipc : Uarch.Metrics.t list -> float
(** Instruction-weighted mean IPC across traces (used when several
    synthetic traces model the phases of one long execution,
    Section 4.4). *)
