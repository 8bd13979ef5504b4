(** Convenience runner: simulate a synthetic trace on the one compiled
    pipeline core (Figure 1, step 3), {!Uarch.Pipeline.run}, which reads
    the trace's packed words inline through {!Uarch.Trace_feed}. *)

val run :
  ?wrong_path_locality:bool ->
  ?skip_idle:bool ->
  Config.Machine.t ->
  Trace.t ->
  Uarch.Metrics.t
(** [wrong_path_locality] is {!Uarch.Trace_feed.create}'s (default
    [false], the paper's behaviour). [skip_idle] is forwarded to
    {!Uarch.Pipeline.run} (default [true], the event-driven loop);
    [~skip_idle:false] forces the dense cycle-by-cycle loop, for
    equivalence testing. *)

val mean_ipc : Uarch.Metrics.t list -> float
(** Instruction-weighted mean IPC across traces (used when several
    synthetic traces model the phases of one long execution,
    Section 4.4). *)
