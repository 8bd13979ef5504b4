(** The perf-gate evaluation core: compare a fresh [BENCH_summary.json]
    against the checked-in [bench/baseline.json].

    Extracted from the [perf_gate] executable so the verdict logic is
    unit-testable; the executable keeps only argument parsing and
    printing. Two kinds of comparison:

    - {!evaluate} checks one named metric. Timings regress only when
      slower; counts drift in either direction. Each check carries an
      absolute slack so near-zero timings at tiny [REPRO_SCALE] cannot
      trip the relative threshold.
    - {!missing_sections} guards whole summary sections: a section the
      baseline has numbers for but the fresh summary left empty (the
      bench selection stopped running it, or the harness stopped
      emitting it) is a {e named failure}, never a silent skip. A
      section absent from the baseline is informational — new summary
      sections land before the baseline is regenerated. *)

type check = {
  label : string;
  path : string list;  (** JSON path into the summary document *)
  both_directions : bool;
      (** counts fail on drift either way; timings only when slower *)
  abs_slack : float;
}

type verdict =
  | Pass
  | Regressed
  | Missing  (** baseline has the metric, the fresh summary does not *)
  | New  (** no baseline value yet: informational *)

val failed : verdict -> bool
(** [Regressed] and [Missing] fail the gate. *)

val num_field : Telemetry.Json.t -> string list -> float option
(** Numeric value at a JSON path, for informational (ungated) lines. *)

val default_checks : check list
(** Every gated metric: per-stage seconds, memo-cache and store
    counters, kernel timings, the kernel's minor words per
    instruction for generation and both pipeline schedulers (one
    direction, slack one word) and its minor words per byte for the
    four store codec calls (one direction, slack 0.1 word), the DSE
    driver's seconds and
    profile/plan compute counts, and the replication bench's
    deterministic replicas-to-target-CI counts. *)

val evaluate :
  threshold:float ->
  baseline:Telemetry.Json.t ->
  current:Telemetry.Json.t ->
  check ->
  check * float * float * verdict
(** [(check, baseline_value, current_value, verdict)]; absent values
    are [nan]. A value regresses when it exceeds both the relative
    threshold and the check's absolute slack. *)

val missing_sections :
  baseline:Telemetry.Json.t -> current:Telemetry.Json.t -> string list
(** Top-level baseline sections that are non-empty objects but are
    absent — or an empty object — in the current summary, in baseline
    document order. Each name is a gate failure. *)
