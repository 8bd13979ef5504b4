(** Synthetic trace generation (Section 2.2): reduce the SFG by the
    trace reduction factor R, then walk it randomly following the
    paper's nine-step algorithm.

    Reduction: every node's occurrence count is divided by R (floor);
    nodes that reach zero are removed together with their edges. The
    walk starts at a node drawn from the cumulative occurrence
    distribution, decrements the visited node's count, emits the block's
    instructions with sampled characteristics, and follows an outgoing
    edge drawn from the cumulative transition distribution; dead ends
    (no surviving outgoing edge, or an exhausted successor) restart at
    step 1. Generation terminates when all occurrence counts are zero,
    so the trace length is within one block of
    [total occurrences / R] blocks.

    Dependency sampling implements the paper's retry rule: a sampled
    distance whose producer would be a branch or store (no destination
    register) is re-drawn up to 1,000 times, then dropped (each drop is
    counted on the [synth.dep_squashed] telemetry counter). When no
    value the slot's table can return would be accepted, the doomed
    re-draws are jumped over in one PRNG step ({!Prng.advance}) instead
    of drawn, which leaves the stream and the trace unchanged.

    The reduced SFG is first {e compiled} to a {!Kernel.Plan.t} — flat
    arrays, O(1) alias samplers, fixed-point rate thresholds — and the
    walk executes the plan, visiting every surviving node exactly
    [occurrences / R] times.

    The walk fills the trace's packed words in place, at the size the
    plan fixes, with no per-instruction allocation. *)

val generate :
  ?reduction:int ->
  ?target_length:int ->
  Profile.Stat_profile.t ->
  seed:int ->
  Trace.t
(** Provide either [reduction] (R) directly or [target_length] in
    instructions; defaults to [reduction = 100]. When [target_length]
    is given, R is the {e ceiling} of profiled instructions over the
    target, so the emitted trace does not overshoot the request (a
    floored R could exceed it by a whole reduction bucket on short
    profiles). Raises [Invalid_argument] if the reduced graph is
    empty. *)

val generate_of_plan : Kernel.Plan.t -> seed:int -> Trace.t
(** Materialize a trace from an already-compiled plan. *)
