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

    The walk is exposed in two forms over the same sampling core:
    {!generate} materializes a {!Trace.t}, while {!stream}/{!next} pull
    instructions one at a time into a caller's buffer — feeding the
    pipeline through a window-sized ring without the whole trace. Both
    write the packed words in place. For equal arguments and seed the
    two forms draw from the PRNG in the same order and therefore produce
    bit-identical instruction sequences. *)

type stream
(** An in-progress random walk: a single-consumer pull generator. *)

val stream :
  ?reduction:int ->
  ?target_length:int ->
  Profile.Stat_profile.t ->
  seed:int ->
  stream
(** Compile the reduced SFG to a plan and position the walk before its
    first block. Argument handling is exactly {!generate}'s; raises
    [Invalid_argument] under the same conditions. *)

val stream_of_plan : Kernel.Plan.t -> seed:int -> stream
(** A walk over an already-compiled plan, skipping compilation — the
    entry point for cached plans and for replicas sharing one plan. *)

val next : stream -> Trace.t -> int -> bool
(** [next s buf i] writes the walk's next instruction at index [i] of
    [buf] and answers [true], or answers [false] once every reduced
    occurrence count has been consumed. Nothing is allocated. Raises
    [Invalid_argument] when [i] is not an index of [buf]. *)

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
