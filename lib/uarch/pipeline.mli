(** Cycle-level out-of-order superscalar pipeline, SimpleScalar
    sim-outorder style: fetch into an IFQ (stopping on taken branches,
    I-cache misses and fetch redirections), in-order dispatch into the
    RUU/LSQ, out-of-order issue to functional-unit pools, writeback with
    wakeup, in-order commit.

    Branch misprediction is modeled the way Section 2.3 prescribes for
    the synthetic-trace simulator (and the execution-driven reference
    uses the same core): when a mispredicted branch is fetched the
    pipeline keeps fetching subsequent stream positions flagged
    wrong-path — they contend for the IFQ, RUU, LSQ and functional units
    — and when the branch completes they are squashed, the fetch position
    rewinds to just after the branch, and fetch restarts after the
    configured penalty.

    Per-cycle work tracks events, not the window size, and no stage
    allocates. Because dispatch is in order and a squash removes a
    suffix, the in-flight seqs are one contiguous range, so the RUU is a
    ring indexed by [seq - head_seq] with no lookup table, kept as
    parallel int arrays (seq, feed word, state, pending count,
    wrong-path flag). Each slot heads an intrusive list of waiter edges
    in int arrays, edge [c * 8 + j] linking consumer slot [c] to its
    producer [j] (at most 8 producers); a squash unlinks the squashed
    slots' edges youngest first, which keeps every list exact. Executing
    slots sit in a timing wheel with one bucket per cycle, sized to the
    smallest power of two above the machine's longest issue latency and
    at most 1,024 buckets: issue links a slot into its completion
    cycle's bucket, writeback detaches the current bucket whole and a
    squash unlinks the squashed slots still executing. A slot due a lap
    or more ahead waits in an overflow list until its cycle, so no
    latency sizes a run's memory. Issue walks an age-ordered list of
    Ready slots. The IFQ is a ring of feed words. When every stage is
    stalled, the event-driven loop scans the wheel for the next
    completion, no further than the fetch wake, the watchdog trip or
    the overflow list's first due cycle.

    One compiled core serves both simulators. The machine holds the
    trace feed's record and, beside it, an optional execution-driven
    feed; at each of the six places the core asks its feed (fetch,
    producer, instruction access, load access, a store's commit write
    and the dispatch hook) the trace case is read inline and the EDS
    case is a direct call. The per-cycle stages, their helpers and the
    trace accessors carry [[\@inline]], so ocamlopt without flambda
    folds the loop body together: no functor, no second copy of the
    stages and no compiler flag. *)

type feed =
  | Trace of Trace_feed.t
      (** a packed synthetic trace, read inline at every touch point *)
  | Eds of Eds_feed.t
      (** the execution-driven stream, reached by direct calls *)

val run :
  ?max_instructions:int ->
  ?skip_idle:bool ->
  ?commit_hook:(committed:int -> cycle:int -> unit) ->
  Config.Machine.t ->
  feed ->
  Metrics.t
(** Run to end-of-stream (or until [max_instructions] commit). Raises
    [Failure] if the machine stops committing for an implausibly long
    time (a model bug, not a workload property): four times the
    machine's worst fetch miss, load miss, longest operation and
    front-end penalties combined, and at least 200,000 cycles. Raises
    [Invalid_argument] when the feed names more than 8 producers for
    one instruction.
    [commit_hook] fires after every committed instruction with the
    running totals — used to carve per-interval statistics out of one
    warm run.

    [skip_idle] (default [true]) makes the run loop event-driven:
    cycles in which no stage can make progress — long cache-miss
    shadows, fetch-redirect and squash-recovery windows — are charged
    to the cycle, occupancy and stall accounting in bulk and skipped,
    jumping to the next completion or fetch wake-up. The resulting
    metrics are identical to the dense loop's (a tested invariant);
    pass [~skip_idle:false] to force the cycle-by-cycle loop.

    Each run adds its per-stage work to the [uarch.wakeups],
    [uarch.issue_examined], [uarch.cycles_skipped] and [uarch.squashed]
    telemetry counters, once at the end. *)
